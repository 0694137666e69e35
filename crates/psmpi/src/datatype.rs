//! Wire datatypes and reduction operators.
//!
//! MPI makes datatypes explicit, and so do we: anything sent through psmpi
//! implements [`MpiDatatype`], a small self-describing binary codec. The
//! standard scalar types, `Vec`s of them, strings, tuples and `Option`s are
//! provided; application crates implement it for their own exchange structs
//! (a few lines of composition, see the `xpic` crate).
//!
//! Reductions (`reduce`/`allreduce`) take a [`ReduceOp`] — element-wise for
//! vectors, plain for scalars.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Encoding/decoding error for wire datatypes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// A type that can cross the simulated fabric.
pub trait MpiDatatype: Sized {
    /// Encoded width in bytes when every value of the type encodes to the
    /// same number of bytes (the POD scalars). Drives the bulk `Vec<T>`
    /// fast path and lets `Vec::decode` reject a corrupt length prefix
    /// before allocating.
    const FIXED_WIDTH: Option<usize> = None;

    /// Append the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);
    /// Decode one value from the front of `buf`.
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError>;

    /// Lower bound on the encoded size, used to reserve buffers up front.
    fn size_hint(&self) -> usize {
        Self::FIXED_WIDTH.unwrap_or(0)
    }

    /// Append the encodings of every element of `items`. Fixed-width
    /// scalars override this with a chunked bulk conversion; the default
    /// is the generic per-element path.
    fn encode_slice(items: &[Self], buf: &mut BytesMut) {
        for x in items {
            x.encode(buf);
        }
    }

    /// Decode `n` consecutive values (the inverse of [`encode_slice`]).
    ///
    /// [`encode_slice`]: MpiDatatype::encode_slice
    fn decode_vec(n: usize, buf: &mut Bytes) -> Result<Vec<Self>, CodecError> {
        // Cap the speculative allocation: a hostile length prefix on a
        // variable-width element type is only discovered element by
        // element, so don't trust `n` further than one arena's worth.
        let mut v = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            v.push(Self::decode(buf)?);
        }
        Ok(v)
    }

    /// Encode into a fresh buffer.
    fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.size_hint());
        self.encode(&mut buf);
        buf.freeze()
    }

    /// Encode for the wire, drawing the staging buffer from `pool`. Types
    /// that already hold their encoded form (`Raw`) override this to hand
    /// the existing buffer over without copying.
    fn to_wire(&self, pool: &crate::pool::BufferPool) -> Bytes {
        let mut buf = pool.get(self.size_hint());
        self.encode(&mut buf);
        buf.freeze()
    }

    /// Decode from a complete buffer.
    fn from_bytes(bytes: Bytes) -> Result<Self, CodecError> {
        let mut b = bytes;
        Self::decode(&mut b)
    }
}

/// Marker for POD scalars whose encoding is exactly the little-endian
/// image of the value: [`WIDTH`](FixedWidth::WIDTH) bytes, no framing.
/// Buffers of these types move through the wire stack in bulk — reserve
/// once, convert in cache-sized chunks — instead of one `BufMut` dispatch
/// per element.
pub trait FixedWidth: MpiDatatype + Copy {
    /// Encoded width in bytes.
    const WIDTH: usize;

    /// Write the little-endian image into `out` (exactly `WIDTH` bytes).
    fn put_le(self, out: &mut [u8]);

    /// Read a value back from a `WIDTH`-byte little-endian image.
    fn get_le(src: &[u8]) -> Self;

    /// Bulk-decode `src` — exactly `out.len() * WIDTH` bytes — into `out`.
    ///
    /// The default is the portable per-element loop. The scalar impls
    /// override it with a concrete-width formulation (`chunks_exact` of a
    /// literal width plus `try_into` to a fixed-size array) that the
    /// compiler turns into wide vector loads — ~5x on a 1 MiB `f64`
    /// buffer, which is most of the in-place receive's cost.
    fn decode_slice_le(src: &[u8], out: &mut [Self]) {
        for (dst, ch) in out.iter_mut().zip(src.chunks_exact(Self::WIDTH)) {
            *dst = Self::get_le(ch);
        }
    }

    /// Bulk-encode `items`, appending `items.len() * WIDTH` bytes to
    /// `buf`. Byte-identical to encoding each element in turn; overridden
    /// per scalar like [`FixedWidth::decode_slice_le`].
    fn encode_slice_le(items: &[Self], buf: &mut BytesMut) {
        buf.reserve(items.len() * Self::WIDTH);
        let per_chunk = (POD_CHUNK_BYTES / Self::WIDTH).max(1);
        let mut tmp = [0u8; POD_CHUNK_BYTES];
        for chunk in items.chunks(per_chunk) {
            let mut off = 0;
            for &x in chunk {
                x.put_le(&mut tmp[off..off + Self::WIDTH]);
                off += Self::WIDTH;
            }
            buf.extend_from_slice(&tmp[..off]);
        }
    }
}

/// Staging-block size for bulk conversion: big enough to amortise the
/// `extend_from_slice` calls, small enough to stay cache-resident.
const POD_CHUNK_BYTES: usize = 8192;

/// Append the encodings of `items` in bulk: one capacity reservation,
/// then cache-sized chunks converted on the stack and appended with
/// `extend_from_slice` (see [`FixedWidth::encode_slice_le`]).
pub fn encode_pod_slice<T: FixedWidth>(items: &[T], buf: &mut BytesMut) {
    T::encode_slice_le(items, buf);
}

/// Decode `n` values in bulk after an up-front length check, so a corrupt
/// count fails fast instead of after `n` short-buffer probes.
pub fn decode_pod_vec<T: FixedWidth>(n: usize, buf: &mut Bytes) -> Result<Vec<T>, CodecError> {
    let total = pod_run_length::<T>(n, buf)?;
    let mut v = Vec::with_capacity(n);
    v.extend(buf.chunk()[..total].chunks_exact(T::WIDTH).map(T::get_le));
    buf.advance(total);
    Ok(v)
}

/// Decode exactly `out.len()` values into an existing slice (no
/// allocation — the halo-exchange path reuses ghost rows in place).
pub fn read_pod_into<T: FixedWidth>(buf: &Bytes, out: &mut [T]) -> Result<(), CodecError> {
    let total = pod_run_length::<T>(out.len(), buf)?;
    T::decode_slice_le(&buf[..total], out);
    Ok(())
}

/// Encode a bare (unframed: no length prefix) POD slice into one buffer.
pub fn pod_to_bytes<T: FixedWidth>(items: &[T]) -> Bytes {
    let mut buf = BytesMut::with_capacity(items.len() * T::WIDTH);
    T::encode_slice(items, &mut buf);
    buf.freeze()
}

/// Decode a bare POD buffer whose length must be a multiple of
/// [`FixedWidth::WIDTH`].
pub fn bytes_to_pod<T: FixedWidth>(buf: &Bytes) -> Result<Vec<T>, CodecError> {
    if !buf.len().is_multiple_of(T::WIDTH) {
        return Err(CodecError(format!(
            "raw POD buffer of {} bytes is not a multiple of the element width {}",
            buf.len(),
            T::WIDTH
        )));
    }
    let mut view = buf.clone();
    decode_pod_vec(buf.len() / T::WIDTH, &mut view)
}

/// [`pod_to_bytes`] encoding into a buffer drawn from `pool` instead of a
/// fresh allocation — the steady-state typed send path of
/// [`crate::Rank::send_slice_comm`].
pub fn pod_to_bytes_pooled<T: FixedWidth>(pool: &crate::BufferPool, items: &[T]) -> Bytes {
    let mut buf = pool.get(items.len() * T::WIDTH);
    T::encode_slice(items, &mut buf);
    buf.freeze()
}

/// [`read_pod_into`] that additionally demands the buffer holds *exactly*
/// `out.len()` elements — the unframed wire format carries no element
/// count, so a length mismatch is a protocol error, not a partial read.
pub fn read_pod_into_exact<T: FixedWidth>(buf: &Bytes, out: &mut [T]) -> Result<(), CodecError> {
    let want = out.len() * T::WIDTH;
    if buf.len() != want {
        return Err(CodecError(format!(
            "in-place receive of {} x {}-byte elements expects exactly {want} bytes, got {}",
            out.len(),
            T::WIDTH,
            buf.len()
        )));
    }
    read_pod_into(buf, out)
}

fn pod_run_length<T: FixedWidth>(n: usize, buf: &Bytes) -> Result<usize, CodecError> {
    let total = n
        .checked_mul(T::WIDTH)
        .ok_or_else(|| CodecError(format!("POD vector length {n} overflows")))?;
    need(buf, total, "POD vector body")?;
    Ok(total)
}

fn need(buf: &Bytes, n: usize, what: &str) -> Result<(), CodecError> {
    if buf.remaining() < n {
        Err(CodecError(format!(
            "short buffer decoding {what}: need {n}, have {}",
            buf.remaining()
        )))
    } else {
        Ok(())
    }
}

macro_rules! impl_scalar {
    ($t:ty, $put:ident, $get:ident) => {
        impl MpiDatatype for $t {
            const FIXED_WIDTH: Option<usize> = Some(std::mem::size_of::<$t>());

            fn encode(&self, buf: &mut BytesMut) {
                buf.$put(*self);
            }
            fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
                need(buf, std::mem::size_of::<$t>(), stringify!($t))?;
                Ok(buf.$get())
            }
            fn encode_slice(items: &[Self], buf: &mut BytesMut) {
                encode_pod_slice(items, buf);
            }
            fn decode_vec(n: usize, buf: &mut Bytes) -> Result<Vec<Self>, CodecError> {
                decode_pod_vec(n, buf)
            }
        }

        impl FixedWidth for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();

            fn put_le(self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
            fn get_le(src: &[u8]) -> Self {
                let mut raw = [0u8; std::mem::size_of::<$t>()];
                raw.copy_from_slice(src);
                <$t>::from_le_bytes(raw)
            }

            // Concrete-width bulk hooks: the literal width lets the
            // `try_into` checks fold away and the loops compile to wide
            // vector moves (the generic defaults stay scalar).
            fn decode_slice_le(src: &[u8], out: &mut [Self]) {
                const W: usize = std::mem::size_of::<$t>();
                for (dst, ch) in out.iter_mut().zip(src.chunks_exact(W)) {
                    *dst = <$t>::from_le_bytes(ch.try_into().expect("chunk is W bytes"));
                }
            }
            fn encode_slice_le(items: &[Self], buf: &mut BytesMut) {
                const W: usize = std::mem::size_of::<$t>();
                buf.reserve(items.len() * W);
                let per_chunk = (POD_CHUNK_BYTES / W).max(1);
                let mut tmp = [0u8; POD_CHUNK_BYTES];
                for chunk in items.chunks(per_chunk) {
                    for (x, dch) in chunk.iter().zip(tmp.chunks_exact_mut(W)) {
                        let arr: &mut [u8; W] = dch.try_into().expect("chunk is W bytes");
                        *arr = x.to_le_bytes();
                    }
                    buf.extend_from_slice(&tmp[..chunk.len() * W]);
                }
            }
        }
    };
}

impl_scalar!(u16, put_u16_le, get_u16_le);
impl_scalar!(u32, put_u32_le, get_u32_le);
impl_scalar!(u64, put_u64_le, get_u64_le);
impl_scalar!(i16, put_i16_le, get_i16_le);
impl_scalar!(i32, put_i32_le, get_i32_le);
impl_scalar!(i64, put_i64_le, get_i64_le);
impl_scalar!(f32, put_f32_le, get_f32_le);
impl_scalar!(f64, put_f64_le, get_f64_le);

// Byte-width scalars get hand-written impls: a `&[u8]` already *is* its
// wire image, so the bulk hooks collapse to single memcpys instead of the
// staging-chunk loop the macro generates.
impl MpiDatatype for u8 {
    const FIXED_WIDTH: Option<usize> = Some(1);

    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(*self);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        need(buf, 1, "u8")?;
        Ok(buf.get_u8())
    }
    fn encode_slice(items: &[Self], buf: &mut BytesMut) {
        buf.extend_from_slice(items);
    }
    fn decode_vec(n: usize, buf: &mut Bytes) -> Result<Vec<Self>, CodecError> {
        need(buf, n, "POD vector body")?;
        let v = buf.chunk()[..n].to_vec();
        buf.advance(n);
        Ok(v)
    }
}

impl FixedWidth for u8 {
    const WIDTH: usize = 1;

    fn put_le(self, out: &mut [u8]) {
        out[0] = self;
    }
    fn get_le(src: &[u8]) -> Self {
        src[0]
    }
    fn decode_slice_le(src: &[u8], out: &mut [Self]) {
        out.copy_from_slice(src);
    }
    fn encode_slice_le(items: &[Self], buf: &mut BytesMut) {
        buf.extend_from_slice(items);
    }
}

impl MpiDatatype for i8 {
    const FIXED_WIDTH: Option<usize> = Some(1);

    fn encode(&self, buf: &mut BytesMut) {
        buf.put_i8(*self);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        need(buf, 1, "i8")?;
        Ok(buf.get_i8())
    }
    fn encode_slice(items: &[Self], buf: &mut BytesMut) {
        encode_pod_slice(items, buf);
    }
    fn decode_vec(n: usize, buf: &mut Bytes) -> Result<Vec<Self>, CodecError> {
        decode_pod_vec(n, buf)
    }
}

impl FixedWidth for i8 {
    const WIDTH: usize = 1;

    fn put_le(self, out: &mut [u8]) {
        out[0] = self as u8;
    }
    fn get_le(src: &[u8]) -> Self {
        src[0] as i8
    }
}

impl MpiDatatype for usize {
    const FIXED_WIDTH: Option<usize> = Some(8);

    fn encode(&self, buf: &mut BytesMut) {
        (*self as u64).encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        Ok(u64::decode(buf)? as usize)
    }
}

impl MpiDatatype for bool {
    const FIXED_WIDTH: Option<usize> = Some(1);

    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(*self as u8);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        need(buf, 1, "bool")?;
        Ok(buf.get_u8() != 0)
    }
}

impl MpiDatatype for () {
    fn encode(&self, _buf: &mut BytesMut) {}
    fn decode(_buf: &mut Bytes) -> Result<Self, CodecError> {
        Ok(())
    }
}

/// A raw, already-encoded payload: the identity datatype.
///
/// `Raw` is the zero-copy escape hatch of the typed API. Its `from_bytes`
/// returns the received buffer itself (a refcount bump, no copy) and its
/// `to_bytes` clones the handle, so a `Raw` payload travels sender →
/// router → receiver — and through collective forwarding fan-out — as one
/// shared allocation. Use [`crate::Rank::send_bytes_comm`]-family methods (or
/// `send`/`recv` with `Raw` directly) for large numeric buffers where the
/// length-prefixed `Vec<f64>` codec would copy element by element.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Raw(pub Bytes);

impl MpiDatatype for Raw {
    fn encode(&self, buf: &mut BytesMut) {
        // Only reachable when a `Raw` is nested inside a composite type;
        // the top-level send path uses `to_bytes`, which does not copy.
        buf.put_slice(&self.0);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        // A raw payload is the whole remaining buffer.
        let n = buf.remaining();
        Ok(Raw(buf.split_to(n)))
    }
    fn to_bytes(&self) -> Bytes {
        self.0.clone() // refcount bump, not a copy
    }
    fn to_wire(&self, _pool: &crate::pool::BufferPool) -> Bytes {
        self.0.clone() // already wire-shaped; never staged through the pool
    }
    fn from_bytes(bytes: Bytes) -> Result<Self, CodecError> {
        Ok(Raw(bytes)) // the received buffer, verbatim
    }
}

impl<T: MpiDatatype> MpiDatatype for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        buf.reserve(8 + T::FIXED_WIDTH.unwrap_or(0) * self.len());
        buf.put_u64_le(self.len() as u64);
        T::encode_slice(self, buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        need(buf, 8, "Vec length")?;
        let n = buf.get_u64_le() as usize;
        if let Some(width) = T::FIXED_WIDTH {
            // Fixed-width elements let us validate the whole run against
            // the bytes actually present, so a corrupt length prefix is
            // one comparison, not up to 2^20 speculative pushes.
            let total = n
                .checked_mul(width)
                .ok_or_else(|| CodecError(format!("corrupt Vec length prefix {n}: overflows")))?;
            if total > buf.remaining() {
                return Err(CodecError(format!(
                    "corrupt Vec length prefix {n}: need {total} bytes, have {}",
                    buf.remaining()
                )));
            }
        }
        T::decode_vec(n, buf)
    }
    fn size_hint(&self) -> usize {
        8 + T::FIXED_WIDTH.unwrap_or(0) * self.len()
    }
}

impl MpiDatatype for String {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.len() as u64);
        buf.put_slice(self.as_bytes());
    }
    fn size_hint(&self) -> usize {
        8 + self.len()
    }
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        need(buf, 8, "String length")?;
        let n = buf.get_u64_le() as usize;
        need(buf, n, "String body")?;
        let body = buf.split_to(n);
        String::from_utf8(body.to_vec()).map_err(|e| CodecError(e.to_string()))
    }
}

impl<T: MpiDatatype> MpiDatatype for Option<T> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(x) => {
                buf.put_u8(1);
                x.encode(buf);
            }
        }
    }
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        need(buf, 1, "Option tag")?;
        match buf.get_u8() {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            t => Err(CodecError(format!("bad Option tag {t}"))),
        }
    }
    fn size_hint(&self) -> usize {
        1 + self.as_ref().map_or(0, T::size_hint)
    }
}

/// Tuples encode their parts in order; width and size hint are the sums.
macro_rules! impl_tuple {
    ($($part:ident . $idx:tt),+) => {
        impl<$($part: MpiDatatype),+> MpiDatatype for ($($part,)+) {
            #[allow(non_snake_case)]
            const FIXED_WIDTH: Option<usize> = match ($($part::FIXED_WIDTH,)+) {
                ($(Some($part),)+) => Some(0 $(+ $part)+),
                _ => None,
            };
            fn encode(&self, buf: &mut BytesMut) {
                $(self.$idx.encode(buf);)+
            }
            fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
                Ok(($($part::decode(buf)?,)+))
            }
            fn size_hint(&self) -> usize {
                0 $(+ self.$idx.size_hint())+
            }
        }
    };
}
impl_tuple!(A.0, B.1);
impl_tuple!(A.0, B.1, C.2);

/// Reduction operators for `reduce`/`allreduce`/`scan`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise product.
    Prod,
    /// Element-wise minimum.
    Min,
    /// Element-wise maximum.
    Max,
}

impl ReduceOp {
    /// Apply to two scalars.
    pub fn apply_f64(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Prod => a * b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }

    /// Apply element-wise, accumulating into `acc`. Panics on length
    /// mismatch (an MPI-style usage error).
    pub fn apply_slice(self, acc: &mut [f64], other: &[f64]) {
        assert_eq!(acc.len(), other.len(), "reduce length mismatch");
        for (a, b) in acc.iter_mut().zip(other) {
            *a = self.apply_f64(*a, *b);
        }
    }

    /// Fold a partner's block into `acc` straight from its wire form (the
    /// unframed little-endian layout of [`pod_to_bytes`]): what decoding
    /// `theirs` and [`ReduceOp::apply_slice`] compute, in one pass and with
    /// no decoded copy. The operand order is `acc ∘ theirs` when `acc_first`,
    /// `theirs ∘ acc` otherwise. A block of the wrong length is a protocol
    /// error and leaves `acc` untouched.
    pub fn fold_wire(
        self,
        acc: &mut [f64],
        theirs: &[u8],
        acc_first: bool,
    ) -> Result<(), CodecError> {
        // Operator and side are chosen outside the element loop, so each
        // instantiation is a branch-free loop the compiler vectorizes.
        fn fold(acc: &mut [f64], theirs: &[u8], acc_first: bool, f: impl Fn(f64, f64) -> f64) {
            let theirs = theirs
                .chunks_exact(8)
                .map(|ch| f64::from_le_bytes(ch.try_into().expect("chunk is 8 bytes")));
            if acc_first {
                acc.iter_mut().zip(theirs).for_each(|(a, t)| *a = f(*a, t));
            } else {
                acc.iter_mut().zip(theirs).for_each(|(a, t)| *a = f(t, *a));
            }
        }
        let (got, n) = (theirs.len(), acc.len());
        if got != n * 8 {
            return Err(CodecError(format!("{got}-byte reduction block, {n} f64s")));
        }
        match self {
            ReduceOp::Sum => fold(acc, theirs, acc_first, |a, b| a + b),
            ReduceOp::Prod => fold(acc, theirs, acc_first, |a, b| a * b),
            ReduceOp::Min => fold(acc, theirs, acc_first, f64::min),
            ReduceOp::Max => fold(acc, theirs, acc_first, f64::max),
        }
        Ok(())
    }

    /// The identity element (for empty reductions).
    pub fn identity(self) -> f64 {
        match self {
            ReduceOp::Sum => 0.0,
            ReduceOp::Prod => 1.0,
            ReduceOp::Min => f64::INFINITY,
            ReduceOp::Max => f64::NEG_INFINITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: MpiDatatype + PartialEq + std::fmt::Debug>(x: T) {
        let b = x.to_bytes();
        let y = T::from_bytes(b).unwrap();
        assert_eq!(x, y);
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(-7i32);
        roundtrip(u64::MAX);
        roundtrip(1234.5678f64);
        roundtrip(f64::MIN_POSITIVE);
        roundtrip(true);
        roundtrip(false);
        roundtrip(12345usize);
        roundtrip(());
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![1.0f64, -2.0, 3.5]);
        roundtrip(Vec::<f64>::new());
        roundtrip("hello Jülich".to_string());
        roundtrip(Some(42u32));
        roundtrip(Option::<u32>::None);
        roundtrip((1u32, 2.5f64));
        roundtrip((1u8, "x".to_string(), vec![1i64]));
        roundtrip(vec![vec![1u8], vec![2, 3]]);
    }

    #[test]
    fn raw_is_identity_and_zero_copy() {
        let src = Bytes::from(vec![1u8, 2, 3, 4]);
        let raw = Raw(src.clone());
        // to_bytes shares the allocation (same backing pointer).
        let wire = raw.to_bytes();
        assert_eq!(wire.as_ptr(), src.as_ptr());
        // from_bytes returns the buffer itself, not a copy.
        let back = Raw::from_bytes(wire.clone()).unwrap();
        assert_eq!(back.0.as_ptr(), src.as_ptr());
        assert_eq!(back.0, src);
    }

    #[test]
    fn short_buffer_is_error_not_panic() {
        let b = 1.0f64.to_bytes();
        let short = b.slice(0..4);
        assert!(f64::from_bytes(short).is_err());
        let e = Vec::<f64>::from_bytes(Bytes::new());
        assert!(e.is_err());
    }

    #[test]
    fn bad_option_tag() {
        let raw = Bytes::from_static(&[9]);
        assert!(Option::<u8>::from_bytes(raw).is_err());
    }

    #[test]
    fn vec_length_prefix_is_exact() {
        let v = vec![7u8; 10];
        let b = v.to_bytes();
        assert_eq!(b.len(), 8 + 10);
    }

    #[test]
    fn pod_fast_path_roundtrips() {
        roundtrip(vec![1u32, 2, 3, u32::MAX]);
        roundtrip(vec![0.5f32, -1.5, f32::MIN_POSITIVE]);
        roundtrip((0..4097u64).collect::<Vec<_>>()); // crosses a staging chunk
        roundtrip(vec![-1i8, 0, 1]);
        roundtrip(vec![u8::MAX; 3]);
    }

    #[test]
    fn corrupt_length_prefix_fails_fast() {
        // Claim 2^56 f64s but supply 16 bytes: must error on the length
        // check, long before any element decode or giant allocation.
        let mut buf = BytesMut::new();
        buf.put_u64_le(1 << 56);
        buf.put_f64_le(1.0);
        buf.put_f64_le(2.0);
        let err = Vec::<f64>::from_bytes(buf.freeze()).unwrap_err();
        assert!(err.0.contains("corrupt Vec length prefix"), "{err}");
    }

    #[test]
    fn corrupt_length_prefix_overflow_is_caught() {
        let mut buf = BytesMut::new();
        buf.put_u64_le(u64::MAX);
        let err = Vec::<u64>::from_bytes(buf.freeze()).unwrap_err();
        assert!(err.0.contains("overflows"), "{err}");
    }

    #[test]
    fn unframed_pod_helpers_roundtrip() {
        let src = vec![1.0f64, -2.5, 3.25];
        let wire = pod_to_bytes(&src);
        assert_eq!(wire.len(), 24);
        assert_eq!(bytes_to_pod::<f64>(&wire).unwrap(), src);
        let mut out = [0.0f64; 3];
        read_pod_into(&wire, &mut out).unwrap();
        assert_eq!(&out[..], &src[..]);
        // Misaligned buffer is an error, not a panic.
        let odd = wire.slice(0..10);
        assert!(bytes_to_pod::<f64>(&odd).is_err());
    }

    #[test]
    fn to_wire_draws_from_pool_and_raw_bypasses_it() {
        let pool = crate::pool::BufferPool::new();
        let staged = pool.get(64);
        let ptr = staged.as_ref().as_ptr();
        pool.recycle(staged.freeze());
        // A typed value stages through the pooled buffer…
        let wire = vec![1.0f64, 2.0].to_wire(&pool);
        assert_eq!(wire.as_ptr(), ptr);
        // …while Raw hands its own allocation over untouched.
        let raw = Raw(Bytes::from(vec![7u8; 16]));
        let raw_wire = raw.to_wire(&pool);
        assert_eq!(raw_wire.as_ptr(), raw.0.as_ptr());
    }

    #[test]
    fn composite_to_wire_never_reallocates() {
        // The pool holds a buffer of exactly the encoded size under one
        // too small for it: a `to_wire` that asked for less than it needs
        // would take the small one and grow it while encoding.
        fn check<T: MpiDatatype>(value: T, encoded: usize) {
            assert_eq!(value.size_hint(), encoded);
            let pool = crate::pool::BufferPool::new();
            let exact = BytesMut::with_capacity(encoded);
            let ptr = exact.as_ref().as_ptr();
            pool.put(exact);
            pool.put(BytesMut::with_capacity(1));
            let wire = value.to_wire(&pool);
            assert_eq!(wire.len(), encoded);
            assert_eq!(wire.as_ptr(), ptr, "staging buffer moved while encoding");
        }
        check((1u64, 2u64), 16);
        check((1u64, (0..100u64).collect::<Vec<_>>()), 8 + 8 + 800);
        check(Some(7u32), 5);
        check((true, 3u32, -4i64), 13); // a `split` entry
        assert_eq!(<(u64, u64)>::FIXED_WIDTH, Some(16));
        assert_eq!(<(u64, Vec<u64>)>::FIXED_WIDTH, None);
    }

    #[test]
    fn reduce_ops() {
        assert_eq!(ReduceOp::Sum.apply_f64(2.0, 3.0), 5.0);
        assert_eq!(ReduceOp::Prod.apply_f64(2.0, 3.0), 6.0);
        assert_eq!(ReduceOp::Min.apply_f64(2.0, 3.0), 2.0);
        assert_eq!(ReduceOp::Max.apply_f64(2.0, 3.0), 3.0);
        let mut acc = vec![1.0, 5.0];
        ReduceOp::Max.apply_slice(&mut acc, &[2.0, 4.0]);
        assert_eq!(acc, vec![2.0, 5.0]);
    }

    #[test]
    fn reduce_identities() {
        for op in [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Min, ReduceOp::Max] {
            assert_eq!(op.apply_f64(op.identity(), 7.0), 7.0);
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn reduce_length_mismatch_panics() {
        let mut acc = vec![0.0];
        ReduceOp::Sum.apply_slice(&mut acc, &[1.0, 2.0]);
    }
}
