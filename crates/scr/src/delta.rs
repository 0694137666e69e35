//! Incremental (delta) checkpoint frames on the bulk POD codec.
//!
//! Between two checkpoints most of a rank's packed state barely moves: a
//! small change to an `f64` leaves its sign/exponent/high-mantissa bytes
//! identical, so the byte streams of consecutive `pack_state` blobs share
//! long equal runs. A delta frame records only the *dirty byte ranges*
//! against the previous checkpoint's full blob, shrinking the bytes an
//! asynchronous drain has to push through the fabric. Periodic full
//! keyframes bound the reconstruction chain (and a frame silently falls
//! back to full whenever the delta would not actually be smaller, or the
//! blob length changed — e.g. particle migration).
//!
//! Frame wire format (all integers little-endian):
//!
//! ```text
//! full:  0x00 | payload…
//! delta: 0x01 | base_id u64 | total_len u64 | nruns u32 |
//!        (offset u64 | len u64 | bytes…)*
//! ```
//!
//! Decoding is pure byte patching — no floating point — so a
//! reconstructed blob is bit-identical to the blob it encodes, at any
//! host thread count.

use bytes::Bytes;

/// Tag byte of a full (keyframe) frame: the frame is this byte, then the
/// blob. Public so that a packer can put it in front of the blob it writes
/// and use that one buffer as the blob's keyframe.
pub const TAG_FULL: u8 = 0x00;
/// Tag byte of a dirty-range delta frame.
const TAG_DELTA: u8 = 0x01;

/// Two dirty runs closer than this many equal bytes are coalesced into
/// one — each run costs 16 bytes of header, so tiny clean gaps between
/// dirty bytes are cheaper to resend than to describe.
const MIN_GAP: usize = 16;

/// Errors from frame decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// The frame bytes are truncated or carry an unknown tag.
    Malformed,
    /// A delta frame's base blob was not supplied (or had the wrong
    /// length for the frame's patches).
    BadBase {
        /// The base checkpoint id the frame references.
        base: u64,
    },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::Malformed => write!(f, "malformed delta frame"),
            DeltaError::BadBase { base } => {
                write!(f, "delta frame base checkpoint {base} unusable")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// Encode `cur` as a full keyframe.
pub fn encode_full(cur: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(cur.len() + 1);
    out.push(TAG_FULL);
    out.extend_from_slice(cur);
    out
}

/// Encode `cur` against `base` (the full blob of checkpoint `base_id`):
/// a dirty-range delta frame if that is strictly smaller than a full
/// frame, otherwise a full keyframe. Length changes always force full.
pub fn encode_delta(base: &[u8], cur: &[u8], base_id: u64) -> Vec<u8> {
    try_encode_delta(base, cur, base_id).unwrap_or_else(|| encode_full(cur))
}

/// The delta frame [`encode_delta`] would write, or `None` where it falls
/// back to a keyframe (which a caller may hold already).
pub fn try_encode_delta(base: &[u8], cur: &[u8], base_id: u64) -> Option<Vec<u8>> {
    if base.len() != cur.len() {
        return None;
    }
    frame_runs(cur, base_id, &dirty_runs(base, cur))
}

/// The dirty runs `(offset, len)` of `cur` against an equally long `base`,
/// coalesced across clean gaps shorter than [`MIN_GAP`]. Compares eight
/// bytes at a time: one XOR per word skips a clean stretch or finds the
/// last dirty byte of a dirty one; only a tail shorter than a word goes
/// byte by byte.
fn dirty_runs(base: &[u8], cur: &[u8]) -> Vec<(usize, usize)> {
    let n = cur.len();
    let word = |s: &[u8], at: usize| u64::from_le_bytes(s[at..at + 8].try_into().unwrap());
    let diff = |at: usize| word(base, at) ^ word(cur, at);
    let mut runs = Vec::new();
    let mut i = 0usize;
    loop {
        while i + 8 <= n && diff(i) == 0 {
            i += 8;
        }
        while i < n && base[i] == cur[i] {
            i += 1;
        }
        if i == n {
            return runs;
        }
        // `end` is one past the last dirty byte seen; everything from there
        // to `p` is known clean, and MIN_GAP of that ends the run.
        let (start, mut end, mut p) = (i, i + 1, i + 1);
        while p < n && p - end < MIN_GAP {
            if p + 8 > n {
                end = if base[p] != cur[p] { p + 1 } else { end };
                p += 1;
                continue;
            }
            let x = diff(p);
            if x != 0 {
                // Little-endian load: the lowest set bit is the first byte.
                if p + x.trailing_zeros() as usize / 8 - end >= MIN_GAP {
                    break;
                }
                end = p + 8 - x.leading_zeros() as usize / 8;
            }
            p += 8;
        }
        runs.push((start, end - start));
        i = end;
    }
}

/// Frame `runs` of `cur` as a delta against `base_id`, unless that would
/// not be strictly smaller than a full frame.
fn frame_runs(cur: &[u8], base_id: u64, runs: &[(usize, usize)]) -> Option<Vec<u8>> {
    let body: usize = runs.iter().map(|(_, l)| 16 + l).sum();
    let delta_len = 1 + 8 + 8 + 4 + body;
    if delta_len > cur.len() {
        return None;
    }
    let mut out = Vec::with_capacity(delta_len);
    out.push(TAG_DELTA);
    out.extend_from_slice(&base_id.to_le_bytes());
    out.extend_from_slice(&(cur.len() as u64).to_le_bytes());
    out.extend_from_slice(&(runs.len() as u32).to_le_bytes());
    for &(off, len) in runs {
        out.extend_from_slice(&(off as u64).to_le_bytes());
        out.extend_from_slice(&(len as u64).to_le_bytes());
        out.extend_from_slice(&cur[off..off + len]);
    }
    Some(out)
}

/// The base checkpoint id a frame needs, if it is a delta.
pub fn frame_base(frame: &[u8]) -> Result<Option<u64>, DeltaError> {
    match frame.first() {
        Some(&TAG_FULL) => Ok(None),
        Some(&TAG_DELTA) if frame.len() >= 21 => {
            Ok(Some(u64::from_le_bytes(frame[1..9].try_into().unwrap())))
        }
        _ => Err(DeltaError::Malformed),
    }
}

/// Whether a frame is a delta (vs. a full keyframe).
pub fn is_delta(frame: &[u8]) -> bool {
    frame.first() == Some(&TAG_DELTA)
}

/// [`decode`] of a frame held as [`Bytes`]: a full keyframe's blob is a
/// view into the frame itself, not a copy.
pub fn decode_bytes(frame: &Bytes, base: Option<&[u8]>) -> Result<Bytes, DeltaError> {
    match frame.first() {
        Some(&TAG_FULL) => Ok(frame.slice(1..)),
        _ => decode(frame, base).map(Bytes::from),
    }
}

/// Decode a frame into the full blob it represents. `base` must be the
/// full blob of the checkpoint named by [`frame_base`] (ignored for full
/// frames).
pub fn decode(frame: &[u8], base: Option<&[u8]>) -> Result<Vec<u8>, DeltaError> {
    match frame.first() {
        Some(&TAG_FULL) => Ok(frame[1..].to_vec()),
        Some(&TAG_DELTA) => {
            if frame.len() < 21 {
                return Err(DeltaError::Malformed);
            }
            let base_id = u64::from_le_bytes(frame[1..9].try_into().unwrap());
            let total = u64::from_le_bytes(frame[9..17].try_into().unwrap());
            let nruns = u32::from_le_bytes(frame[17..21].try_into().unwrap()) as usize;
            let base = base.ok_or(DeltaError::BadBase { base: base_id })?;
            if base.len() as u64 != total {
                return Err(DeltaError::BadBase { base: base_id });
            }
            let mut out = base.to_vec();
            let mut p = 21usize;
            for _ in 0..nruns {
                if frame.len() - p < 16 {
                    return Err(DeltaError::Malformed);
                }
                let off = u64::from_le_bytes(frame[p..p + 8].try_into().unwrap());
                let len = u64::from_le_bytes(frame[p + 8..p + 16].try_into().unwrap());
                p += 16;
                // `off` and `len` are whatever the frame claims: measure
                // them against the room that is left instead of adding
                // them up, so no sum can overflow.
                let fits =
                    |start: u64, room: usize| start <= room as u64 && len <= room as u64 - start;
                if !fits(p as u64, frame.len()) || !fits(off, out.len()) {
                    return Err(DeltaError::Malformed);
                }
                let (off, len) = (off as usize, len as usize);
                out[off..off + len].copy_from_slice(&frame[p..p + len]);
                p += len;
            }
            if p != frame.len() {
                return Err(DeltaError::Malformed);
            }
            Ok(out)
        }
        _ => Err(DeltaError::Malformed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-by-byte run finder [`dirty_runs`] replaced, kept as its
    /// oracle.
    fn dirty_runs_bytewise(base: &[u8], cur: &[u8]) -> Vec<(usize, usize)> {
        let mut runs: Vec<(usize, usize)> = Vec::new(); // (offset, len)
        let mut i = 0usize;
        while i < cur.len() {
            if base[i] == cur[i] {
                i += 1;
                continue;
            }
            let start = i;
            let mut end = i + 1; // exclusive end of the dirty run
            let mut clean = 0usize;
            let mut j = i + 1;
            while j < cur.len() {
                if base[j] != cur[j] {
                    end = j + 1;
                    clean = 0;
                } else {
                    clean += 1;
                    if clean >= MIN_GAP {
                        break;
                    }
                }
                j += 1;
            }
            runs.push((start, end - start));
            i = end;
        }
        runs
    }

    /// A blob and an edited copy: `edits` dirty stretches of up to `span`
    /// bytes at arbitrary (unaligned) offsets, some of them no-ops.
    fn edited(len: usize, seed: u64, edits: usize, span: usize) -> (Vec<u8>, Vec<u8>) {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as usize
        };
        let base: Vec<u8> = (0..len).map(|_| next() as u8).collect();
        let mut cur = base.clone();
        for _ in 0..edits {
            let at = next() % len.max(1);
            for b in cur.iter_mut().skip(at).take(1 + next() % span) {
                *b ^= (next() % 3) as u8; // a third of the touches change nothing
            }
        }
        (base, cur)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Word-wise and byte-wise encoders write the same frame: sparse
        /// and dense edits, runs straddling word boundaries, gaps around
        /// MIN_GAP, lengths that are not a multiple of 8.
        #[test]
        fn wordwise_encoder_matches_bytewise_oracle(
            len in 0usize..700,
            seed in any::<u64>(),
            edits in 0usize..40,
            span in 1usize..48,
        ) {
            let (base, cur) = edited(len, seed, edits, span);
            let oracle = dirty_runs_bytewise(&base, &cur);
            prop_assert_eq!(&dirty_runs(&base, &cur), &oracle);
            let frame = encode_delta(&base, &cur, 9);
            let by_oracle = frame_runs(&cur, 9, &oracle).unwrap_or_else(|| encode_full(&cur));
            prop_assert_eq!(&frame, &by_oracle);
            prop_assert_eq!(decode(&frame, Some(&base)).unwrap(), cur);
        }
    }

    #[test]
    fn run_ends_exactly_at_min_gap() {
        // A run whose last dirty byte sits `lead` bytes into its word, then
        // a dirty byte MIN_GAP - 1, MIN_GAP and MIN_GAP + 1 clean bytes
        // later, at every alignment: 15 clean bytes coalesce, 16 split.
        for at in 0..16 {
            for lead in 0..8 {
                for gap in [MIN_GAP - 1, MIN_GAP, MIN_GAP + 1] {
                    let base = vec![0u8; 96];
                    let last = at + lead;
                    let cur = evolved(&base, &[(at, 1), (last, 1), (last + gap + 1, 1)]);
                    let runs = dirty_runs(&base, &cur);
                    let case = format!("at {at} lead {lead} gap {gap}");
                    assert_eq!(runs, dirty_runs_bytewise(&base, &cur), "{case}");
                    assert_eq!(runs.len(), if gap < MIN_GAP { 1 } else { 2 }, "{case}");
                }
            }
        }
    }

    #[test]
    fn full_keyframe_decodes_to_a_view_into_its_frame() {
        let frame = Bytes::from(encode_full(&[5u8; 300]));
        let blob = decode_bytes(&frame, None).unwrap();
        assert_eq!(blob.as_ptr(), frame.slice(1..).as_ptr());
        assert_eq!(&blob[..], &[5u8; 300][..]);
        // A delta frame has to be patched into a buffer of its own.
        let base = vec![0u8; 300];
        let delta = Bytes::from(encode_delta(&base, &evolved(&base, &[(7, 1)]), 2));
        assert!(is_delta(&delta));
        assert_eq!(decode_bytes(&delta, Some(&base)).unwrap()[7], 1);
        assert_eq!(
            decode_bytes(&delta, None),
            Err(DeltaError::BadBase { base: 2 })
        );
    }

    fn evolved(base: &[u8], touches: &[(usize, u8)]) -> Vec<u8> {
        let mut cur = base.to_vec();
        for &(i, v) in touches {
            cur[i] = v;
        }
        cur
    }

    #[test]
    fn full_roundtrip() {
        let blob = vec![7u8; 4096];
        let f = encode_full(&blob);
        assert!(!is_delta(&f));
        assert_eq!(frame_base(&f).unwrap(), None);
        assert_eq!(decode(&f, None).unwrap(), blob);
    }

    #[test]
    fn sparse_change_produces_small_delta() {
        let base: Vec<u8> = (0..16384u32).map(|i| (i % 251) as u8).collect();
        let cur = evolved(&base, &[(10, 0xFF), (5000, 0xAA), (16000, 0x01)]);
        let f = encode_delta(&base, &cur, 42);
        assert!(is_delta(&f));
        assert!(f.len() < base.len() / 10, "delta {} bytes", f.len());
        assert_eq!(frame_base(&f).unwrap(), Some(42));
        assert_eq!(decode(&f, Some(&base)).unwrap(), cur);
    }

    #[test]
    fn nearby_touches_coalesce_into_one_run() {
        let base = vec![0u8; 1024];
        // Two dirty bytes 8 apart (< MIN_GAP): one run, one 16-byte header.
        let cur = evolved(&base, &[(100, 1), (108, 2)]);
        let f = encode_delta(&base, &cur, 1);
        assert!(is_delta(&f));
        // 1 + 20 header + one run: 16 + 9 payload bytes.
        assert_eq!(f.len(), 1 + 20 + 16 + 9);
        assert_eq!(decode(&f, Some(&base)).unwrap(), cur);
    }

    #[test]
    fn dense_change_falls_back_to_full() {
        let base = vec![0u8; 1024];
        let cur = vec![1u8; 1024];
        let f = encode_delta(&base, &cur, 3);
        assert!(!is_delta(&f));
        assert_eq!(decode(&f, None).unwrap(), cur);
    }

    #[test]
    fn try_encode_delta_is_none_exactly_where_encode_delta_writes_a_keyframe() {
        let base = vec![0u8; 1024];
        let sparse = evolved(&base, &[(5, 9)]);
        assert_eq!(
            try_encode_delta(&base, &sparse, 3),
            Some(encode_delta(&base, &sparse, 3))
        );
        assert_eq!(try_encode_delta(&base, &[1u8; 1024], 3), None, "dense");
        assert_eq!(try_encode_delta(&base, &[0u8; 1040], 3), None, "length");
        // What a packer that writes TAG_FULL itself gets is encode_full's frame.
        assert_eq!(encode_full(&sparse)[0], TAG_FULL);
        assert_eq!(encode_full(&sparse)[1..], sparse[..]);
    }

    #[test]
    fn length_change_falls_back_to_full() {
        let base = vec![0u8; 1024];
        let cur = vec![0u8; 1040];
        let f = encode_delta(&base, &cur, 3);
        assert!(!is_delta(&f));
    }

    #[test]
    fn missing_or_wrong_base_rejected() {
        let base = vec![0u8; 1024];
        let cur = evolved(&base, &[(5, 9)]);
        let f = encode_delta(&base, &cur, 7);
        assert_eq!(decode(&f, None), Err(DeltaError::BadBase { base: 7 }));
        let short = vec![0u8; 100];
        assert_eq!(
            decode(&f, Some(&short)),
            Err(DeltaError::BadBase { base: 7 })
        );
    }

    #[test]
    fn garbage_rejected() {
        assert_eq!(decode(&[], None), Err(DeltaError::Malformed));
        assert_eq!(decode(&[9, 9, 9], None), Err(DeltaError::Malformed));
        assert_eq!(frame_base(&[1, 2]), Err(DeltaError::Malformed));
    }

    /// A delta frame against a `total`-byte base with one hand-written run
    /// header and `payload` bytes behind it.
    fn one_run_frame(total: u64, off: u64, len: u64, payload: usize) -> Vec<u8> {
        let mut f = vec![TAG_DELTA];
        f.extend_from_slice(&3u64.to_le_bytes());
        f.extend_from_slice(&total.to_le_bytes());
        f.extend_from_slice(&1u32.to_le_bytes());
        f.extend_from_slice(&off.to_le_bytes());
        f.extend_from_slice(&len.to_le_bytes());
        f.resize(f.len() + payload, 0xAB);
        f
    }

    #[test]
    fn hostile_run_headers_are_malformed_not_a_panic() {
        const TOTAL: u64 = 64;
        let base = vec![0u8; TOTAL as usize];
        let decode = |f: &[u8]| decode(f, Some(&base));
        // `len` past the blob, past the frame, and at the edge of u64.
        for len in [u64::MAX, TOTAL + 1, TOTAL] {
            let f = one_run_frame(TOTAL, 1, len, 8);
            assert_eq!(decode(&f), Err(DeltaError::Malformed), "len {len}");
        }
        // `off` at and past the end of the blob, and where `off + len`
        // wraps to a small number.
        for off in [u64::MAX, TOTAL + 1, TOTAL] {
            let f = one_run_frame(TOTAL, off, 8, 8);
            assert_eq!(decode(&f), Err(DeltaError::Malformed), "off {off}");
        }
        let f = one_run_frame(TOTAL, u64::MAX - 3, 8, 8);
        assert_eq!(decode(&f), Err(DeltaError::Malformed));
        // The edges that are legal: a run filling the whole blob, and an
        // empty run at its very end.
        let f = one_run_frame(TOTAL, 0, TOTAL, TOTAL as usize);
        assert_eq!(decode(&f), Ok(vec![0xAB; TOTAL as usize]));
        assert_eq!(decode(&one_run_frame(TOTAL, TOTAL, 0, 0)), Ok(base.clone()));
        // Truncated: inside the frame header, inside the run header, and
        // short of the payload the run header promises.
        let good = one_run_frame(TOTAL, 4, 8, 8);
        assert_eq!(decode(&good).map(|b| b[4..12].to_vec()), Ok(vec![0xAB; 8]));
        for cut in [20, 21, 30, 36, good.len() - 1] {
            assert_eq!(
                decode(&good[..cut]),
                Err(DeltaError::Malformed),
                "cut {cut}"
            );
        }
        // A base of the wrong length is a base error, whatever `total` says.
        let f = one_run_frame(u64::MAX, 0, 8, 8);
        assert_eq!(decode(&f), Err(DeltaError::BadBase { base: 3 }));
    }

    #[test]
    fn identical_blobs_encode_to_empty_delta() {
        let base: Vec<u8> = (0..4096u32).map(|i| (i * 31 % 256) as u8).collect();
        let f = encode_delta(&base, &base, 5);
        assert!(is_delta(&f));
        assert_eq!(f.len(), 21, "no runs, header only");
        assert_eq!(decode(&f, Some(&base)).unwrap(), base);
    }
}
