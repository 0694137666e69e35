//! Property tests pinning the POD bulk codec to the generic per-element
//! path: for every supported element type the two must produce
//! byte-identical encodings, and the roundtrip must be lossless — including
//! empty vectors and odd lengths. The write kernel
//! (`FixedWidth::write_slice_le`) is pinned on its own, over a buffer
//! pre-filled with a marker so a byte it failed to write would show.

use bytes::{BufMut, Bytes, BytesMut};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use psmpi::{FixedWidth, MpiDatatype};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What a staged wire buffer may hold before the kernel writes it.
const STALE: u8 = 0xAA;

/// The pre-fast-path `Vec<T>` encoding: u64 LE length prefix followed by
/// each element's scalar `encode`, one dispatch per element. The bulk path
/// must reproduce this byte for byte.
fn generic_encode<T: MpiDatatype>(v: &[T]) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u64_le(v.len() as u64);
    for x in v {
        x.encode(&mut buf);
    }
    buf.freeze()
}

fn assert_pod_matches_generic<T>(v: Vec<T>) -> Result<(), TestCaseError>
where
    T: MpiDatatype + Clone + PartialEq + std::fmt::Debug,
{
    let fast = v.to_bytes();
    let reference = generic_encode(&v);
    prop_assert_eq!(
        &fast[..],
        &reference[..],
        "bulk and per-element encodings differ"
    );
    let back = Vec::<T>::from_bytes(fast).expect("roundtrip decodes");
    prop_assert_eq!(back, v);
    Ok(())
}

/// `write_slice_le` over a buffer of stale bytes must leave exactly the
/// per-element `encode` of `v`.
fn assert_kernel_matches_encode<T: FixedWidth>(v: &[T]) -> Result<(), TestCaseError> {
    let mut out = vec![STALE; v.len() * T::WIDTH];
    T::write_slice_le(v, &mut out);
    let mut reference = BytesMut::new();
    for x in v {
        x.encode(&mut reference);
    }
    prop_assert_eq!(
        &out[..],
        &reference[..],
        "kernel and per-element encodings differ"
    );
    Ok(())
}

macro_rules! kernel_equivalence {
    ($($test:ident: $t:ty),* $(,)?) => {
        proptest! {
            $(
                #[test]
                fn $test(v in prop::collection::vec(any::<$t>(), 0..3000)) {
                    assert_kernel_matches_encode::<$t>(&v)?;
                }
            )*
        }
    };
}

kernel_equivalence! {
    kernel_matches_encode_u8: u8,
    kernel_matches_encode_u16: u16,
    kernel_matches_encode_u32: u32,
    kernel_matches_encode_u64: u64,
    kernel_matches_encode_i8: i8,
    kernel_matches_encode_i16: i16,
    kernel_matches_encode_i32: i32,
    kernel_matches_encode_i64: i64,
    kernel_matches_encode_f32: f32,
    kernel_matches_encode_f64: f64,
}

/// `n` values of `T` whose images are a byte pattern with no `STALE` byte.
fn patterned<T: FixedWidth>(n: usize) -> Vec<T> {
    (0..n)
        .map(|i| {
            let image: Vec<u8> = (0..T::WIDTH)
                .map(|b| ((i * 7 + b * 13) % 0xA0) as u8)
                .collect();
            T::get_le(&image)
        })
        .collect()
}

/// The kernel at the seams: empty, one element, and around 8 KiB of `f64`.
/// A buffer one byte or one element off panics and keeps every stale byte.
fn kernel_seams<T: FixedWidth>() {
    for n in [0usize, 1, 1023, 1024, 1025] {
        assert_kernel_matches_encode(&patterned::<T>(n)).expect("kernel matches encode");
    }
    let items = patterned::<T>(5);
    let exact = items.len() * T::WIDTH;
    for len in [0, exact - 1, exact + 1, exact - T::WIDTH, exact + T::WIDTH] {
        let mut out = vec![STALE; len];
        let wrote = catch_unwind(AssertUnwindSafe(|| T::write_slice_le(&items, &mut out)));
        assert!(
            wrote.is_err(),
            "a {len}-byte buffer for {exact} bytes must panic"
        );
        assert!(
            out.iter().all(|&b| b == STALE),
            "a refused write touched the buffer"
        );
    }
}

#[test]
fn kernel_seams_match_encode_on_every_width() {
    kernel_seams::<u8>();
    kernel_seams::<u16>();
    kernel_seams::<u32>();
    kernel_seams::<u64>();
    kernel_seams::<i8>();
    kernel_seams::<i16>();
    kernel_seams::<i32>();
    kernel_seams::<i64>();
    kernel_seams::<f32>();
    kernel_seams::<f64>();
}

macro_rules! pod_equivalence {
    ($($test:ident: $t:ty),* $(,)?) => {
        proptest! {
            $(
                #[test]
                fn $test(v in prop::collection::vec(any::<$t>(), 0..3000)) {
                    assert_pod_matches_generic::<$t>(v)?;
                }
            )*
        }
    };
}

pod_equivalence! {
    pod_matches_generic_u8: u8,
    pod_matches_generic_u16: u16,
    pod_matches_generic_u32: u32,
    pod_matches_generic_u64: u64,
    pod_matches_generic_i8: i8,
    pod_matches_generic_i16: i16,
    pod_matches_generic_i32: i32,
    pod_matches_generic_i64: i64,
}

proptest! {
    // Floats separately: compare decoded values by bit pattern so NaN and
    // subnormal payloads count as lossless rather than being filtered out.
    #[test]
    fn pod_matches_generic_f32(v in prop::collection::vec(any::<f32>(), 0..3000)) {
        let fast = v.to_bytes();
        prop_assert_eq!(&fast[..], &generic_encode(&v)[..]);
        let back = Vec::<f32>::from_bytes(fast).expect("roundtrip decodes");
        let back_bits: Vec<u32> = back.iter().map(|x| x.to_bits()).collect();
        let v_bits: Vec<u32> = v.iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(back_bits, v_bits);
    }

    #[test]
    fn pod_matches_generic_f64(v in prop::collection::vec(any::<f64>(), 0..3000)) {
        let fast = v.to_bytes();
        prop_assert_eq!(&fast[..], &generic_encode(&v)[..]);
        let back = Vec::<f64>::from_bytes(fast).expect("roundtrip decodes");
        let back_bits: Vec<u64> = back.iter().map(|x| x.to_bits()).collect();
        let v_bits: Vec<u64> = v.iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(back_bits, v_bits);
    }
}

#[test]
fn boundary_lengths_match_generic() {
    // Deterministic spot checks at the seams the proptest might not hit:
    // empty, one element, odd lengths, and around 8 KiB of `f64` (the
    // `ring_latency` message).
    for n in [0usize, 1, 3, 7, 1023, 1024, 1025, 2048, 4097] {
        let v: Vec<f64> = (0..n).map(|i| (i as f64) * 0.75 - 3.0).collect();
        assert_eq!(&v.to_bytes()[..], &generic_encode(&v)[..], "len {n}");
        let u: Vec<u16> = (0..n).map(|i| (i * 31) as u16).collect();
        assert_eq!(&u.to_bytes()[..], &generic_encode(&u)[..], "len {n}");
    }
}
