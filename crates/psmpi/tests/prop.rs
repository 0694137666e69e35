//! Property-based tests of the wire codec and reduction operators.

use bytes::Bytes;
use proptest::prelude::*;
use psmpi::datatype::{bytes_to_pod, pod_to_bytes};
use psmpi::{MpiDatatype, ReduceOp};

fn roundtrip<T: MpiDatatype + PartialEq + std::fmt::Debug + Clone>(x: &T) -> bool {
    T::from_bytes(x.to_bytes())
        .map(|y| y == *x)
        .unwrap_or(false)
}

/// `f64`s drawn from raw bit patterns, with the special values a uniform
/// draw would never hit: payload-carrying NaNs, signed zeros, infinities
/// and subnormals.
fn any_bits_f64() -> impl Strategy<Value = f64> {
    const SPECIAL: [u64; 10] = [
        0x7ff8_0000_0000_0001, // quiet NaN, payload 1
        0xfff8_0000_dead_beef, // negative quiet NaN with a payload
        0x7ff0_0000_0000_0001, // signalling NaN
        0x0000_0000_0000_0000, // +0.0
        0x8000_0000_0000_0000, // -0.0
        0x7ff0_0000_0000_0000, // +inf
        0xfff0_0000_0000_0000, // -inf
        0x0000_0000_0000_0001, // smallest subnormal
        0x800f_ffff_ffff_ffff, // largest negative subnormal
        0x3ff0_0000_0000_0001, // 1 + ulp
    ];
    // Half the draws are raw bit patterns, half come from the table.
    (any::<u64>(), 0..2 * SPECIAL.len())
        .prop_map(|(raw, i)| f64::from_bits(*SPECIAL.get(i).unwrap_or(&raw)))
}

/// The reference combine of two scalars.
fn apply(op: ReduceOp, a: f64, b: f64) -> f64 {
    match op {
        ReduceOp::Sum => a + b,
    }
}

/// The reference fold: [`apply`] element-wise, accumulating into `acc`.
fn apply_slice(op: ReduceOp, acc: &mut [f64], other: &[f64]) {
    assert_eq!(acc.len(), other.len(), "reduce length mismatch");
    for (a, &b) in acc.iter_mut().zip(other) {
        *a = apply(op, *a, b);
    }
}

/// Bit patterns of `v`, every NaN mapped to one pattern. Which payload
/// `NaN ∘ NaN` keeps is the one thing the operand order in the source does
/// not fix: IEEE 754 leaves it open and the compiler treats `+` and `*` as
/// commutative, so an optimized build of `apply_slice` already disagrees
/// with itself between its vector body and its scalar tail.
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter()
        .map(|x| {
            if x.is_nan() {
                f64::NAN.to_bits()
            } else {
                x.to_bits()
            }
        })
        .collect()
}

proptest! {
    #[test]
    fn fused_fold_equals_decode_then_apply(
        len in (0usize..5).prop_map(|i| [0, 1, 7, 8, 4097][i]),
        seed in prop::collection::vec((any_bits_f64(), any_bits_f64()), 64),
    ) {
        // Both blocks cycle through the drawn pairs, so the long lengths
        // keep every special value without 4097 draws per case.
        let ours: Vec<f64> = (0..len).map(|i| seed[i % seed.len()].0).collect();
        let theirs: Vec<f64> = (0..len).map(|i| seed[(i * 7 + 3) % seed.len()].1).collect();
        let wire = pod_to_bytes(&theirs);
        let op = ReduceOp::Sum;
        for acc_first in [true, false] {
            let mut fused = ours.clone();
            op.fold_wire(&mut fused, &wire, acc_first).unwrap();
            // The path the collectives took before the fold existed.
            let mut decoded = bytes_to_pod::<f64>(&wire).unwrap();
            let reference = if acc_first {
                let mut acc = ours.clone();
                apply_slice(op, &mut acc, &decoded);
                acc
            } else {
                apply_slice(op, &mut decoded, &ours);
                decoded
            };
            prop_assert_eq!(bits(&fused), bits(&reference), "{:?}, acc_first {}", op, acc_first);
        }
    }

    #[test]
    fn fused_fold_rejects_wrong_length(n in 0usize..40, extra in 1usize..17, cut in any::<bool>()) {
        let mut acc = vec![1.0f64; n];
        let len = if cut { (n * 8).saturating_sub(extra) } else { n * 8 + extra };
        prop_assume!(len != n * 8);
        let block = vec![0u8; len];
        prop_assert!(ReduceOp::Sum.fold_wire(&mut acc, &block, true).is_err());
        prop_assert!(acc.iter().all(|&x| x == 1.0));
    }

    #[test]
    fn scalars_roundtrip(a in any::<u64>(), b in any::<i32>(), c in any::<f64>().prop_filter("nan", |x| !x.is_nan()), d in any::<bool>()) {
        prop_assert!(roundtrip(&a));
        prop_assert!(roundtrip(&b));
        prop_assert!(roundtrip(&c));
        prop_assert!(roundtrip(&d));
    }

    #[test]
    fn vectors_roundtrip(v in prop::collection::vec(any::<f64>().prop_filter("nan", |x| !x.is_nan()), 0..200)) {
        prop_assert!(roundtrip(&v));
    }

    #[test]
    fn strings_roundtrip(s in ".{0,100}") {
        prop_assert!(roundtrip(&s.to_string()));
    }

    #[test]
    fn nested_roundtrip(v in prop::collection::vec(prop::collection::vec(any::<u32>(), 0..10), 0..10)) {
        prop_assert!(roundtrip(&v));
    }

    #[test]
    fn tuples_and_options_roundtrip(a in any::<u32>(), b in any::<i64>(), o in prop::option::of(any::<u16>())) {
        prop_assert!(roundtrip(&(a, b)));
        prop_assert!(roundtrip(&o));
        prop_assert!(roundtrip(&(a, b, o)));
    }

    #[test]
    fn truncated_buffers_error_not_panic(v in prop::collection::vec(any::<f64>().prop_filter("nan", |x| !x.is_nan()), 1..20), cut in 0usize..50) {
        let full = v.to_bytes();
        let cut = cut.min(full.len().saturating_sub(1));
        let short = full.slice(0..cut);
        // Must return Err (or in rare cases decode a shorter valid prefix
        // is impossible because the length prefix disagrees) — never panic.
        let _ = Vec::<f64>::from_bytes(short);
    }

    #[test]
    fn garbage_bytes_never_panic(raw in prop::collection::vec(any::<u8>(), 0..100)) {
        let b = Bytes::from(raw);
        let _ = Vec::<f64>::from_bytes(b.clone());
        let _ = String::from_bytes(b.clone());
        let _ = Option::<u64>::from_bytes(b.clone());
        let _ = <(u32, f64)>::from_bytes(b);
    }

    #[test]
    fn reduce_ops_match_reference(v in prop::collection::vec(-1e12f64..1e12, 1..50)) {
        let mut acc_sum = v.clone();
        apply_slice(ReduceOp::Sum, &mut acc_sum, &vec![0.0; v.len()]);
        prop_assert_eq!(&acc_sum, &v);
    }
}
