//! Property-based tests of the cost model and virtual time.

use hwmodel::cost::amdahl_speedup;
use hwmodel::presets::{deep_er_booster_node, deep_er_cluster_node};
use hwmodel::{CostModel, SimTime, WorkSpec};
use proptest::prelude::*;

fn arb_work() -> impl Strategy<Value = WorkSpec> {
    (
        0.0f64..1e12,
        0.0f64..1e12,
        0.0f64..=1.0,
        0.0f64..=1.0,
        prop::option::of(1u32..256),
    )
        .prop_map(|(flops, bytes, vf, pf, cores)| WorkSpec {
            max_cores: cores,
            ..WorkSpec::named("prop")
                .flops(flops)
                .bytes(bytes)
                .vector_fraction(vf)
                .parallel_fraction(pf)
                .build()
        })
}

proptest! {
    #[test]
    fn cost_is_finite_and_nonnegative(w in arb_work()) {
        let m = CostModel;
        for node in [deep_er_cluster_node(), deep_er_booster_node()] {
            let t = m.time(&node, &w);
            prop_assert!(t.as_secs().is_finite());
            prop_assert!(t.as_secs() >= 0.0);
        }
    }

    #[test]
    fn cost_monotone_in_flops(w in arb_work(), extra in 1.0f64..1e10) {
        let m = CostModel;
        let node = deep_er_cluster_node();
        let mut bigger = w.clone();
        bigger.flops += extra;
        prop_assert!(m.time(&node, &bigger) >= m.time(&node, &w));
    }

    #[test]
    fn cost_monotone_in_bytes(w in arb_work(), extra in 1.0f64..1e10) {
        let m = CostModel;
        let node = deep_er_booster_node();
        let mut bigger = w.clone();
        bigger.bytes += extra;
        prop_assert!(m.time(&node, &bigger) >= m.time(&node, &w));
    }

    #[test]
    fn scaling_work_scales_cost_linearly(w in arb_work(), k in 1.0f64..100.0) {
        // With zero overhead, time(k·w) == k·time(w) when the same roofline
        // side binds; in general it is within [time(w), k·time(w)].
        let m = CostModel;
        let node = deep_er_cluster_node();
        let t1 = m.time(&node, &w).as_secs();
        let tk = m.time(&node, &w.scaled(k)).as_secs();
        prop_assert!(tk <= k * t1 * (1.0 + 1e-9));
        prop_assert!(tk >= t1 * (1.0 - 1e-9));
    }

    #[test]
    fn more_vectorizable_is_never_slower(w in arb_work(), dv in 0.0f64..=1.0) {
        let m = CostModel;
        let node = deep_er_booster_node();
        let mut better = w.clone();
        better.vector_fraction = (w.vector_fraction + dv).min(1.0);
        prop_assert!(m.time(&node, &better) <= m.time(&node, &w) + SimTime::from_nanos(1e-3));
    }

    #[test]
    fn amdahl_bounds(p in 1u32..4096, f in 0.0f64..=1.0) {
        let s = amdahl_speedup(p, f);
        prop_assert!(s >= 1.0 - 1e-12);
        prop_assert!(s <= p as f64 + 1e-9);
    }

    #[test]
    fn simtime_ordering_consistent_with_secs(a in 0.0f64..1e9, b in 0.0f64..1e9) {
        let ta = SimTime::from_secs(a);
        let tb = SimTime::from_secs(b);
        prop_assert_eq!(ta < tb, a < b);
        prop_assert_eq!(ta.max(tb).as_secs(), a.max(b));
        prop_assert_eq!((ta + tb).as_secs(), a + b);
    }

    #[test]
    fn simtime_saturating_sub_never_negative(a in 0.0f64..1e9, b in 0.0f64..1e9) {
        let d = SimTime::from_secs(a).saturating_sub(SimTime::from_secs(b));
        prop_assert!(d.as_secs() >= 0.0);
    }
}
