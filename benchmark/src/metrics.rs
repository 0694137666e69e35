//! The benchmark's metric table: every name it may print, with unit,
//! direction, and the workloads that measure it. `BENCHMARK.json` is
//! generated from this table (`--print-benchmark-json`) and a test keeps
//! the committed file equal to it.

use crate::fidelity;
use std::collections::BTreeMap;
use std::sync::OnceLock;

pub const RING: &str = "ring_latency";
pub const BULK: &str = "bulk_collectives";
pub const FIG7: &str = "xpic_fig7";
pub const CKPT: &str = "xpic_ckpt";
pub const SCHED: &str = "sched_trace";

/// Every workload, in run order.
pub const ALL: &[&str] = &[RING, BULK, FIG7, CKPT, SCHED];
/// The workloads whose jobs exchange messages.
const MESSAGING: &[&str] = &[RING, BULK, FIG7, CKPT];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric the benchmark can report.
#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// A virtual-time result or a count: the same seed gives the same
    /// value on every repetition, in every pass, on every host.
    pub exact: bool,
    /// The workloads that measure it. On the others the driver-facing
    /// result line carries 0 for it.
    pub workloads: &'static [&'static str],
}

use Better::{Higher, Lower};

const fn host(
    name: &'static str,
    unit: &'static str,
    better: Better,
    workloads: &'static [&'static str],
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
        workloads,
    }
}

const fn exact(
    name: &'static str,
    unit: &'static str,
    workloads: &'static [&'static str],
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Lower,
        bound: None,
        exact: true,
        workloads,
    }
}

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact,
        workloads: ALL,
    }
}

/// What a user of the simulator sees. Every workload reports every one.
pub const END_TO_END: &[MetricDef] = &[
    end_to_end("ops_per_s", "1/s", Higher, 0.25, false),
    end_to_end("setup_s", "s", Lower, 0.25, false),
    // The contract has no "exact" bound; a virtual-time result repeats to
    // the bit, so 1 % lets nothing real through.
    end_to_end("fidelity_max_rel_err", "frac", Lower, 0.01, true),
    end_to_end("fidelity_mean_rel_err", "frac", Lower, 0.01, true),
];

/// Per-layer metrics other than the `fidelity.<row>` ones, which come
/// from `paper_reference.toml`.
const PER_LAYER_FIXED: &[MetricDef] = &[
    // hwmodel
    host("hwmodel.cost_eval_ns", "ns", Lower, &[FIG7]),
    // simnet
    host("simnet.transfer_time_ns", "ns", Lower, &[RING]),
    host("simnet.build_us_per_node", "us", Lower, &[RING]),
    host("simnet.max_min_shares_us", "us", Lower, &[SCHED]),
    host("simnet.self_s", "s", Lower, &[RING, BULK]),
    // psmpi
    host("psmpi.launch_us_per_rank", "us", Lower, &[RING]),
    host("psmpi.send_slice_ns_p50", "ns", Lower, &[RING]),
    host("psmpi.send_slice_ns_p99", "ns", Lower, &[RING]),
    host("psmpi.recv_into_ns_p50", "ns", Lower, &[RING]),
    host("psmpi.recv_into_ns_p99", "ns", Lower, &[RING]),
    host("psmpi.round_ns_p50", "ns", Lower, &[RING]),
    host("psmpi.round_ns_p99", "ns", Lower, &[RING]),
    host("psmpi.round_residual_frac", "frac", Lower, &[RING]),
    host("psmpi.pool_get_put_ns", "ns", Lower, &[RING]),
    host("psmpi.pool_hit_rate", "frac", Higher, &[RING, BULK]),
    host("psmpi.pool_misses", "count", Lower, &[RING, BULK]),
    host("psmpi.pool_reclaim_failures", "count", Lower, &[RING, BULK]),
    host("psmpi.codec_encode_mb_per_s", "MB/s", Higher, &[BULK]),
    host("psmpi.codec_decode_mb_per_s", "MB/s", Higher, &[BULK]),
    host("psmpi.p2p_typed_ms", "ms", Lower, &[BULK]),
    host("psmpi.p2p_typed_nb_ms", "ms", Lower, &[BULK]),
    host("psmpi.p2p_bytes_ms", "ms", Lower, &[BULK]),
    host("psmpi.typed_bytes_ratio", "ratio", Lower, &[BULK]),
    host("psmpi.blocking_nonblocking_ratio", "ratio", Lower, &[BULK]),
    host("psmpi.bcast_ms", "ms", Lower, &[BULK]),
    host("psmpi.allreduce_ms", "ms", Lower, &[BULK]),
    host("psmpi.comm_spawn_us", "us", Lower, &[CKPT]),
    exact("psmpi.msgs_sent", "count", MESSAGING),
    exact("psmpi.bytes_sent", "B", MESSAGING),
    host("psmpi.self_s", "s", Lower, &[RING, BULK]),
    // core
    host("core.launcher_new_us", "us", Lower, &[FIG7]),
    host("core.launch_empty_us", "us", Lower, &[FIG7]),
    host("core.alloc_release_ns", "ns", Lower, &[SCHED]),
    host("core.self_s", "s", Lower, &[FIG7, CKPT, SCHED]),
    // xpic
    host("xpic.run_mode_s.cluster", "s", Lower, &[FIG7]),
    host("xpic.run_mode_s.booster", "s", Lower, &[FIG7]),
    host("xpic.run_mode_s.cb", "s", Lower, &[FIG7]),
    host("xpic.mover_mpart_per_s", "Mpart/s", Higher, &[FIG7]),
    host("xpic.deposit_mpart_per_s", "Mpart/s", Higher, &[FIG7]),
    host("xpic.mover_par_overhead_frac", "frac", Lower, &[FIG7]),
    host("xpic.kernel_share_frac", "frac", Higher, &[FIG7]),
    exact("xpic.cg_iters", "count", &[FIG7]),
    host("xpic.pack_state_mb_per_s", "MB/s", Higher, &[CKPT]),
    host("xpic.unpack_state_mb_per_s", "MB/s", Higher, &[CKPT]),
    host("xpic.run_resilient_s.sync", "s", Lower, &[CKPT]),
    host("xpic.run_resilient_s.async", "s", Lower, &[CKPT]),
    host("xpic.run_resilient_s.delta", "s", Lower, &[CKPT]),
    host("xpic.self_s", "s", Lower, &[FIG7, CKPT]),
    // scr
    host("scr.checkpoint_ms", "ms", Lower, &[CKPT]),
    host("scr.restart_ms", "ms", Lower, &[CKPT]),
    host("scr.delta_encode_mb_per_s", "MB/s", Higher, &[CKPT]),
    host("scr.delta_decode_mb_per_s", "MB/s", Higher, &[CKPT]),
    exact("scr.delta_wire_ratio", "ratio", &[CKPT]),
    exact("scr.ckpts_taken", "count", &[CKPT]),
    exact("scr.recoveries", "count", &[CKPT]),
    exact("scr.resume_step", "count", &[CKPT]),
    host("scr.fault_plan_us", "us", Lower, &[SCHED]),
    host("scr.self_s", "s", Lower, &[CKPT, SCHED]),
    // sched
    host("sched.generate_jobs_per_s", "1/s", Higher, &[SCHED]),
    host("sched.engine_run_s.independent", "s", Lower, &[SCHED]),
    host("sched.engine_run_s.node_locked", "s", Lower, &[SCHED]),
    host("sched.events_per_s", "1/s", Higher, &[SCHED]),
    host("sched.report_ms", "ms", Lower, &[SCHED]),
    exact("sched.events", "count", &[SCHED]),
    exact("sched.backfills", "count", &[SCHED]),
    exact("sched.requeues", "count", &[SCHED]),
    exact("sched.reservation_violations", "count", &[SCHED]),
    host("sched.self_s", "s", Lower, &[SCHED]),
    // obs
    host("obs.attach_overhead_frac", "frac", Lower, &[FIG7]),
    host("obs.profile_us_per_kspan", "us", Lower, &[FIG7]),
    host("obs.critical_path_us_per_kspan", "us", Lower, &[FIG7]),
    host("obs.chrome_json_mb_per_s", "MB/s", Higher, &[FIG7]),
    // virtual: what the model says. A host-speed change leaves every one
    // bit-identical.
    exact("virtual.xpic_total_s.cluster", "s", &[FIG7]),
    exact("virtual.xpic_total_s.booster", "s", &[FIG7]),
    exact("virtual.xpic_total_s.cb", "s", &[FIG7]),
    exact("virtual.field_s.cluster", "s", &[FIG7]),
    exact("virtual.field_s.booster", "s", &[FIG7]),
    exact("virtual.field_s.cb", "s", &[FIG7]),
    exact("virtual.particle_s.cluster", "s", &[FIG7]),
    exact("virtual.particle_s.booster", "s", &[FIG7]),
    exact("virtual.particle_s.cb", "s", &[FIG7]),
    exact("virtual.coupling_frac", "frac", &[FIG7]),
    exact("virtual.compute_s", "s", &[FIG7]),
    exact("virtual.wire_s", "s", &[FIG7]),
    exact("virtual.wait_s", "s", &[FIG7]),
    exact("virtual.unphased_frac", "frac", &[FIG7]),
    exact("virtual.ckpt_block_s.sync", "s", &[CKPT]),
    exact("virtual.ckpt_block_s.async", "s", &[CKPT]),
    exact("virtual.ckpt_block_s.delta", "s", &[CKPT]),
    exact("virtual.ckpt_makespan_s.sync", "s", &[CKPT]),
    exact("virtual.ckpt_makespan_s.async", "s", &[CKPT]),
    exact("virtual.ckpt_makespan_s.delta", "s", &[CKPT]),
    exact("virtual.sched_makespan_h.independent", "h", &[SCHED]),
    exact("virtual.sched_makespan_h.node_locked", "h", &[SCHED]),
    exact("virtual.sched_p99_wait_s", "s", &[SCHED]),
    exact("virtual.sched_makespan_ratio", "ratio", &[SCHED]),
    exact("virtual.ring_makespan_s", "s", &[RING]),
    exact("virtual.bulk_makespan_s", "s", &[BULK]),
    // the process and the harness
    host("host.peak_rss_mb", "MiB", Lower, ALL),
    host("host.cpu_user_s", "s", Lower, ALL),
    host("host.cpu_sys_s", "s", Lower, ALL),
    host("bench.rep_iqr_frac", "frac", Lower, ALL),
    host("bench.trace_overhead_frac", "frac", Lower, ALL),
    host("bench.figures_wall_s", "s", Lower, ALL),
    host("bench.self_s", "s", Lower, ALL),
];

/// Every per-layer metric: the fixed table plus one `fidelity.<row>` per
/// reference row (the row's relative error, on every workload).
pub fn per_layer() -> &'static [MetricDef] {
    static DEFS: OnceLock<Vec<MetricDef>> = OnceLock::new();
    DEFS.get_or_init(|| {
        let mut defs = PER_LAYER_FIXED.to_vec();
        defs.extend(fidelity::references().iter().map(|row| {
            let name: &'static str = Box::leak(format!("fidelity.{}", row.name).into_boxed_str());
            exact(name, "frac", ALL)
        }));
        defs
    })
}

/// Look a metric up by name in both tables.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(per_layer())
        .find(|d| d.name == name)
}

/// The metrics one run measured, by name. Setting a name the table does
/// not hold, one this workload does not measure, or the same name twice
/// is a bug in the benchmark and panics.
#[derive(Debug)]
pub struct Metrics {
    workload: &'static str,
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn new(workload: &'static str) -> Self {
        Metrics {
            workload,
            values: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let def = lookup(name).unwrap_or_else(|| panic!("metric {name} is not in the table"));
        assert!(
            def.workloads.contains(&self.workload),
            "{name} is not a metric of {}",
            self.workload
        );
        assert!(value.is_finite(), "{name} measured the non-finite {value}");
        let previous = self.values.insert(def.name, value);
        assert!(previous.is_none(), "{name} was measured twice");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.values.iter().map(|(k, v)| (*k, *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn the_tables_stay_inside_the_contracts_limits() {
        assert!((2..=8).contains(&ALL.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!(
            (1..=128).contains(&per_layer().len()),
            "{} per-layer metrics",
            per_layer().len()
        );
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(per_layer()) {
            assert!(valid_name(d.name), "bad metric name {:?}", d.name);
            assert!(valid_unit(d.unit), "bad unit {:?} on {}", d.unit, d.name);
            assert!(seen.insert(d.name), "{} is defined twice", d.name);
            assert!(!d.workloads.is_empty(), "{} has no workload", d.name);
            for w in d.workloads {
                assert!(ALL.contains(w), "{} names unknown workload {w}", d.name);
            }
        }
        for w in ALL {
            assert!(valid_name(w) && seen.insert(w), "workload name {w}");
        }
        for d in END_TO_END {
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", d.name);
        }
        let setup = lookup("setup_s").expect("the contract requires setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the widest bound");
    }

    #[test]
    #[should_panic(expected = "measured twice")]
    fn a_metric_cannot_be_set_twice() {
        let mut m = Metrics::new(RING);
        m.set("virtual.ring_makespan_s", 1.0);
        m.set("virtual.ring_makespan_s", 1.0);
    }

    #[test]
    #[should_panic(expected = "is not a metric of")]
    fn a_metric_cannot_be_set_on_a_workload_that_does_not_measure_it() {
        Metrics::new(SCHED).set("virtual.ring_makespan_s", 1.0);
    }
}
