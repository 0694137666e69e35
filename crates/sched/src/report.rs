//! Flatten an [`EngineReport`] into `obs::HostMetrics` for the
//! `sched` bin's `--out` file.
//!
//! Every key is namespaced with the caller's prefix (e.g.
//! `"independent."`, `"node_locked."`) so the two policy runs of the
//! reservation comparison land side by side in one sorted JSON object.
//! All values derive from virtual-time quantities — the artifact body is
//! byte-identical across hosts and thread counts.

use crate::engine::EngineReport;
use obs::{percentile, HostMetrics};

/// Deposit the scheduler-level metrics of `r` into `m`, each key
/// prefixed with `prefix`.
///
/// Keys written: `makespan_s`, `jobs_completed`, `starts`,
/// `backfill_starts`, `backfill_fraction`, `requeues`, `faults`,
/// `repairs`, `expands`, `shrinks`, `cn_utilization`, `bn_utilization`,
/// `wait_mean_s`, `wait_p50_s`, `wait_p95_s`, `wait_p99_s`,
/// `wait_max_s`.
pub fn report_metrics(r: &EngineReport, prefix: &str, m: &mut HostMetrics) {
    let key = |name: &str| format!("{prefix}{name}");
    m.set(&key("makespan_s"), r.makespan.as_secs());
    m.set(&key("jobs_completed"), r.completed as f64);
    m.set(&key("starts"), r.starts as f64);
    m.set(&key("backfill_starts"), r.backfill_starts as f64);
    m.set(
        &key("backfill_fraction"),
        if r.starts > 0 {
            r.backfill_starts as f64 / r.starts as f64
        } else {
            0.0
        },
    );
    m.set(&key("requeues"), r.requeues as f64);
    m.set(&key("faults"), r.faults as f64);
    m.set(&key("repairs"), r.repairs as f64);
    m.set(&key("expands"), r.expands as f64);
    m.set(&key("shrinks"), r.shrinks as f64);
    m.set(&key("cn_utilization"), r.cluster_utilization);
    m.set(&key("bn_utilization"), r.booster_utilization);

    let mut waits: Vec<f64> = r.waits.iter().map(|w| w.as_secs()).collect();
    waits.sort_by(|a, b| a.partial_cmp(b).expect("finite waits"));
    if waits.is_empty() {
        for k in [
            "wait_mean_s",
            "wait_p50_s",
            "wait_p95_s",
            "wait_p99_s",
            "wait_max_s",
        ] {
            m.set(&key(k), 0.0);
        }
    } else {
        let mean = waits.iter().sum::<f64>() / waits.len() as f64;
        m.set(&key("wait_mean_s"), mean);
        m.set(&key("wait_p50_s"), percentile(&waits, 0.50));
        m.set(&key("wait_p95_s"), percentile(&waits, 0.95));
        m.set(&key("wait_p99_s"), percentile(&waits, 0.99));
        m.set(&key("wait_max_s"), *waits.last().expect("nonempty"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineReport;
    use hwmodel::SimTime;

    fn report_with_waits(waits: &[f64]) -> EngineReport {
        EngineReport {
            makespan: SimTime::from_secs(100.0),
            waits: waits.iter().map(|&w| SimTime::from_secs(w)).collect(),
            cluster_utilization: 0.5,
            booster_utilization: 0.25,
            completed: waits.len(),
            starts: waits.len(),
            backfill_starts: 1,
            requeues: 0,
            faults: 0,
            repairs: 0,
            expands: 0,
            shrinks: 0,
            events: Vec::new(),
            reservations: Vec::new(),
        }
    }

    #[test]
    fn metrics_are_prefixed_and_percentiles_nearest_rank() {
        let r = report_with_waits(&[4.0, 1.0, 3.0, 2.0]);
        let mut m = HostMetrics::new();
        report_metrics(&r, "independent.", &mut m);
        assert_eq!(m.get("independent.makespan_s"), Some(100.0));
        assert_eq!(m.get("independent.jobs_completed"), Some(4.0));
        assert_eq!(m.get("independent.wait_p50_s"), Some(2.0));
        assert_eq!(m.get("independent.wait_p99_s"), Some(4.0));
        assert_eq!(m.get("independent.wait_mean_s"), Some(2.5));
        assert_eq!(m.get("independent.backfill_fraction"), Some(0.25));
        // No unprefixed leakage.
        assert_eq!(m.get("makespan_s"), None);
    }

    #[test]
    fn empty_waits_report_zeroes_not_panics() {
        let r = report_with_waits(&[]);
        let mut m = HostMetrics::new();
        report_metrics(&r, "x.", &mut m);
        assert_eq!(m.get("x.wait_p99_s"), Some(0.0));
        assert_eq!(m.get("x.backfill_fraction"), Some(0.0));
    }
}
