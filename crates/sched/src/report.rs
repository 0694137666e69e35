//! Two renderings of an [`EngineReport`]: flattened into
//! `obs::HostMetrics` for the `sched` bin's `--out` file, and as a Chrome
//! trace with one track per job for its `--trace-out` file.
//!
//! Every metric key is namespaced with the caller's prefix (e.g.
//! `"independent."`, `"node_locked."`) so the two policy runs of the
//! reservation comparison land side by side in one sorted JSON object.
//! All values derive from virtual-time quantities — both artifacts are
//! byte-identical across hosts and thread counts.

use crate::engine::{EngineEvent, EngineReport};
use crate::workload::TraceJob;
use hwmodel::SimTime;
use obs::export::json_escape;
use obs::{percentile, HostMetrics};
use std::collections::BTreeMap;

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

/// What a job's track holds while the log is replayed.
#[derive(Default)]
struct Track {
    /// The span not yet closed: its name, start and Booster nodes.
    open: Option<(&'static str, SimTime, usize)>,
    /// Finished trace events of this track.
    lines: Vec<String>,
}

impl Track {
    /// Close the open span at `t` and open `next` (a name and a Booster
    /// count), if any. A span of no length is not drawn.
    fn turn(&mut self, id: u64, t: SimTime, next: Option<(&'static str, usize)>) {
        if let Some((name, since, bn)) = self.open.take().filter(|&(_, since, _)| t > since) {
            self.lines.push(format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{id},\"name\":\"{name}\",\"ts\":{},\"dur\":{},\"args\":{{\"bn\":{bn}}}}}",
                us(since),
                us(t.saturating_sub(since))
            ));
        }
        self.open = next.map(|(name, bn)| (name, t, bn));
    }
}

/// Fixed-precision microseconds, as `obs` traces print them; `null` for
/// the unbounded shadow of a head nothing running will make room for.
fn us(t: SimTime) -> String {
    let us = t.as_secs() * 1e6;
    if us.is_finite() {
        format!("{us:.3}")
    } else {
        "null".to_owned()
    }
}

/// Render the event log of `r` as Chrome `trace_event` JSON (load in
/// Perfetto): one track per job of `trace`, named after it, holding its
/// `queued` and `running` spans — a `running` span is split wherever the
/// job grew or shrank and carries its Booster count as `args.bn`, and ends
/// at the completion or at the fault that killed the job — and an instant
/// for every head reservation made for it; faults and repairs are instants
/// on a machine track. Virtual time only, tracks in id order: the same
/// report renders to the same bytes.
pub fn chrome_trace(r: &EngineReport, trace: &[TraceJob]) -> String {
    let mut tracks: BTreeMap<u64, Track> = BTreeMap::new();
    let mut out = vec![
        "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"machine\"}}"
            .to_owned(),
        "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"jobs\"}}"
            .to_owned(),
    ];
    for j in trace {
        tracks.entry(j.id).or_default().lines.push(format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
            j.id,
            json_escape(&j.name())
        ));
    }
    let mut turn = |id: u64, t: SimTime, next| tracks.entry(id).or_default().turn(id, t, next);
    for e in &r.events {
        match *e {
            EngineEvent::Arrival { t, id } | EngineEvent::Requeue { t, id, .. } => {
                turn(id, t, Some(("queued", 0)))
            }
            EngineEvent::Start { t, id, bn, .. }
            | EngineEvent::Expand { t, id, bn }
            | EngineEvent::Shrink { t, id, bn } => turn(id, t, Some(("running", bn))),
            EngineEvent::Complete { t, id } => turn(id, t, None),
            EngineEvent::Fault { t, node, victim } => {
                if let Some(id) = victim {
                    turn(id, t, None);
                }
                out.push(format!(
                    "{{\"ph\":\"i\",\"s\":\"p\",\"pid\":0,\"tid\":0,\"name\":\"fault\",\"ts\":{},\"args\":{{\"node\":{},\"victim\":{}}}}}",
                    us(t),
                    node.0,
                    victim.map_or("null".to_owned(), |id| id.to_string())
                ));
            }
            EngineEvent::Repair { t, node } => out.push(format!(
                "{{\"ph\":\"i\",\"s\":\"p\",\"pid\":0,\"tid\":0,\"name\":\"repair\",\"ts\":{},\"args\":{{\"node\":{}}}}}",
                us(t),
                node.0
            )),
        }
    }
    for h in &r.reservations {
        tracks.entry(h.id).or_default().lines.push(format!(
            "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"name\":\"head reservation\",\"ts\":{},\"args\":{{\"shadow_us\":{}}}}}",
            h.id,
            us(h.t),
            us(h.shadow)
        ));
    }
    out.extend(tracks.into_values().flat_map(|t| t.lines));
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        out.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig, EngineReport};
    use cluster_booster::SystemBuilder;
    use simnet::FaultPlan;

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

    fn rigid(id: u64, cn: usize, bn: usize, dur: f64, submit: f64) -> TraceJob {
        let s = SimTime::from_secs;
        TraceJob::rigid(id, format!("j{id}"), cn, bn, s(dur), s(submit))
    }

    fn run(cn: u32, bn: u32, trace: &[TraceJob], faults: &FaultPlan) -> EngineReport {
        let sys = SystemBuilder::new("t")
            .cluster_nodes(cn)
            .booster_nodes(bn)
            .build();
        let cfg = EngineConfig {
            repair_after: Some(SimTime::from_secs(50.0)),
            ..EngineConfig::default()
        };
        Engine::new(sys, cfg).run(trace, faults)
    }

    #[test]
    fn chrome_trace_draws_a_backfill_inside_the_heads_wait() {
        // "A blocked head lets a short job backfill": job 0 holds the
        // Cluster to t = 100, job 1 waits for it from t = 1, job 2 slips
        // onto the Booster at t = 2.
        let trace = [
            rigid(0, 16, 0, 100.0, 0.0),
            rigid(1, 16, 0, 10.0, 1.0),
            rigid(2, 0, 2, 5.0, 2.0),
        ];
        let r = run(16, 8, &trace, &FaultPlan::new());
        let json = chrome_trace(&r, &trace);
        assert_eq!(json, chrome_trace(&r, &trace));
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{"));
        assert!(json.ends_with("}\n]}\n"));
        assert_eq!(json.matches("\"thread_name\"").count(), 3);
        // Job 2 runs 2 s..7 s, inside job 1's queued span 1 s..100 s; a job
        // that never waited has no queued span.
        let spans: Vec<&str> = json
            .lines()
            .filter(|l| l.contains("\"ph\":\"X\""))
            .collect();
        assert_eq!(
            spans,
            [
                "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"name\":\"running\",\"ts\":0.000,\"dur\":100000000.000,\"args\":{\"bn\":0}},",
                "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"queued\",\"ts\":1000000.000,\"dur\":99000000.000,\"args\":{\"bn\":0}},",
                "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"running\",\"ts\":100000000.000,\"dur\":10000000.000,\"args\":{\"bn\":0}},",
                "{\"ph\":\"X\",\"pid\":1,\"tid\":2,\"name\":\"running\",\"ts\":2000000.000,\"dur\":5000000.000,\"args\":{\"bn\":2}}",
            ]
        );
        // The head's promise, on its own track, once per reservation made.
        let promise = "\"tid\":1,\"name\":\"head reservation\",\"ts\":1000000.000,\"args\":{\"shadow_us\":100000000.000}";
        assert!(json.contains(promise), "{json}");
        assert_eq!(
            json.matches("head reservation").count(),
            r.reservations.len()
        );
    }

    #[test]
    fn chrome_trace_splits_a_run_where_it_grew_and_ends_it_at_the_fault() {
        // A 2..8-node job alone on 8 Booster nodes loses the highest at
        // t = 10 and gets it back at t = 60.
        let last = hwmodel::NodeId(8);
        let a = TraceJob {
            bn_min: 2,
            ..rigid(0, 1, 8, 1000.0, 0.0)
        };
        let faults = FaultPlan::from_node_faults([(SimTime::from_secs(10.0), last)]);
        let r = run(1, 8, std::slice::from_ref(&a), &faults);
        let json = chrome_trace(&r, &[a]);
        for line in [
            "\"name\":\"running\",\"ts\":0.000,\"dur\":10000000.000,\"args\":{\"bn\":8}",
            "\"name\":\"running\",\"ts\":10000000.000,\"dur\":50000000.000,\"args\":{\"bn\":7}",
            "\"name\":\"running\",\"ts\":60000000.000,",
            "\"pid\":0,\"tid\":0,\"name\":\"fault\",\"ts\":10000000.000,\"args\":{\"node\":8,\"victim\":0}",
            "\"pid\":0,\"tid\":0,\"name\":\"repair\",\"ts\":60000000.000,\"args\":{\"node\":8}",
        ] {
            assert!(json.contains(line), "{line} not in {json}");
        }
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
    }

    #[test]
    fn a_generated_traces_tracks_carry_the_names_it_used_to_store() {
        use crate::workload::{generate, JobClass, WorkloadConfig};
        let trace = generate(&WorkloadConfig::bursty(5, 40, 8, 16));
        let r = run(16, 32, &trace, &FaultPlan::new());
        // The same jobs, each carrying the `class-id` string that the
        // generator formatted per job before names were derived.
        let named: Vec<TraceJob> = (trace.iter())
            .map(|j| {
                let class = match j.class {
                    JobClass::ClusterHeavy => "cluster",
                    JobClass::BoosterHeavy => "booster",
                    JobClass::Combined => "combined",
                };
                TraceJob {
                    label: Some(format!("{class}-{}", j.id)),
                    ..j.clone()
                }
            })
            .collect();
        let json = chrome_trace(&r, &trace);
        assert_eq!(json, chrome_trace(&r, &named));
        for j in &named {
            let track = format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
                j.id,
                j.label.as_deref().unwrap()
            );
            assert!(json.contains(&track), "{track} not in {json}");
        }
    }
}
