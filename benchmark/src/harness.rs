//! Runs one workload in this process and reports it.
//!
//! A run is a warm-up repetition, then repetitions until the measuring
//! time is used up. Every repetition builds its system from scratch, so
//! each yields one set-up time and one throughput; the run reports their
//! medians. The plain pass (`--trace 0`) gives the end-to-end metrics.
//! The traced pass (`--trace 1`) repeats some plain repetitions, then
//! records spans around the calls into each layer, runs the workload's
//! stand-alone probes and gives the per-layer metrics.

use crate::fidelity::{self, Fidelity};
use crate::metrics::{self, MetricDef, Metrics, END_TO_END};
use crate::{json, procfs, stats, trace};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Repetitions a plain pass makes at least, however long they take.
const MIN_REPS: usize = 7;
/// Repetitions of each kind (plain, traced) the traced pass makes at
/// least.
const MIN_TRACED_REPS: usize = 3;
/// Share of the traced pass's measuring time given to each kind of
/// repetition; the probes get the rest.
const TRACED_SHARE: f64 = 0.4;

/// What a run was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Derives every input: xPic seed, job trace, fault plans, payloads.
    pub seed: u64,
    /// Host seconds to measure for.
    pub seconds: f64,
    /// Tiny shapes and two repetitions: the smoke test's setting.
    pub quick: bool,
    /// Self-test: corrupt one payload per repetition, which the workload's
    /// own output check must count as a failed operation.
    pub inject_corruption: bool,
    /// Where trace files go.
    pub out_dir: PathBuf,
}

/// One repetition's outcome.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Host seconds from the repetition's start to its first timed
    /// operation.
    pub setup_s: f64,
    /// Host seconds the timed operations took.
    pub timed_s: f64,
    /// Operations attempted.
    pub ops: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Per-layer measurements of this repetition, by metric name.
    pub values: Vec<(&'static str, f64)>,
    /// Output bits outside the metric table that every repetition must
    /// reproduce (final energies, report hashes).
    pub fingerprint: Vec<u64>,
}

/// What the traced pass hands a workload's `layers` function.
pub struct TracedPass<'a> {
    /// Spans of the traced repetitions.
    pub spans: &'a [trace::Span],
    /// The traced repetitions.
    pub traced: &'a [Rep],
}

/// One workload of the benchmark.
pub struct Workload {
    pub name: &'static str,
    /// Why the workload is in the benchmark, in one line.
    pub why: &'static str,
    /// Build the system from scratch, run the operations, check them.
    pub rep: fn(&Ctx) -> Rep,
    /// The traced pass's extra work: stand-alone probes of the layers on
    /// this workload's path, and metrics read off the spans.
    pub layers: fn(&Ctx, &TracedPass, &mut Metrics),
}

/// What one run found.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Everything measured, end-to-end and per-layer.
    pub measured: Metrics,
    /// Names of exact metrics (or `fingerprint`) that differed between
    /// repetitions.
    pub unsteady: Vec<String>,
}

fn run_reps(w: &Workload, ctx: &Ctx, min_reps: usize, seconds: f64, first_rep: u32) -> Vec<Rep> {
    let min_reps = if ctx.quick { 2 } else { min_reps };
    let t0 = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < min_reps || (!ctx.quick && t0.elapsed().as_secs_f64() < seconds) {
        trace::set_rep(first_rep + reps.len() as u32);
        let _span = trace::span("bench.rep");
        reps.push((w.rep)(ctx));
    }
    reps
}

/// Median over repetitions of every per-repetition value, and the names
/// of the exact ones that did not repeat.
fn fold_values(reps: &[Rep]) -> (BTreeMap<&'static str, f64>, Vec<String>) {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for rep in reps {
        for &(name, v) in &rep.values {
            by_name.entry(name).or_default().push(v);
        }
    }
    let mut unsteady = Vec::new();
    let mut folded = BTreeMap::new();
    for (name, values) in by_name {
        let def = metrics::lookup(name).unwrap_or_else(|| panic!("{name} is not in the table"));
        if def.exact && values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
            unsteady.push(name.to_string());
        }
        folded.insert(name, stats::median(&values));
    }
    if reps.iter().any(|r| r.fingerprint != reps[0].fingerprint) {
        unsteady.push("fingerprint".to_string());
    }
    (folded, unsteady)
}

fn throughputs(reps: &[Rep]) -> Vec<f64> {
    reps.iter().map(|r| r.ops as f64 / r.timed_s).collect()
}

/// Run `w` once, as the plain or the traced pass.
pub fn run(w: &Workload, ctx: &Ctx, traced: bool) -> RunResult {
    let figures = fidelity::run_figures(if ctx.quick { 2 } else { fidelity::FIGURE_STEPS });
    // Warm-up, discarded: lets the allocator's arenas, the page cache and
    // lazily built state settle before anything is timed.
    let _ = (w.rep)(ctx);

    let mut measured = Metrics::new(w.name);
    // The plain repetitions, then the traced ones.
    let mut reps;
    let plain_count;
    if traced {
        let share = ctx.seconds * TRACED_SHARE;
        reps = run_reps(w, ctx, MIN_TRACED_REPS, share, 0);
        plain_count = reps.len();
        trace::set_enabled(true);
        reps.extend(run_reps(w, ctx, MIN_TRACED_REPS, share, plain_count as u32));
        trace::set_enabled(false);
    } else {
        reps = run_reps(w, ctx, MIN_REPS, ctx.seconds, 0);
        plain_count = reps.len();
    }
    let (plain, traced_reps) = reps.split_at(plain_count);

    let (_, unsteady) = fold_values(&reps);
    // Host-time values come from the plain repetitions, which carry no
    // span cost.
    let (values, _) = fold_values(plain);
    for (name, v) in values {
        measured.set(name, v);
    }

    let rates = throughputs(plain);
    if traced {
        let spans = trace::drain();
        write_trace(ctx, w.name, &spans);
        let pass = TracedPass {
            spans: &spans,
            traced: traced_reps,
        };
        (w.layers)(ctx, &pass, &mut measured);
        report_harness(&mut measured, w.name, &figures, &pass, &rates);
    } else {
        measured.set("ops_per_s", stats::median(&rates));
        let setups: Vec<f64> = plain.iter().map(|r| r.setup_s).collect();
        measured.set("setup_s", stats::median(&setups));
        measured.set("fidelity_max_rel_err", figures.max_rel_err());
        measured.set("fidelity_mean_rel_err", figures.mean_rel_err());
    }

    let attempted: u64 = reps.iter().map(|r| r.ops).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    RunResult {
        correct: failed == 0 && attempted > 0 && unsteady.is_empty(),
        attempted,
        failed,
        measured,
        unsteady,
    }
}

/// The per-layer metrics every workload reports: fidelity rows, the
/// process's CPU time, and the harness's own numbers.
fn report_harness(
    measured: &mut Metrics,
    workload: &str,
    figures: &Fidelity,
    pass: &TracedPass,
    plain_rates: &[f64],
) {
    for row in &figures.rows {
        measured.set(&format!("fidelity.{}", row.reference.name), row.rel_err());
    }
    measured.set("bench.figures_wall_s", figures.wall_s);
    measured.set("bench.rep_iqr_frac", stats::iqr_frac(plain_rates));
    let plain = stats::median(plain_rates);
    let traced = stats::median(&throughputs(pass.traced));
    measured.set("bench.trace_overhead_frac", (plain - traced) / plain);
    // Thread-seconds of self time per traced repetition, for each layer
    // this workload's spans name.
    let per_rep = 1.0 / pass.traced.len() as f64;
    for (layer, seconds) in trace::layer_self_seconds(pass.spans) {
        let name = format!("{layer}.self_s");
        let def = metrics::lookup(&name)
            .unwrap_or_else(|| panic!("{workload} records spans of layer {layer}"));
        measured.set(def.name, seconds * per_rep);
    }
    // Read last, so that they cover everything the run did.
    measured.set("host.peak_rss_mb", procfs::peak_rss_mb());
    let (user, sys) = procfs::cpu_seconds();
    measured.set("host.cpu_user_s", user);
    measured.set("host.cpu_sys_s", sys);
}

fn write_trace(ctx: &Ctx, workload: &str, spans: &[trace::Span]) {
    std::fs::create_dir_all(&ctx.out_dir).expect("create the output directory");
    let path = ctx.out_dir.join(format!("{workload}.trace.json"));
    std::fs::write(&path, trace::chrome_json(spans, workload)).expect("write the trace file");
}

/// `workload metric value unit` lines for everything measured.
pub fn metric_lines(workload: &str, result: &RunResult) -> String {
    let mut out = String::new();
    for (name, value) in result.measured.iter() {
        let unit = metrics::lookup(name)
            .expect("measured names are in the table")
            .unit;
        out.push_str(&format!(
            "{workload} {name} {} {unit}\n",
            json::number(value)
        ));
    }
    out
}

/// The driver-facing result: one JSON object naming every metric of
/// `table`. A metric this workload does not measure reads 0.
pub fn result_line(result: &RunResult, table: &[MetricDef]) -> String {
    let metrics = table
        .iter()
        .map(|d| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(d.name),
                json::number(result.measured.get(d.name).unwrap_or(0.0)),
                json::string(d.unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        result.correct, result.attempted, result.failed
    )
}

/// The table a pass reports in its result line.
pub fn table_of(traced: bool) -> &'static [MetricDef] {
    if traced {
        metrics::per_layer()
    } else {
        END_TO_END
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RING;

    fn rep(ops: u64, timed_s: f64, makespan: f64, fingerprint: u64) -> Rep {
        Rep {
            setup_s: 0.1,
            timed_s,
            ops,
            failed: 0,
            values: vec![
                ("virtual.ring_makespan_s", makespan),
                ("psmpi.pool_hit_rate", timed_s),
            ],
            fingerprint: vec![fingerprint],
        }
    }

    #[test]
    fn exact_values_that_move_are_named_and_host_values_take_the_median() {
        let steady = [
            rep(10, 1.0, 0.5, 7),
            rep(10, 3.0, 0.5, 7),
            rep(10, 2.0, 0.5, 7),
        ];
        let (values, unsteady) = fold_values(&steady);
        assert!(unsteady.is_empty());
        assert_eq!(values["psmpi.pool_hit_rate"], 2.0);
        assert_eq!(values["virtual.ring_makespan_s"], 0.5);
        assert_eq!(throughputs(&steady), vec![10.0, 10.0 / 3.0, 5.0]);

        let moved = [rep(10, 1.0, 0.5, 7), rep(10, 1.0, 0.5000001, 8)];
        let (_, unsteady) = fold_values(&moved);
        assert_eq!(unsteady, vec!["virtual.ring_makespan_s", "fingerprint"]);
    }

    #[test]
    fn the_result_line_names_every_metric_of_its_table_and_pads_with_zero() {
        let mut measured = Metrics::new(RING);
        measured.set("ops_per_s", 1234.5);
        let result = RunResult {
            correct: true,
            attempted: 9,
            failed: 0,
            measured,
            unsteady: Vec::new(),
        };
        let doc = json::parse(&result_line(&result, END_TO_END)).unwrap();
        assert_eq!(doc.as_obj().unwrap().len(), 4);
        assert_eq!(doc.get("attempted").unwrap().as_f64(), Some(9.0));
        let m = doc.get("metrics").unwrap();
        assert_eq!(m.as_obj().unwrap().len(), END_TO_END.len());
        let ops = m.get("ops_per_s").unwrap();
        assert_eq!(ops.get("value").unwrap().as_f64(), Some(1234.5));
        assert_eq!(ops.get("unit").unwrap().as_str(), Some("1/s"));
        assert_eq!(
            m.get("setup_s").unwrap().get("value").unwrap().as_f64(),
            Some(0.0)
        );
        assert_eq!(
            metric_lines(RING, &result),
            "ring_latency ops_per_s 1234.5 1/s\n"
        );
    }
}
