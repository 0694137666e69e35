//! Scheduler-load benchmark: the independent-vs-node-locked comparison
//! of [`cb_bench::sched_load`] at trace scale (§II-A). Its metrics land in
//! the `--out` file (none is written without the flag); `--trace-out`
//! writes the independent run as a Chrome trace, one track per job
//! (`sched::chrome_trace`).
//!
//! Both files are pure virtual-time output: the engine is one sequential
//! loop, so a run is a function of its arguments alone. The metrics of the
//! default run are pinned across commits by `tests/full_stack.rs`
//! (`tests/golden/sched_smoke.golden`, one line per metric); ci.sh runs
//! the smoke twice with the same arguments and compares the two `--out`
//! files and the two traces with each other. Wall-clock cost of the
//! simulation itself goes to stdout only.
//!
//! `--smoke` is the CI regression gate: the independent run must schedule
//! the full trace with at least one backfill start, at least one
//! fault-driven requeue, malleable expansion and shrink both exercised,
//! and a makespan strictly better than node-locked.

use cb_bench::obs_run::flag_value;
use cb_bench::sched_load::{self, SchedLoad};
use sched::chrome_trace;
use std::time::Instant;

/// Smoke gate: the trace must really be production-sized.
const SMOKE_MIN_JOBS: usize = 1000;

/// The command line.
#[derive(Debug, PartialEq)]
struct Cli {
    smoke: bool,
    jobs: usize,
    seed: u64,
    out_path: Option<String>,
    trace_path: Option<String>,
}

/// Parse argv (everything after the program name). An unknown argument, a
/// flag without its value or a value that does not parse is an error
/// naming the argument.
fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        smoke: false,
        jobs: sched_load::JOBS,
        seed: sched_load::SEED,
        out_path: None,
        trace_path: None,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => cli.smoke = true,
            "--jobs" => cli.jobs = flag_value(&mut args, arg)?,
            "--seed" => cli.seed = flag_value(&mut args, arg)?,
            "--out" => cli.out_path = Some(flag_value(&mut args, arg)?),
            "--trace-out" => cli.trace_path = Some(flag_value(&mut args, arg)?),
            s => return Err(format!("unknown argument `{s}`")),
        }
    }
    Ok(cli)
}

#[expect(
    clippy::disallowed_methods,
    reason = "the scheduler-load bench: argv selects trace shape/seed and Instant times the host-side cost of simulating the trace for stdout; the engine underneath is one sequential virtual-time loop and the `--out` file is byte-identical run to run and pinned across commits"
)]
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Cli {
        smoke,
        jobs,
        seed,
        out_path,
        trace_path,
    } = parse_cli(&args).unwrap_or_else(|e| {
        eprintln!("sched: {e}");
        std::process::exit(2)
    });

    let t0 = Instant::now();
    let SchedLoad {
        trace,
        span,
        faults,
        independent: ind,
        node_locked: locked,
        metrics: m,
    } = sched_load::run(jobs, seed);
    let wall = t0.elapsed().as_secs_f64();
    let p99_ind = m.get("independent.wait_p99_s").expect("reported");

    if let Some(path) = &out_path {
        let json = format!("{{\n \"metrics\": {}}}\n", m.to_json());
        std::fs::write(path, json).expect("write the --out file");
    }

    if let Some(path) = &trace_path {
        std::fs::write(path, chrome_trace(&ind, &trace)).expect("write the --trace-out file");
    }

    // Wall-clock is host-dependent: stdout only, never the artifact.
    println!(
        "sched: {} jobs over {:.1} h submit span, {} planned faults — independent makespan \
         {:.1} h (p99 wait {:.0} s, {} backfills, {} requeues) vs node-locked {:.1} h; \
         simulated in {:.2} s wall",
        trace.len(),
        span.as_secs() / 3600.0,
        faults.node_faults().len(),
        ind.makespan.as_secs() / 3600.0,
        p99_ind,
        ind.backfill_starts,
        ind.requeues,
        locked.makespan.as_secs() / 3600.0,
        wall,
    );

    if smoke {
        assert!(
            trace.len() >= SMOKE_MIN_JOBS && ind.completed == trace.len(),
            "sched smoke: scheduled {}/{} jobs, need the full >= {SMOKE_MIN_JOBS}-job trace",
            ind.completed,
            trace.len()
        );
        assert!(
            ind.backfill_starts >= 1,
            "sched smoke: EASY backfill never fired"
        );
        assert!(
            ind.requeues >= 1,
            "sched smoke: no fault-driven requeue happened ({} faults planned)",
            faults.node_faults().len()
        );
        assert!(
            ind.expands >= 1 && ind.shrinks >= 1,
            "sched smoke: malleability not exercised (expands {}, shrinks {})",
            ind.expands,
            ind.shrinks
        );
        assert!(
            ind.makespan < locked.makespan,
            "sched smoke: independent reservation ({:.0} s) must beat node-locked ({:.0} s)",
            ind.makespan.as_secs(),
            locked.makespan.as_secs()
        );
        let violations = ind.reservation_violations();
        assert!(
            violations.is_empty(),
            "sched smoke: {} head reservations violated",
            violations.len()
        );
        println!(
            "sched smoke OK: {} jobs, p99 wait {:.0} s, makespan ratio {:.3}",
            trace.len(),
            p99_ind,
            locked.makespan.as_secs() / ind.makespan.as_secs()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn cli_parses_flags_and_rejects_the_rest() {
        let cli = parse(&["--smoke", "--jobs", "40", "--out", "m.json"]).unwrap();
        assert!(cli.smoke);
        assert_eq!((cli.jobs, cli.seed), (40, 20180521));
        assert_eq!(cli.out_path.as_deref(), Some("m.json"));
        assert_eq!(cli.trace_path, None);
        assert!(parse(&["--trace_out", "t.json"])
            .unwrap_err()
            .contains("`--trace_out`"));
        assert!(parse(&["--jobs", "many"]).unwrap_err().contains("`many`"));
        assert!(parse(&["--threads", "2"])
            .unwrap_err()
            .contains("`--threads`"));
        assert!(parse(&["--seed"])
            .unwrap_err()
            .contains("`--seed` needs a value"));
    }
}
