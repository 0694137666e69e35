//! The repo benchmark.
//!
//! ```text
//! cb-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process; the last line of standard output is
//!     the result object the benchmark contract asks for
//! cb-benchmark [--seed <n>] [--seconds <s>] [--results <file>] [--plain-runs <n>]
//!     the suite: every workload, plain then traced, each in a fresh
//!     process (the plain pass <n> times over, reporting medians); writes
//!     benchmark/out/results.json
//! cb-benchmark --compare <a.json> <b.json>
//!     two results files of the same code, metric by metric
//! cb-benchmark --print-benchmark-json
//!     BENCHMARK.json, from the metric table
//! ```

use cb_benchmark::harness::{self, Ctx};
use cb_benchmark::{suite, workloads, DEFAULT_SECONDS, DEFAULT_SEED};
use std::path::PathBuf;
use std::process::ExitCode;

struct Cli {
    workload: Option<String>,
    trace: bool,
    ctx: Ctx,
    results: Option<PathBuf>,
    plain_runs: usize,
    compare: Option<(PathBuf, PathBuf)>,
    print_benchmark_json: bool,
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("cb-benchmark: {problem}");
    eprintln!(
        "usage: cb-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>] \
         [--quick] [--out <dir>] [--results <file>] [--plain-runs <n>] | --compare <a.json> <b.json> | \
         --print-benchmark-json"
    );
    ExitCode::from(2)
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        trace: false,
        ctx: Ctx {
            seed: DEFAULT_SEED,
            seconds: f64::from(DEFAULT_SECONDS),
            quick: false,
            inject_corruption: false,
            out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
        },
        results: None,
        plain_runs: 1,
        compare: None,
        print_benchmark_json: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => {
                cli.ctx.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                cli.ctx.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--quick" => cli.ctx.quick = true,
            "--inject-corruption" => cli.ctx.inject_corruption = true,
            "--out" => cli.ctx.out_dir = PathBuf::from(value()?),
            "--results" => cli.results = Some(PathBuf::from(value()?)),
            "--plain-runs" => {
                cli.plain_runs = value()?
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or("--plain-runs takes a whole number from 1")?
            }
            "--compare" => cli.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            "--print-benchmark-json" => cli.print_benchmark_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(problem) => return usage(&problem),
    };
    if cli.print_benchmark_json {
        print!("{}", suite::benchmark_json().pretty());
        return ExitCode::SUCCESS;
    }
    if let Some((a, b)) = &cli.compare {
        return suite::compare(a, b);
    }
    // Host times of an unoptimized build say nothing about the simulator.
    // `--quick` measures nothing worth keeping and may run anywhere.
    if cfg!(debug_assertions) && !cli.ctx.quick {
        eprintln!("cb-benchmark: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    let Some(name) = &cli.workload else {
        return suite::run(&cli.ctx, cli.results.as_deref(), cli.plain_runs);
    };
    let Some(workload) = workloads::find(name) else {
        return usage(&format!("no workload named {name}"));
    };
    let result = harness::run(workload, &cli.ctx, cli.trace);
    for name in &result.unsteady {
        eprintln!("{}: {name} differed between repetitions", workload.name);
    }
    print!("{}", harness::metric_lines(workload.name, &result));
    println!(
        "{}",
        harness::result_line(&result, harness::table_of(cli.trace))
    );
    ExitCode::SUCCESS
}
