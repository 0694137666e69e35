//! `--obs` support for the figure binaries: run one xPic workload with the
//! observability recorder attached and export the virtual-time artifacts —
//! a Chrome `trace_event` JSON (one track per rank), the deterministic text
//! report, and the "why C+B wins" wait comparison.
//!
//! Everything here is sourced from virtual time: the artifacts are
//! byte-identical across repeated runs and across `threads` settings
//! ([`crate::matrix`] diffs them for its C+B rows), and the critical-path
//! category totals telescope to the job makespan within float-addition
//! error.

use obs::{Recorder, Trace};
use std::fmt::Write as _;
use xpic::{run_mode, Mode, XpicConfig};

/// Run one xPic job with a recorder attached and snapshot the trace.
/// The system is sized to the requested node count ([`crate::launcher_for`]),
/// so `--nodes 1000` boots instead of failing allocation on the prototype.
pub fn run_with_obs(mode: Mode, nodes: usize, steps: u32, threads: usize) -> Trace {
    let launcher = crate::launcher_for(nodes);
    let rec = Recorder::new();
    launcher.universe().attach_obs(rec.clone());
    let mut cfg = XpicConfig::paper_bench(steps);
    cfg.threads = threads;
    // Weak-scale the simulation grid with the node count: the slab
    // decomposition needs at least one row per rank, and holding the
    // per-rank load constant keeps setup linear in n (the paper grid's 32
    // rows would otherwise cap the run at 32 ranks per solver).
    if nodes > cfg.ny {
        cfg.ny = nodes;
    }
    let _ = run_mode(&launcher, mode, nodes, &cfg);
    rec.snapshot()
}

/// The files a `--obs <path>` invocation writes, plus a stdout summary.
pub struct ObsArtifacts {
    /// Chrome `trace_event` JSON (load in `chrome://tracing` / Perfetto).
    pub chrome_json: String,
    /// Deterministic plain-text report (profile + critical path).
    pub report: String,
    /// Short human summary incl. the Cluster-vs-C+B wait comparison.
    pub summary: String,
}

/// The Fig. 7/8 `--obs` artifact: a C+B run (the trace that gets written)
/// and a Cluster-only run of the same size for the wait comparison.
pub fn obs_artifacts(steps: u32, nodes: usize, threads: usize) -> ObsArtifacts {
    let cb = run_with_obs(Mode::ClusterBooster, nodes, steps, threads);
    let cl = run_with_obs(Mode::ClusterOnly, nodes, steps, threads);

    let cb_prof = cb.profile();
    let cl_prof = cl.profile();
    let cp = cb.critical_path();

    // Acceptance invariant: the critical-path category shares account for
    // the whole makespan.
    let drift = (cp.total().as_secs() - cb.makespan().as_secs()).abs();
    assert!(
        drift < 1e-9,
        "critical path sums to {} but makespan is {}",
        cp.total(),
        cb.makespan()
    );

    let mut summary = String::new();
    let _ = writeln!(
        summary,
        "obs: C+B @ {} nodes/solver, {} steps — makespan {:.9} s, {} tracks",
        nodes,
        steps,
        cb_prof.makespan.as_secs(),
        cb.tracks.len()
    );
    let mut cats: Vec<_> = cp.categories.iter().collect();
    cats.sort_by(|a, b| b.1.partial_cmp(a.1).unwrap().then(a.0.cmp(b.0)));
    let top: Vec<String> = cats
        .iter()
        .take(3)
        .map(|(label, t)| format!("{label} {:.1}%", 100.0 * (**t / cp.length)))
        .collect();
    let _ = writeln!(
        summary,
        "critical path: {:.9} s over {} message hops ({} worlds); top shares: {}",
        cp.length.as_secs(),
        cp.hops,
        cp.worlds.len(),
        top.join(", "),
    );
    // The paper's mechanism: partitioned, the Booster ranks spend their
    // (concurrent) time blocked on the C+B interface while the Cluster
    // field-solves — yet the makespan drops, because that wait runs in
    // parallel with work the combined loop serialized.
    let _ = writeln!(
        summary,
        "makespan: Cluster-only {:.9} s -> C+B {:.9} s; C+B wait: CN {:.9} s, \
         BN {:.9} s (transfer hidden behind compute: {:.9} s)",
        cl_prof.makespan.as_secs(),
        cb_prof.makespan.as_secs(),
        cb_prof.wait_on_kind("CN").as_secs(),
        cb_prof.wait_on_kind("BN").as_secs(),
        cb_prof
            .ranks
            .iter()
            .map(|r| r.overlap)
            .sum::<hwmodel::SimTime>()
            .as_secs(),
    );

    ObsArtifacts {
        chrome_json: cb.chrome_json(),
        report: cb.report(),
        summary,
    }
}

/// Parsed CLI of the figure binaries (positional `<steps>` kept for
/// backward compatibility with the original regeneration interface).
pub struct FigCli {
    /// Steps to simulate.
    pub steps: u32,
    /// `--obs <path>`: write artifacts instead of the full sweep.
    pub obs_path: Option<String>,
    /// `--threads <n>` for the shared-memory kernels (0 = host cores).
    pub threads: usize,
    /// `--nodes <n>` nodes per solver for the instrumented run.
    pub nodes: usize,
}

/// Parse the figure binaries' argv (everything after the program name).
/// An unknown flag, a flag without its value or a value that does not
/// parse is an error naming the argument.
pub fn parse_fig_cli(
    args: &[String],
    default_steps: u32,
    default_nodes: usize,
) -> Result<FigCli, String> {
    let mut cli = FigCli {
        steps: default_steps,
        obs_path: None,
        threads: 1,
        nodes: default_nodes,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--obs" => cli.obs_path = Some(flag_value(&mut args, arg)?),
            "--threads" => cli.threads = flag_value(&mut args, arg)?,
            "--nodes" => cli.nodes = flag_value(&mut args, arg)?,
            "--steps" => cli.steps = flag_value(&mut args, arg)?,
            s if s.starts_with('-') => return Err(format!("unknown argument `{s}`")),
            s => {
                cli.steps = s
                    .parse()
                    .map_err(|_| format!("`{s}` is not a step count"))?
            }
        }
    }
    Ok(cli)
}

/// The value following `flag` in `args`, parsed; the error names the flag
/// when the value is missing or does not parse.
pub fn flag_value<T: std::str::FromStr>(
    args: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<T, String> {
    let value = args
        .next()
        .ok_or_else(|| format!("`{flag}` needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("`{flag}`: cannot parse `{value}`"))
}

/// Handle a `--obs` invocation: write `<path>` (Chrome JSON) and
/// `<path>.report.txt`, print the summary. Returns whether it ran.
pub fn maybe_run_obs(cli: &FigCli) -> bool {
    let Some(path) = &cli.obs_path else {
        return false;
    };
    let art = obs_artifacts(cli.steps, cli.nodes, cli.threads);
    std::fs::write(path, &art.chrome_json).expect("write chrome trace");
    let report_path = format!("{path}.report.txt");
    std::fs::write(&report_path, &art.report).expect("write obs report");
    print!("{}", art.summary);
    println!("wrote {path} and {report_path}");
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifacts_have_one_track_per_rank_and_sum_to_makespan() {
        let trace = run_with_obs(Mode::ClusterBooster, 1, 2, 1);
        // 1 booster rank + 1 spawned cluster rank.
        assert_eq!(trace.tracks.len(), 2);
        let cp = trace.critical_path();
        let drift = (cp.total().as_secs() - trace.makespan().as_secs()).abs();
        assert!(drift < 1e-9, "{drift}");
        let json = trace.chrome_json();
        for tr in &trace.tracks {
            assert!(json.contains(&format!("\"tid\":{}", tr.key.rank)));
        }
    }

    #[test]
    fn cli_parses_flags_and_positional_steps() {
        let args: Vec<String> = [
            "4",
            "--obs",
            "/tmp/t.json",
            "--threads",
            "2",
            "--nodes",
            "3",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let cli = parse_fig_cli(&args, 10, 2).unwrap();
        assert_eq!(cli.steps, 4);
        assert_eq!(cli.obs_path.as_deref(), Some("/tmp/t.json"));
        assert_eq!(cli.threads, 2);
        assert_eq!(cli.nodes, 3);
        let cli = parse_fig_cli(&[], 10, 2).unwrap();
        assert_eq!(cli.steps, 10);
        assert!(cli.obs_path.is_none());
    }

    #[test]
    fn cli_rejects_unknown_flags_and_bad_values() {
        let parse = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            parse_fig_cli(&args, 10, 2).err().expect("must be rejected")
        };
        // A misspelt flag is an error, not a silent plain sweep.
        assert!(parse(&["--thread", "2"]).contains("`--thread`"));
        assert!(parse(&["abc"]).contains("`abc`"));
        assert!(parse(&["--threads", "two"]).contains("`--threads`"));
        assert!(parse(&["--nodes", "2.5"]).contains("`2.5`"));
        assert!(parse(&["--steps"]).contains("`--steps` needs a value"));
        // The gate flags the equivalence matrix replaced: a stale script
        // fails instead of running the full sweep.
        for flag in [
            &["--overlap"][..],
            &["--async-ckpt"],
            &["--smoke"],
            &["--fault-at", "0.05"],
            &["--mtbf", "0.5"],
            &["--ckpt-every", "1"],
        ] {
            let err = parse(flag);
            assert_eq!(err, format!("unknown argument `{}`", flag[0]));
        }
    }
}
