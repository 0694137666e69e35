//! Regenerate Fig. 8: xPic strong scaling and parallel efficiency.
//!
//! With `--obs <path>` the binary instead runs one instrumented C+B job and
//! writes the virtual-time Chrome trace to `<path>` plus the deterministic
//! text report (profile + critical path) to `<path>.report.txt`.
//!
//! With `--fault-at <secs>` / `--mtbf <secs>` / `--ckpt-every <n>` it runs
//! the fault-injection mode: xPic under a fault plan with automatic
//! SCR checkpoint-restart, printing a `FINAL` line whose energy bit
//! patterns must match a clean run's.
//!
//! With `--overlap` it runs the compute/communication-overlap comparison:
//! the same C+B job with the nonblocking request engine on and off,
//! printing the `FINAL` bit patterns and an `OVERLAP_GATE` verdict.
//!
//! With `--async-ckpt` it runs the checkpoint-mode comparison —
//! sync vs async vs async+delta at equal protection (optionally under a
//! `--mtbf` fault schedule; `--smoke` shrinks it to CI size) — printing
//! per-mode `CKPT` blocking lines, matching `FINAL` bit patterns, and the
//! `ASYNC_CKPT_GATE` verdict.
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = cb_bench::obs_run::parse_fig_cli(&args, 10, 4).unwrap_or_else(|e| {
        eprintln!("fig8: {e}");
        std::process::exit(2)
    });
    if cb_bench::obs_run::maybe_run_obs(&cli) {
        return;
    }
    if cli.overlap {
        print!("{}", cb_bench::overlap_run::run_overlap_cli(&cli));
        return;
    }
    if cli.async_ckpt {
        print!("{}", cb_bench::resilience_run::run_async_ckpt_cli(&cli));
        return;
    }
    if cb_bench::resilience_run::resilient_requested(&cli) {
        print!("{}", cb_bench::resilience_run::run_resilient_cli(&cli));
        return;
    }
    let launcher = cb_bench::prototype_launcher();
    let scaling = cb_bench::fig8::run(&launcher, cli.steps, &cb_bench::fig8::paper_node_counts());
    print!("{}", cb_bench::fig8::render(&scaling));
}
