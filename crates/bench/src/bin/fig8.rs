//! Regenerate Fig. 8: xPic strong scaling and parallel efficiency.
//!
//! With `--obs <path>` the binary instead runs one instrumented C+B job and
//! writes the virtual-time Chrome trace to `<path>` plus the deterministic
//! text report (profile + critical path) to `<path>.report.txt`.
//!
//! Overlap against blocking and the checkpoint modes, clean and faulted,
//! are compared by the `matrix` binary (`cb_bench::matrix`).
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = cb_bench::obs_run::parse_fig_cli(&args, 10, 4).unwrap_or_else(|e| {
        eprintln!("fig8: {e}");
        std::process::exit(2)
    });
    if cb_bench::obs_run::maybe_run_obs(&cli) {
        return;
    }
    let launcher = cb_bench::prototype_launcher();
    let scaling = cb_bench::fig8::run(&launcher, cli.steps, &cb_bench::fig8::paper_node_counts());
    print!("{}", cb_bench::fig8::render(&scaling));
}
