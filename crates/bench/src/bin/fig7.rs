//! Regenerate Table II + Fig. 7: single-node xPic runtimes per mode.
//!
//! With `--obs <path>` the binary instead runs one instrumented C+B job
//! (one node per solver) and writes the virtual-time Chrome trace to
//! `<path>` plus the text report to `<path>.report.txt`.
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = cb_bench::obs_run::parse_fig_cli(&args, 10, 1).unwrap_or_else(|e| {
        eprintln!("fig7: {e}");
        std::process::exit(2)
    });
    if cb_bench::obs_run::maybe_run_obs(&cli) {
        return;
    }
    let launcher = cb_bench::prototype_launcher();
    let bars = cb_bench::fig7::run(&launcher, cli.steps);
    print!("{}", cb_bench::fig7::render(&bars));
}
