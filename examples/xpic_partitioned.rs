//! The paper's headline experiment: run the xPic space-weather code in its
//! three placements on the DEEP-ER prototype and compare (Fig. 7).
//!
//! Run with: `cargo run --release --example xpic_partitioned [steps]`

use cluster_booster::presets::deep_er_prototype;
use cluster_booster::Launcher;
use xpic::{run_mode, Mode, XpicConfig};

#[expect(
    clippy::disallowed_methods,
    reason = "argv picks the step count, an input of the run like any config value; nothing reads the host during it"
)]
fn main() {
    let steps = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    let launcher = Launcher::new(deep_er_prototype());
    let config = XpicConfig::paper_bench(steps);

    println!("xPic on the DEEP-ER prototype — Table II setup, {steps} steps\n");
    let mut reports = Vec::new();
    for mode in [Mode::ClusterOnly, Mode::BoosterOnly, Mode::ClusterBooster] {
        let r = run_mode(&launcher, mode, 1, &config);
        println!(
            "{:>8}: total {:>10}  fields {:>10}  particles {:>10}  (fe={:.3e}, ke={:.3e})",
            mode.label(),
            r.total.to_string(),
            r.field_time.to_string(),
            r.particle_time.to_string(),
            r.field_energy,
            r.kinetic_energy,
        );
        reports.push(r);
    }

    let (rc, rb, rcb) = (&reports[0], &reports[1], &reports[2]);
    println!();
    println!(
        "field solver:   Cluster is {:.2}x faster than Booster (paper ~6x)",
        rb.field_time / rc.field_time
    );
    println!(
        "particle solver: Booster is {:.2}x faster than Cluster (paper ~1.35x)",
        rc.particle_time / rb.particle_time
    );
    println!(
        "C+B speedup:    {:.2}x vs Cluster-only, {:.2}x vs Booster-only (paper: 1.28x / 1.21x)",
        rc.total / rcb.total,
        rb.total / rcb.total
    );
    println!(
        "C+B coupling:   {:.1}% of runtime (paper: a small fraction, 3-4%)",
        100.0 * rcb.coupling_fraction()
    );

    // The three placements computed the *same* simulation:
    assert!(((rc.field_energy - rcb.field_energy) / rc.field_energy).abs() < 1e-9);
    assert!(((rc.kinetic_energy - rcb.kinetic_energy) / rc.kinetic_energy).abs() < 1e-9);
    println!("\nphysics identical across all three placements ✓");
}
