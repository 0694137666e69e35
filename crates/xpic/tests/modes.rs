//! Integration tests of the three xPic execution modes: physics
//! equivalence across placements, conservation, and the virtual-time
//! behaviour behind the paper's Figs. 7–8.

use cluster_booster::{Launcher, SystemBuilder};
use xpic::{run_mode, Mode, XpicConfig};

fn launcher(cn: u32, bn: u32) -> Launcher {
    Launcher::new(
        SystemBuilder::new("test")
            .cluster_nodes(cn)
            .booster_nodes(bn)
            .build(),
    )
}

fn config() -> XpicConfig {
    XpicConfig {
        ny: 8, // ≥ 1 row per rank at 4 ranks, keeps tests fast
        nx: 8,
        steps: 3,
        ..XpicConfig::test_small()
    }
}

#[test]
fn conservation_in_cluster_only_mode() {
    let l = launcher(2, 2);
    let r = run_mode(&l, Mode::ClusterOnly, 2, &config());
    // Electrons carry −1 per cell in total (q/particle = −1/ppc).
    let expect_charge = -(config().cells() as f64);
    assert!(
        (r.total_charge - expect_charge).abs() < 1e-9,
        "charge conserved: {} vs {expect_charge}",
        r.total_charge
    );
    assert!(r.kinetic_energy > 0.0);
    assert!(r.field_energy >= 0.0);
    assert!(r.cg_iters > 0, "the field solve really iterated");
    assert!(r.total.as_secs() > 0.0);
}

#[test]
fn all_modes_compute_identical_physics() {
    // The same simulation, three placements: physics must agree. The C+B
    // mode performs the same operations in the same order with the same
    // decomposition, so energies match to fp-reduction noise.
    let cfg = config();
    let l = launcher(2, 2);
    let rc = run_mode(&l, Mode::ClusterOnly, 2, &cfg);
    let rb = run_mode(&l, Mode::BoosterOnly, 2, &cfg);
    let rcb = run_mode(&l, Mode::ClusterBooster, 2, &cfg);

    for (a, b, what) in [
        (rc.field_energy, rb.field_energy, "fe C vs B"),
        (rc.field_energy, rcb.field_energy, "fe C vs C+B"),
        (rc.kinetic_energy, rb.kinetic_energy, "ke C vs B"),
        (rc.kinetic_energy, rcb.kinetic_energy, "ke C vs C+B"),
        (rc.total_charge, rcb.total_charge, "charge C vs C+B"),
    ] {
        let denom = a.abs().max(1e-12);
        assert!(((a - b) / denom).abs() < 1e-9, "{what}: {a} vs {b}");
    }
    assert_eq!(
        rc.cg_iters, rb.cg_iters,
        "identical arithmetic → same CG path"
    );
}

#[test]
fn successive_runs_of_one_configuration_are_bit_identical() {
    // The second run of a configuration copies the initial plasma the
    // first one drew; every energy and virtual time must stay the bits of
    // the first run.
    let cfg = config();
    let l = launcher(2, 2);
    for nodes in [1, 2] {
        for mode in [Mode::ClusterOnly, Mode::BoosterOnly, Mode::ClusterBooster] {
            let a = run_mode(&l, mode, nodes, &cfg);
            let b = run_mode(&l, mode, nodes, &cfg);
            let bits = |r: &xpic::XpicReport| {
                [
                    r.field_energy,
                    r.kinetic_energy,
                    r.total_charge,
                    r.total.as_secs(),
                ]
                .map(f64::to_bits)
            };
            assert_eq!(bits(&a), bits(&b), "{mode:?} on {nodes} node(s)");
            assert_eq!(a.cg_iters, b.cg_iters, "{mode:?} on {nodes} node(s)");
        }
    }
}

#[test]
fn physics_independent_of_decomposition() {
    // 1 rank vs 2 ranks per solver: same global physics (CG dot products
    // reduce in different orders, so allow tiny drift).
    let cfg = config();
    let l = launcher(2, 2);
    let r1 = run_mode(&l, Mode::ClusterOnly, 1, &cfg);
    let r2 = run_mode(&l, Mode::ClusterOnly, 2, &cfg);
    assert!(
        ((r1.field_energy - r2.field_energy) / r1.field_energy.max(1e-12)).abs() < 1e-6,
        "fe {} vs {}",
        r1.field_energy,
        r2.field_energy
    );
    assert!(
        ((r1.kinetic_energy - r2.kinetic_energy) / r1.kinetic_energy).abs() < 1e-6,
        "ke {} vs {}",
        r1.kinetic_energy,
        r2.kinetic_energy
    );
    assert!((r1.total_charge - r2.total_charge).abs() < 1e-9);
}

#[test]
fn fig7_field_solver_faster_on_cluster() {
    let cfg = config();
    let l = launcher(1, 1);
    let rc = run_mode(&l, Mode::ClusterOnly, 1, &cfg);
    let rb = run_mode(&l, Mode::BoosterOnly, 1, &cfg);
    let ratio = rb.field_time / rc.field_time;
    assert!(
        (4.5..=7.5).contains(&ratio),
        "field solver ≈6× faster on the Cluster (got {ratio:.2})"
    );
}

#[test]
fn fig7_particle_solver_faster_on_booster() {
    let cfg = config();
    let l = launcher(1, 1);
    let rc = run_mode(&l, Mode::ClusterOnly, 1, &cfg);
    let rb = run_mode(&l, Mode::BoosterOnly, 1, &cfg);
    let ratio = rc.particle_time / rb.particle_time;
    assert!(
        (1.2..=1.55).contains(&ratio),
        "particle solver ≈1.35× faster on the Booster (got {ratio:.2})"
    );
}

#[test]
fn fig7_cb_mode_beats_both_single_modules() {
    let cfg = config();
    let l = launcher(1, 1);
    let rc = run_mode(&l, Mode::ClusterOnly, 1, &cfg);
    let rb = run_mode(&l, Mode::BoosterOnly, 1, &cfg);
    let rcb = run_mode(&l, Mode::ClusterBooster, 1, &cfg);
    let gain_c = rc.total / rcb.total;
    let gain_b = rb.total / rcb.total;
    assert!(
        gain_c > 1.1 && gain_c < 1.6,
        "C+B gain vs Cluster ≈1.28× (got {gain_c:.2})"
    );
    assert!(
        gain_b > 1.05 && gain_b < 1.6,
        "C+B gain vs Booster ≈1.21× (got {gain_b:.2})"
    );
}

#[test]
fn cb_coupling_overhead_is_small() {
    // §IV-C: the point-to-point coupling between the solvers is a small
    // fraction of the runtime (3–4% measured on the prototype).
    let cfg = config();
    let l = launcher(1, 1);
    let rcb = run_mode(&l, Mode::ClusterBooster, 1, &cfg);
    let f = rcb.coupling_fraction();
    assert!(f > 0.0005, "coupling exists: {f}");
    assert!(f < 0.06, "coupling must stay a small fraction: {f}");
}

#[test]
fn energy_history_recorded_and_mode_independent() {
    let cfg = config();
    let l = launcher(2, 2);
    let rc = run_mode(&l, Mode::ClusterOnly, 2, &cfg);
    let rcb = run_mode(&l, Mode::ClusterBooster, 2, &cfg);
    assert_eq!(rc.energy_history.len(), cfg.steps as usize);
    assert_eq!(rcb.energy_history.len(), cfg.steps as usize);
    for (a, b) in rc.energy_history.iter().zip(&rcb.energy_history) {
        let denom = a.abs().max(1e-300);
        assert!(((a - b) / denom).abs() < 1e-9, "{a} vs {b}");
    }
    // The time series is physically sane: finite, non-negative energies.
    assert!(rc.energy_history.iter().all(|e| e.is_finite() && *e >= 0.0));
    // The last entry matches the reported final field energy.
    assert!(
        ((rc.energy_history.last().unwrap() - rc.field_energy) / rc.field_energy.max(1e-300)).abs()
            < 1e-9
    );
}

#[test]
fn mode_labels() {
    assert_eq!(Mode::ClusterOnly.label(), "Cluster");
    assert_eq!(Mode::BoosterOnly.label(), "Booster");
    assert_eq!(Mode::ClusterBooster.label(), "C+B");
}

#[test]
fn scaling_reduces_runtime() {
    // Strong scaling: more nodes per solver → shorter runtime, in every
    // mode (the monotone part of Fig. 8's runtime plot).
    let base = XpicConfig {
        ny: 8,
        nx: 8,
        steps: 3,
        ..XpicConfig::test_small()
    };
    let global_cells = 4 * base.model.cells_per_node; // Table II load at n=4
    let l = launcher(4, 4);
    for mode in [Mode::ClusterOnly, Mode::BoosterOnly, Mode::ClusterBooster] {
        let t1 = run_mode(&l, mode, 1, &base.clone().strong_scaled(global_cells, 1)).total;
        let t4 = run_mode(&l, mode, 4, &base.clone().strong_scaled(global_cells, 4)).total;
        assert!(
            t4 < t1,
            "{}: 4 nodes ({t4}) should beat 1 node ({t1})",
            mode.label()
        );
    }
}
