//! Multi-species runs: electrons + kinetic ions (the `nspec` loop of
//! Listing 1 with nspec = 2).

use cluster_booster::{Launcher, SystemBuilder};
use xpic::config::SpeciesSpec;
use xpic::{run_mode, Mode, XpicConfig};

fn launcher() -> Launcher {
    Launcher::new(
        SystemBuilder::new("sp")
            .cluster_nodes(2)
            .booster_nodes(2)
            .build(),
    )
}

/// Electrons plus kinetic ions of mass ratio 100: charge +1 per cell,
/// thermal speed scaled by √(me/mi) = 1/10.
fn two_species_config() -> XpicConfig {
    let base = XpicConfig {
        nx: 8,
        ny: 8,
        steps: 3,
        ..XpicConfig::test_small()
    };
    let ions = SpeciesSpec {
        name: "ions".into(),
        qom: 1.0 / 100.0,
        charge_per_cell: 1.0,
        vth: base.vth / 10.0,
        ppc: base.sim_particles_per_cell,
    };
    XpicConfig {
        extra_species: vec![ions],
        ..base
    }
}

#[test]
fn species_list_contains_both() {
    let cfg = two_species_config();
    let specs = cfg.species_specs();
    assert_eq!(specs.len(), 2);
    assert_eq!(specs[0].name, "electrons");
    assert_eq!(specs[1].name, "ions");
    assert_eq!(specs[1].qom, 0.01);
    assert!(specs[1].vth < specs[0].vth, "ions are slower");
    let total: usize = specs.iter().map(|s| s.ppc).sum();
    assert_eq!(total, 2 * cfg.sim_particles_per_cell);
}

#[test]
fn quasineutral_plasma_has_zero_net_charge() {
    let cfg = two_species_config();
    let l = launcher();
    let r = run_mode(&l, Mode::ClusterOnly, 2, &cfg);
    // Electrons carry −cells, ions +cells → exactly neutral, and conserved.
    assert!(
        r.total_charge.abs() < 1e-9,
        "two-species plasma is quasineutral: {}",
        r.total_charge
    );
    assert!(r.kinetic_energy > 0.0);
}

#[test]
fn two_species_physics_identical_across_modes() {
    let cfg = two_species_config();
    let l = launcher();
    let rc = run_mode(&l, Mode::ClusterOnly, 2, &cfg);
    let rcb = run_mode(&l, Mode::ClusterBooster, 2, &cfg);
    assert!(
        ((rc.field_energy - rcb.field_energy) / rc.field_energy.max(1e-300)).abs() < 1e-9,
        "fe {} vs {}",
        rc.field_energy,
        rcb.field_energy
    );
    assert!(((rc.kinetic_energy - rcb.kinetic_energy) / rc.kinetic_energy).abs() < 1e-9);
}

#[test]
fn ion_inertia_slows_energy_exchange() {
    // Heavier ions take less kinetic energy from the same fields: with the
    // same initial thermal speed scaling, the ion species' velocities
    // respond ~mi/me times more slowly. Proxy check: a two-species run has
    // less field energy than an electrons-only run with doubled electron
    // charge (the unbalanced case drives stronger fields).
    let l = launcher();
    let neutral = run_mode(&l, Mode::ClusterOnly, 1, &two_species_config());
    let electrons_only = run_mode(
        &l,
        Mode::ClusterOnly,
        1,
        &XpicConfig {
            nx: 8,
            ny: 8,
            steps: 3,
            ..XpicConfig::test_small()
        },
    );
    // Both stay bounded; the neutral plasma's field energy is not larger
    // than ~the non-neutral one after the same number of steps.
    assert!(neutral.field_energy.is_finite());
    assert!(electrons_only.field_energy.is_finite());
    assert!(neutral.field_energy <= electrons_only.field_energy * 10.0);
}

#[test]
fn work_charging_scales_with_species_count() {
    // Two species at the same ppc double the particle workload share, so
    // the particle phase takes ~2× the single-species virtual time.
    let l = launcher();
    let single = run_mode(
        &l,
        Mode::BoosterOnly,
        1,
        &XpicConfig {
            nx: 8,
            ny: 8,
            steps: 3,
            ..XpicConfig::test_small()
        },
    );
    let double = run_mode(&l, Mode::BoosterOnly, 1, &two_species_config());
    let ratio = double.particle_time / single.particle_time;
    assert!(
        (1.7..=2.3).contains(&ratio),
        "two species ≈ 2× particle work: {ratio:.2}"
    );
}
