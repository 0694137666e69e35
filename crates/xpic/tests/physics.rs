//! Longer-horizon physics sanity: the implicit scheme must stay stable
//! (bounded energies, conserved charge and momentum drift) over many steps
//! — the properties that made the Implicit Moment Method attractive for
//! space-weather runs in the first place.

use cluster_booster::{Launcher, SystemBuilder};
use xpic::diagnostics::kinetic_energy;
use xpic::fields::{FieldSolver, SerialComm};
use xpic::grid::{Fields, Grid, Moments};
use xpic::moments::{deposit, fold_ghosts_periodic};
use xpic::mover::boris_push;
use xpic::particles::Species;
use xpic::{run_mode, Mode, XpicConfig};

#[test]
fn long_run_energies_stay_bounded() {
    // 20 steps through the full application: total (field + kinetic)
    // energy must neither blow up nor collapse (implicit schemes damp
    // slightly; a factor-2 band over 20 steps is conservative for a
    // stable run).
    let l = Launcher::new(
        SystemBuilder::new("t")
            .cluster_nodes(1)
            .booster_nodes(1)
            .build(),
    );
    let cfg = XpicConfig {
        steps: 20,
        ..XpicConfig::test_small()
    };
    let r = run_mode(&l, Mode::ClusterOnly, 1, &cfg);
    let e0 = r.kinetic_energy + r.energy_history.first().unwrap();
    let e_end = r.kinetic_energy + r.energy_history.last().unwrap();
    assert!(e_end.is_finite() && e_end > 0.0);
    assert!(
        e_end < 2.0 * e0 && e_end > 0.3 * e0,
        "total energy must stay bounded: {e0} → {e_end}"
    );
    // The field-energy series itself contains no spikes (each step within
    // 3× of its neighbours once nonzero).
    for w in r.energy_history.windows(2) {
        if w[0] > 1e-12 {
            assert!(w[1] < 3.0 * w[0] + 1e-9, "spike: {} → {}", w[0], w[1]);
        }
    }
}

#[test]
fn momentum_drift_is_small() {
    // A thermal plasma with no external fields has zero mean momentum;
    // self-consistent field errors must not pump net momentum in. Run the
    // kernel loop directly on one slab.
    let cfg = XpicConfig::test_small();
    let grid = Grid::slab(cfg.nx, cfg.ny, 0, 1);
    let solver = FieldSolver::new(grid, &cfg);
    let mut species = Species::maxwellian_charged(
        &grid,
        cfg.sim_particles_per_cell,
        cfg.vth,
        -1.0,
        -1.0,
        cfg.seed,
    );
    let mut fields = Fields::zeros(&grid);
    let mut moments = Moments::zeros(&grid);
    let mut comm = SerialComm;

    let p0: f64 = species.vx.iter().sum::<f64>().abs() + species.vy.iter().sum::<f64>().abs();
    let thermal_scale = cfg.vth * (species.len() as f64).sqrt();

    deposit(&grid, &species, &mut moments);
    fold_ghosts_periodic(&grid, &mut moments);
    for _ in 0..10 {
        solver.calculate_e(&mut fields, &moments, &mut comm);
        boris_push(&grid, &fields, &mut species, cfg.dt);
        for y in species.y.iter_mut() {
            *y = y.rem_euclid(grid.ny as f64);
        }
        moments.clear();
        deposit(&grid, &species, &mut moments);
        fold_ghosts_periodic(&grid, &mut moments);
        solver.calculate_b(&mut fields, &mut comm);
    }
    let p1: f64 = species.vx.iter().sum::<f64>().abs() + species.vy.iter().sum::<f64>().abs();
    // Momentum stays at the initial thermal-noise level (no secular pump).
    assert!(
        p1 < p0 + 0.5 * thermal_scale,
        "momentum drift: {p0} → {p1} (thermal scale {thermal_scale})"
    );
}

#[test]
fn cold_plasma_oscillates_not_explodes() {
    // A cold (vth = 0) electron plasma with a small sinusoidal density
    // perturbation undergoes plasma oscillations: kinetic energy must
    // oscillate within bounds rather than grow monotonically.
    let cfg = XpicConfig {
        vth: 0.0,
        dt: 0.1,
        ..XpicConfig::test_small()
    };
    let grid = Grid::slab(cfg.nx, cfg.ny, 0, 1);
    let solver = FieldSolver::new(grid, &cfg);
    let mut species =
        Species::maxwellian_charged(&grid, cfg.sim_particles_per_cell, 0.0, -1.0, -1.0, cfg.seed);
    // Perturb positions sinusoidally in x.
    let nx = grid.nx as f64;
    for x in species.x.iter_mut() {
        let phase = 2.0 * std::f64::consts::PI * *x / nx;
        *x = (*x + 0.1 * phase.sin()).rem_euclid(nx);
    }
    let mut fields = Fields::zeros(&grid);
    let mut moments = Moments::zeros(&grid);
    let mut comm = SerialComm;
    let mut peak_ke = 0.0f64;
    for _ in 0..30 {
        moments.clear();
        deposit(&grid, &species, &mut moments);
        fold_ghosts_periodic(&grid, &mut moments);
        solver.calculate_e(&mut fields, &moments, &mut comm);
        boris_push(&grid, &fields, &mut species, cfg.dt);
        for y in species.y.iter_mut() {
            *y = y.rem_euclid(grid.ny as f64);
        }
        solver.calculate_b(&mut fields, &mut comm);
        peak_ke = peak_ke.max(kinetic_energy(&species));
    }
    let final_ke = kinetic_energy(&species);
    assert!(peak_ke > 0.0, "the perturbation must drive motion");
    assert!(
        final_ke <= peak_ke * 1.5 + 1e-12,
        "kinetic energy oscillates, it must not grow past its peak: {final_ke} vs {peak_ke}"
    );
}

#[test]
fn a_hair_above_row_zero_migrates_into_the_domain() {
    // A particle pushed to y = −1e−17 wraps to the top of the domain.
    // `f64::rem_euclid` rounds that to y = ny exactly, which two slabs
    // route to the owner of row 0, whose next deposit then reaches ny rows
    // outside its slab. The wrap must land on y = 0 instead.
    use cluster_booster::JobSpec;
    use xpic::solver::migrate_particles;

    let l = Launcher::new(
        SystemBuilder::new("t")
            .cluster_nodes(1)
            .booster_nodes(2)
            .build(),
    );
    let cfg = XpicConfig::test_small();
    l.launch(&JobSpec::booster_only("wrap", 2), move |rank, _| {
        let world = rank.world();
        let grid = Grid::slab(cfg.nx, cfg.ny, rank.rank(), 2);
        let mut species = Species {
            qom: -1.0,
            q_per_particle: -1.0,
            ..Species::default()
        };
        if rank.rank() == 0 {
            species.push_particle(3.0, -1e-17, 0.0, 0.0, 0.0);
        }
        let sent = migrate_particles(rank, &world, &grid, &mut species, &cfg)
            .expect("particle migration exchange");
        assert_eq!(sent, 0, "y = 0 belongs to slab 0");
        if rank.rank() == 0 {
            assert_eq!(species.y, [0.0]);
            let mut moments = Moments::zeros(&grid);
            deposit(&grid, &species, &mut moments);
            assert!((moments.rho.iter().sum::<f64>() + 1.0).abs() < 1e-12);
        } else {
            assert!(species.is_empty());
        }
    })
    .unwrap();
}
