//! Particle storage and initialization.
//!
//! Structure-of-arrays layout (the layout real PIC codes use for
//! vectorization). Positions are in global cell units; each rank owns the
//! particles whose `y` lies inside its slab. Initialization seeds one RNG
//! per *global row*, so any slab decomposition produces the identical
//! global particle population — the property behind the mode-equivalence
//! tests (Cluster-only ≡ Booster-only ≡ C+B physics).
//!
//! A row is a pure function of its key, so [`Species::from_config`] draws
//! each row once per process and copies it on every later run of the same
//! configuration (DESIGN.md §3.1).

use crate::config::XpicConfig;
use crate::grid::Grid;
use lockrank::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// One particle species on one rank (structure of arrays).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Species {
    /// Charge/mass ratio (normalized; electrons: −1).
    pub qom: f64,
    /// Charge carried by each macro-particle.
    pub q_per_particle: f64,
    /// Position x, in cell units, ∈ [0, nx): the mover folds it back with
    /// [`crate::grid::wrap_periodic`], which never returns `nx` itself.
    pub x: Vec<f64>,
    /// Position y, in cell units. Global and ∈ [0, ny) after each
    /// migration (the same fold); between the push and the migration it
    /// may sit up to one step's travel outside the owning slab.
    pub y: Vec<f64>,
    /// Velocity x.
    pub vx: Vec<f64>,
    /// Velocity y.
    pub vy: Vec<f64>,
    /// Velocity z.
    pub vz: Vec<f64>,
}

impl Species {
    /// Number of particles currently on this rank.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Whether the rank holds no particles.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// The initial population `config` sets on `grid`'s slab: one
    /// species, electrons of charge −1 per cell, seeded from `config.seed`
    /// — the start state of every xPic driver. Bit for bit
    /// [`Species::maxwellian_charged`]; its rows come from the process's
    /// plasma memo, which draws a row only the first time a configuration
    /// asks for it.
    pub fn from_config(config: &XpicConfig, grid: &Grid) -> Vec<Species> {
        let key = PlasmaKey::of(config, grid.nx);
        let ppc = config.sim_particles_per_cell;
        let mut s = Species::empty(ppc, -1.0, -1.0);
        s.reserve(grid.nx * ppc * grid.ny_local);
        for row in grid.y0..grid.y0 + grid.ny_local {
            let hit = PLASMA.lock().row(key, row);
            let drawn = hit.unwrap_or_else(|| {
                let mut drawn = Species::default();
                drawn.reserve(grid.nx * ppc);
                drawn.draw_row(grid.nx, ppc, config.vth, key.seed, row);
                let drawn = Arc::new(drawn);
                PLASMA.lock().insert(key, row, drawn.clone());
                drawn
            });
            s.x.extend_from_slice(&drawn.x);
            s.y.extend_from_slice(&drawn.y);
            s.vx.extend_from_slice(&drawn.vx);
            s.vy.extend_from_slice(&drawn.vy);
            s.vz.extend_from_slice(&drawn.vz);
        }
        vec![s]
    }

    /// Initialize the slab's share of a uniform plasma: `ppc` particles
    /// per cell, Maxwellian velocities with thermal speed `vth`, and a
    /// total charge per cell (−1 for the electrons
    /// [`Species::from_config`] seeds, quasi-neutral against a static ion
    /// background) and charge/mass ratio `qom`. Each global
    /// row uses its own RNG stream seeded from `(seed, row)`, so
    /// decomposition does not change the population. Draws every row
    /// afresh: the reference [`Species::from_config`] is held to.
    pub fn maxwellian_charged(
        grid: &Grid,
        ppc: usize,
        vth: f64,
        qom: f64,
        charge_per_cell: f64,
        seed: u64,
    ) -> Species {
        let mut s = Species::empty(ppc, qom, charge_per_cell);
        s.reserve(grid.nx * ppc * grid.ny_local);
        for row in grid.y0..grid.y0 + grid.ny_local {
            s.draw_row(grid.nx, ppc, vth, seed, row);
        }
        s
    }

    /// No particles yet, `ppc` of them to carry `charge_per_cell`.
    fn empty(ppc: usize, qom: f64, charge_per_cell: f64) -> Species {
        Species {
            qom,
            q_per_particle: charge_per_cell / ppc as f64,
            ..Species::default()
        }
    }

    fn reserve(&mut self, n: usize) {
        self.x.reserve(n);
        self.y.reserve(n);
        self.vx.reserve(n);
        self.vy.reserve(n);
        self.vz.reserve(n);
    }

    /// Append global row `row` of the `nx`-cell-wide population seeded
    /// `seed`: `ppc` particles per cell, from the row's own RNG stream.
    fn draw_row(&mut self, nx: usize, ppc: usize, vth: f64, seed: u64, row: usize) {
        let mut rng = StdRng::seed_from_u64(seed ^ (row as u64).wrapping_mul(0x9E3779B97F4A7C15));
        for i in 0..nx {
            for _ in 0..ppc {
                self.x.push(i as f64 + rng.gen::<f64>());
                self.y.push(row as f64 + rng.gen::<f64>());
                self.vx.push(gaussian(&mut rng) * vth);
                self.vy.push(gaussian(&mut rng) * vth);
                self.vz.push(gaussian(&mut rng) * vth);
            }
        }
    }

    /// Append one particle.
    pub fn push_particle(&mut self, x: f64, y: f64, vx: f64, vy: f64, vz: f64) {
        self.x.push(x);
        self.y.push(y);
        self.vx.push(vx);
        self.vy.push(vy);
        self.vz.push(vz);
    }

    /// Remove particle `i` (swap-remove; order is not meaningful) and
    /// return its state.
    pub fn take(&mut self, i: usize) -> (f64, f64, f64, f64, f64) {
        let out = (self.x[i], self.y[i], self.vx[i], self.vy[i], self.vz[i]);
        self.x.swap_remove(i);
        self.y.swap_remove(i);
        self.vx.swap_remove(i);
        self.vy.swap_remove(i);
        self.vz.swap_remove(i);
        out
    }

    /// Kinetic energy of the rank's particles: Σ ½ m v² with m = |q|/|qom|.
    pub fn kinetic_energy(&self) -> f64 {
        let m = (self.q_per_particle / self.qom).abs();
        0.5 * m
            * self
                .x
                .iter()
                .enumerate()
                .map(|(i, _)| {
                    self.vx[i] * self.vx[i] + self.vy[i] * self.vy[i] + self.vz[i] * self.vz[i]
                })
                .sum::<f64>()
    }

    /// Total charge carried by the rank's particles.
    pub fn total_charge(&self) -> f64 {
        self.q_per_particle * self.len() as f64
    }
}

/// The key of a configuration's electron rows: the seed (from
/// `config.seed`), `nx`, `ppc` and `vth` (as bits) fix the particles of a
/// row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PlasmaKey {
    seed: u64,
    nx: usize,
    ppc: usize,
    vth: u64,
}

impl PlasmaKey {
    fn of(config: &XpicConfig, nx: usize) -> PlasmaKey {
        PlasmaKey {
            // The first species' index in the seed's top byte.
            seed: config.seed ^ (1 << 56),
            nx,
            ppc: config.sim_particles_per_cell,
            vth: config.vth.to_bits(),
        }
    }
}

/// The rows of one configuration's initial plasma drawn so far in this
/// process, shared by every slab decomposition of it. A row of another
/// configuration replaces them all, so the memo never holds more than one
/// population.
struct Plasma {
    /// The configuration the rows belong to; `None` before the first draw.
    key: Option<PlasmaKey>,
    /// Per global row: the row's particles once drawn (a `Species` whose
    /// `qom` and charge go unused).
    rows: Vec<Option<Arc<Species>>>,
}

/// Held for one lookup or one insert, under no other lock and taking none;
/// rank 110 of the xPic band (`lockrank`'s table).
static PLASMA: Mutex<Plasma, 110> = Mutex::new(Plasma {
    key: None,
    rows: Vec::new(),
});

impl Plasma {
    /// Row `row` of the configuration `key`, if drawn.
    fn row(&self, key: PlasmaKey, row: usize) -> Option<Arc<Species>> {
        if self.key != Some(key) {
            return None;
        }
        self.rows.get(row)?.clone()
    }

    /// Hold `drawn` as row `row` of `key`, first letting go of another
    /// configuration's rows.
    fn insert(&mut self, key: PlasmaKey, row: usize, drawn: Arc<Species>) {
        if self.key != Some(key) {
            self.key = Some(key);
            self.rows = Vec::new();
        }
        if self.rows.len() <= row {
            self.rows.resize(row + 1, None);
        }
        self.rows[row] = Some(drawn);
    }
}

/// Standard normal via Box–Muller (avoids a rand_distr dependency).
pub fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-300);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxwellian_population_counts() {
        let g = Grid::slab(8, 8, 0, 1);
        let s = Species::maxwellian_charged(&g, 4, 0.1, -1.0, -1.0, 1);
        assert_eq!(s.len(), 8 * 8 * 4);
        assert!(!s.is_empty());
        // Positions inside the domain.
        assert!(s.x.iter().all(|&x| (0.0..8.0).contains(&x)));
        assert!(s.y.iter().all(|&y| (0.0..8.0).contains(&y)));
    }

    #[test]
    fn decomposition_invariant_population() {
        // The union of two slabs' particles equals the single-slab set.
        let whole = Species::maxwellian_charged(&Grid::slab(4, 8, 0, 1), 2, 0.1, -1.0, -1.0, 7);
        let top = Species::maxwellian_charged(&Grid::slab(4, 8, 0, 2), 2, 0.1, -1.0, -1.0, 7);
        let bot = Species::maxwellian_charged(&Grid::slab(4, 8, 1, 2), 2, 0.1, -1.0, -1.0, 7);
        assert_eq!(whole.len(), top.len() + bot.len());
        let mut merged_x: Vec<f64> = top.x.iter().chain(&bot.x).copied().collect();
        let mut whole_x = whole.x.clone();
        merged_x.sort_by(f64::total_cmp);
        whole_x.sort_by(f64::total_cmp);
        assert_eq!(merged_x, whole_x);
    }

    #[test]
    fn velocities_look_maxwellian() {
        let g = Grid::slab(16, 16, 0, 1);
        let vth = 0.25;
        let s = Species::maxwellian_charged(&g, 16, vth, -1.0, -1.0, 3);
        let n = s.len() as f64;
        let mean: f64 = s.vx.iter().sum::<f64>() / n;
        let var: f64 = s.vx.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var.sqrt() - vth).abs() / vth < 0.05, "σ {}", var.sqrt());
    }

    #[test]
    fn take_swap_removes() {
        let g = Grid::slab(2, 2, 0, 1);
        let mut s = Species::maxwellian_charged(&g, 1, 0.0, -1.0, -1.0, 1);
        let n = s.len();
        let p = s.take(0);
        assert_eq!(s.len(), n - 1);
        assert!(p.0 >= 0.0);
    }

    #[test]
    fn charge_and_energy() {
        let g = Grid::slab(4, 4, 0, 1);
        let s = Species::maxwellian_charged(&g, 2, 0.1, -1.0, -1.0, 1);
        // q/particle = −1/ppc → total charge = −cells.
        assert!((s.total_charge() + 16.0).abs() < 1e-12);
        assert!(s.kinetic_energy() > 0.0);
        let cold = Species::maxwellian_charged(&g, 2, 0.0, -1.0, -1.0, 1);
        assert_eq!(cold.kinetic_energy(), 0.0);
    }

    /// Every field of `s` as bits, so that `-0.0` and NaN compare exactly.
    fn bits(s: &Species) -> Vec<Vec<u64>> {
        let columns = [&s.x, &s.y, &s.vx, &s.vy, &s.vz];
        let mut out = vec![vec![s.qom.to_bits(), s.q_per_particle.to_bits()]];
        out.extend(columns.map(|c| c.iter().map(|v| v.to_bits()).collect()));
        out
    }

    /// The electrons of `config` on `grid`, drawn afresh.
    fn reference(config: &XpicConfig, grid: &Grid) -> Vec<Vec<Vec<u64>>> {
        let seed = config.seed ^ (1 << 56);
        let (ppc, vth) = (config.sim_particles_per_cell, config.vth);
        vec![bits(&Species::maxwellian_charged(
            grid, ppc, vth, -1.0, -1.0, seed,
        ))]
    }

    fn from_config_bits(config: &XpicConfig, grid: &Grid) -> Vec<Vec<Vec<u64>>> {
        Species::from_config(config, grid)
            .iter()
            .map(bits)
            .collect()
    }

    fn memo_config(seed: u64) -> XpicConfig {
        XpicConfig {
            nx: 6,
            ny: 8,
            sim_particles_per_cell: 3,
            seed,
            ..XpicConfig::test_small()
        }
    }

    /// The memo is one per process, so its tests run one after another in
    /// one test; no other test of this crate seeds a plasma.
    #[test]
    fn plasma_memo() {
        from_config_is_the_fresh_draw_on_every_decomposition_and_call();
        a_config_differing_in_one_key_value_gets_its_own_population();
        a_second_configuration_lets_go_of_the_first_ones_rows();
    }

    fn from_config_is_the_fresh_draw_on_every_decomposition_and_call() {
        for config in [memo_config(1), memo_config(2)] {
            for nranks in [1, 2, 4, 8] {
                for rank in 0..nranks {
                    let grid = Grid::slab(config.nx, config.ny, rank, nranks);
                    let want = reference(&config, &grid);
                    let first = from_config_bits(&config, &grid);
                    assert!(first == want, "slab {rank}/{nranks}, first call");
                    // Every row of the slab is held, so the second call
                    // copies them all.
                    let key = PlasmaKey::of(&config, grid.nx);
                    for row in grid.y0..grid.y0 + grid.ny_local {
                        assert!(PLASMA.lock().row(key, row).is_some());
                    }
                    let second = from_config_bits(&config, &grid);
                    assert!(second == want, "slab {rank}/{nranks}, second call");
                }
            }
        }
    }

    fn a_config_differing_in_one_key_value_gets_its_own_population() {
        let base = memo_config(3);
        type Vary = fn(&mut XpicConfig);
        let variants: [(&str, Vary); 4] = [
            ("seed", |c| c.seed += 1),
            ("nx", |c| c.nx += 1),
            ("sim_particles_per_cell", |c| c.sim_particles_per_cell += 1),
            ("vth", |c| c.vth *= 2.0),
        ];
        for (what, vary) in variants {
            let mut config = base.clone();
            vary(&mut config);
            for nranks in [1, 2] {
                let grid = Grid::slab(config.nx, config.ny, nranks - 1, nranks);
                let base_grid = Grid::slab(base.nx, base.ny, nranks - 1, nranks);
                let first = from_config_bits(&base, &base_grid);
                let varied = from_config_bits(&config, &grid);
                assert!(
                    varied == reference(&config, &grid),
                    "{what}, {nranks} slabs"
                );
                assert!(varied != first, "{what} changed no particle");
            }
        }
    }

    fn a_second_configuration_lets_go_of_the_first_ones_rows() {
        let (first, second) = (memo_config(4), memo_config(5));
        let grid = Grid::slab(first.nx, first.ny, 0, 1);
        let first_key = PlasmaKey::of(&first, grid.nx);
        let row = |key: PlasmaKey| PLASMA.lock().row(key, 0);
        Species::from_config(&first, &grid);
        let held = Arc::downgrade(&row(first_key).expect("the memo holds a row just drawn"));
        Species::from_config(&second, &grid);
        assert!(row(first_key).is_none());
        assert!(
            held.upgrade().is_none(),
            "a row of the first config is still alive"
        );
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01);
        assert!((var - 1.0).abs() < 0.02);
    }
}
