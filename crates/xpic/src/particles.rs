//! Particle storage and initialization.
//!
//! Structure-of-arrays layout (the layout real PIC codes use for
//! vectorization). Positions are in global cell units; each rank owns the
//! particles whose `y` lies inside its slab. Initialization seeds one RNG
//! per *global row*, so any slab decomposition produces the identical
//! global particle population — the property behind the mode-equivalence
//! tests (Cluster-only ≡ Booster-only ≡ C+B physics).

use crate::config::XpicConfig;
use crate::grid::Grid;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One particle species on one rank (structure of arrays).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
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

    /// Initialize the slab's share of a uniform plasma: `ppc` particles
    /// per cell, Maxwellian velocities with thermal speed `vth`. Each
    /// global row uses its own RNG stream seeded from `(seed, row)`, so
    /// decomposition does not change the population.
    ///
    /// The electron default (charge −1 per cell, quasi-neutral against a
    /// static background). For explicit multi-species runs use
    /// [`Species::maxwellian_charged`].
    pub fn maxwellian(grid: &Grid, ppc: usize, vth: f64, qom: f64, seed: u64) -> Species {
        Species::maxwellian_charged(grid, ppc, vth, qom, -1.0, seed)
    }

    /// The initial population of every species `config` lists on `grid`'s
    /// slab, each species seeded from `config.seed` and its index — the
    /// start state of every xPic driver.
    pub fn from_config(config: &XpicConfig, grid: &Grid) -> Vec<Species> {
        let specs = config.species_specs();
        (specs.iter().zip(1u64..))
            .map(|(s, nth)| {
                let seed = config.seed ^ (nth << 56);
                Species::maxwellian_charged(grid, s.ppc, s.vth, s.qom, s.charge_per_cell, seed)
            })
            .collect()
    }

    /// [`Species::maxwellian`] with an explicit total charge per cell
    /// (negative for electrons, positive for ions), as in the paper's
    /// multi-species loop (`for is in 0..nspec`, Listing 1).
    pub fn maxwellian_charged(
        grid: &Grid,
        ppc: usize,
        vth: f64,
        qom: f64,
        charge_per_cell: f64,
        seed: u64,
    ) -> Species {
        let mut s = Species {
            qom,
            q_per_particle: charge_per_cell / ppc as f64,
            ..Species::default()
        };
        let n = grid.nx * ppc * grid.ny_local;
        s.x.reserve(n);
        s.y.reserve(n);
        s.vx.reserve(n);
        s.vy.reserve(n);
        s.vz.reserve(n);
        for row in grid.y0..grid.y0 + grid.ny_local {
            let mut rng =
                StdRng::seed_from_u64(seed ^ (row as u64).wrapping_mul(0x9E3779B97F4A7C15));
            for i in 0..grid.nx {
                for _ in 0..ppc {
                    s.x.push(i as f64 + rng.gen::<f64>());
                    s.y.push(row as f64 + rng.gen::<f64>());
                    s.vx.push(gaussian(&mut rng) * vth);
                    s.vy.push(gaussian(&mut rng) * vth);
                    s.vz.push(gaussian(&mut rng) * vth);
                }
            }
        }
        s
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
        let s = Species::maxwellian(&g, 4, 0.1, -1.0, 1);
        assert_eq!(s.len(), 8 * 8 * 4);
        assert!(!s.is_empty());
        // Positions inside the domain.
        assert!(s.x.iter().all(|&x| (0.0..8.0).contains(&x)));
        assert!(s.y.iter().all(|&y| (0.0..8.0).contains(&y)));
    }

    #[test]
    fn decomposition_invariant_population() {
        // The union of two slabs' particles equals the single-slab set.
        let whole = Species::maxwellian(&Grid::slab(4, 8, 0, 1), 2, 0.1, -1.0, 7);
        let top = Species::maxwellian(&Grid::slab(4, 8, 0, 2), 2, 0.1, -1.0, 7);
        let bot = Species::maxwellian(&Grid::slab(4, 8, 1, 2), 2, 0.1, -1.0, 7);
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
        let s = Species::maxwellian(&g, 16, vth, -1.0, 3);
        let n = s.len() as f64;
        let mean: f64 = s.vx.iter().sum::<f64>() / n;
        let var: f64 = s.vx.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var.sqrt() - vth).abs() / vth < 0.05, "σ {}", var.sqrt());
    }

    #[test]
    fn take_swap_removes() {
        let g = Grid::slab(2, 2, 0, 1);
        let mut s = Species::maxwellian(&g, 1, 0.0, -1.0, 1);
        let n = s.len();
        let p = s.take(0);
        assert_eq!(s.len(), n - 1);
        assert!(p.0 >= 0.0);
    }

    #[test]
    fn charge_and_energy() {
        let g = Grid::slab(4, 4, 0, 1);
        let s = Species::maxwellian(&g, 2, 0.1, -1.0, 1);
        // q/particle = −1/ppc → total charge = −cells.
        assert!((s.total_charge() + 16.0).abs() < 1e-12);
        assert!(s.kinetic_energy() > 0.0);
        let cold = Species::maxwellian(&g, 2, 0.0, -1.0, 1);
        assert_eq!(cold.kinetic_energy(), 0.0);
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
