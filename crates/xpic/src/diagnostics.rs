//! Energy and conservation diagnostics.
//!
//! These are the "auxiliary computations" of §IV-B — "the computations of
//! particle and field energy, the post-processing of data, and writing
//! output files" — that the C+B main loops overlap with the nonblocking
//! inter-module transfers. They also back the physics tests: total charge
//! is exactly conserved by the deposit, and the field/kinetic energies
//! must stay bounded in a stable run.

use crate::grid::{Fields, Grid};
use crate::particles::Species;

/// Field energy on the owned cells: Σ (|E|² + |B|²) / 2.
pub fn field_energy(grid: &Grid, fields: &Fields) -> f64 {
    let mut e = 0.0;
    for j in 0..grid.ny_local as isize {
        let [ex, ey, ez, bx, by, bz] = fields.components().map(|c| &c[grid.row(j)]);
        for i in 0..grid.nx {
            e += ex[i] * ex[i]
                + ey[i] * ey[i]
                + ez[i] * ez[i]
                + bx[i] * bx[i]
                + by[i] * by[i]
                + bz[i] * bz[i];
        }
    }
    0.5 * e
}

/// Kinetic energy of the rank's particles.
pub fn kinetic_energy(species: &Species) -> f64 {
    species.kinetic_energy()
}

/// Histogram of one velocity component over `bins` equal bins spanning
/// `[-v_max, v_max]` — the velocity-distribution diagnostic the paper's
/// "moment gathering" ultimately feeds ("collects statistical information
/// about their ... velocity distribution", §IV-A). Out-of-range particles
/// land in the edge bins.
pub fn velocity_histogram(values: &[f64], bins: usize, v_max: f64) -> Vec<u64> {
    assert!(bins >= 1 && v_max > 0.0);
    let mut h = vec![0u64; bins];
    let width = 2.0 * v_max / bins as f64;
    for &v in values {
        let idx = (((v + v_max) / width).floor() as i64).clamp(0, bins as i64 - 1);
        h[idx as usize] += 1;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;

    #[test]
    fn zero_fields_zero_energy() {
        let g = Grid::slab(8, 8, 0, 1);
        let f = Fields::zeros(&g);
        assert_eq!(field_energy(&g, &f), 0.0);
    }

    #[test]
    fn uniform_field_energy_counts_owned_cells_only() {
        let g = Grid::slab(4, 8, 0, 2);
        let mut f = Fields::zeros(&g);
        for v in f.ex.iter_mut() {
            *v = 2.0;
        }
        // 4 × 4 owned cells × (2²)/2 = 32, ghosts excluded.
        assert_eq!(field_energy(&g, &f), 32.0);
    }

    #[test]
    fn velocity_histogram_counts_and_shape() {
        use crate::particles::Species;
        let g = Grid::slab(16, 16, 0, 1);
        let s = Species::maxwellian(&g, 8, 0.2, -1.0, 11);
        let h = velocity_histogram(&s.vx, 21, 1.0);
        assert_eq!(
            h.iter().sum::<u64>() as usize,
            s.len(),
            "every particle binned"
        );
        // Maxwellian: the central bin dominates and the histogram is
        // roughly symmetric.
        let center = h[10];
        assert!(center > h[2] && center > h[18]);
        let left: u64 = h[..10].iter().sum();
        let right: u64 = h[11..].iter().sum();
        let asym = (left as f64 - right as f64).abs() / (left + right) as f64;
        assert!(asym < 0.1, "asymmetry {asym}");
        // Out-of-range values clamp to edges.
        let h2 = velocity_histogram(&[10.0, -10.0], 5, 1.0);
        assert_eq!(h2[0], 1);
        assert_eq!(h2[4], 1);
    }

    #[test]
    fn energy_additive_over_slabs() {
        let g0 = Grid::slab(4, 8, 0, 2);
        let g1 = Grid::slab(4, 8, 1, 2);
        let whole = Grid::slab(4, 8, 0, 1);
        let mk = |g: &Grid| {
            let mut f = Fields::zeros(g);
            for j in 0..g.ny_local as isize {
                for i in 0..g.nx as isize {
                    let gy = g.y0 as isize + j;
                    f.bz[g.idx(i, j)] = (gy * 4 + i) as f64;
                }
            }
            f
        };
        let total = field_energy(&whole, &mk(&whole));
        let split = field_energy(&g0, &mk(&g0)) + field_energy(&g1, &mk(&g1));
        assert!((total - split).abs() < 1e-12);
    }
}
