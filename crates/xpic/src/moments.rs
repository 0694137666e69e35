//! Moment gathering: deposit charge and current onto the grid
//! (ParticleMoments of Listing 1).
//!
//! Each particle scatters `q` and `q·v` to the four surrounding cell
//! centers with the same bilinear weights the mover gathers with —
//! the standard consistency requirement (no self-force). Particles near
//! the slab edge deposit into the ghost rows; the solver driver adds each
//! ghost row into the neighbouring rank's border row afterwards
//! (deposit-then-migrate, so the halo-add and the particle migration are
//! separate, overlappable steps).

use crate::grid::{Grid, Moments, Stencil};
use crate::par;
use crate::particles::Species;
use std::ops::Range;

/// Deposit one species' moments. Ghost rows accumulate boundary spillover
/// to be halo-added by the caller.
pub fn deposit(grid: &Grid, species: &Species, moments: &mut Moments) {
    deposit_range(grid, species, moments, 0..species.len());
}

/// Deposit the particles of one index range (one chunk of the fixed
/// reduction grid) into a partial accumulation buffer.
fn deposit_range(grid: &Grid, species: &Species, moments: &mut Moments, particles: Range<usize>) {
    let q = species.q_per_particle;
    for p in particles {
        let st = Stencil::at(grid, species.x[p], grid.to_local_y(species.y[p]));
        let (vx, vy, vz) = (species.vx[p], species.vy[p], species.vz[p]);
        for (k, wt) in st.k.into_iter().zip(st.w) {
            let qw = q * wt;
            moments.rho[k] += qw;
            moments.jx[k] += qw * vx;
            moments.jy[k] += qw * vy;
            moments.jz[k] += qw * vz;
        }
    }
}

/// [`deposit`] executed on up to `threads` OS threads (`0` = all cores).
///
/// The scatter is a reduction (many particles hit the same cell), so the
/// particle population is cut into a **fixed chunk grid** — a function of
/// the particle count only, never of the thread count (see [`par`]) — each
/// chunk accumulates from zero into a partial [`Moments`] buffer, and the
/// partials are added to `moments` serially in chunk order. The
/// floating-point result is therefore bit-identical for every thread
/// count; against the legacy single-buffer [`deposit`] it differs only in
/// summation association (≤ 1e-12 relative, guarded by a property test).
///
/// Only `threads` chunks are ever in flight, so only that many partial
/// buffers exist: the chunk grid is walked in waves of `threads` chunks,
/// and a buffer is zeroed again as it is merged, ready for the next wave.
pub fn deposit_threads(grid: &Grid, species: &Species, moments: &mut Moments, threads: usize) {
    let n = species.len();
    let chunks = par::reduction_chunks(n);
    if chunks <= 1 {
        // One chunk ⇒ the chunked accumulation degenerates to the serial
        // order exactly; skip the partial buffer.
        deposit_range(grid, species, moments, 0..n);
        return;
    }
    let ranges = par::chunk_ranges(n, chunks);
    let threads = par::resolve_threads(threads).clamp(1, ranges.len());
    let mut partials: Vec<Moments> = (0..threads).map(|_| Moments::zeros(grid)).collect();
    for wave in ranges.chunks(threads) {
        let tasks: Vec<(Range<usize>, &mut Moments)> =
            wave.iter().cloned().zip(partials.iter_mut()).collect();
        par::run_tasks(threads, tasks, |(r, part)| {
            deposit_range(grid, species, part, r)
        });
        // Merge in chunk order — a fixed association of the sums. Every
        // cell is added, untouched zeros included, exactly as if each
        // chunk had its own buffer.
        for part in &mut partials[..wave.len()] {
            for (dst, src) in moments
                .components_mut()
                .into_iter()
                .zip(part.components_mut())
            {
                for (d, s) in dst.iter_mut().zip(src.iter_mut()) {
                    *d += *s;
                    *s = 0.0;
                }
            }
        }
    }
}

/// Fold the ghost rows of `moments` into the adjacent owned rows *locally*
/// (single-rank periodic case: top ghost wraps to the last owned row,
/// bottom ghost to the first).
pub fn fold_ghosts_periodic(grid: &Grid, moments: &mut Moments) {
    let ny = grid.ny_local as isize;
    let (top_ghost, bottom_ghost) = (grid.row(-1).start, grid.row(ny).start);
    let (first_row, last_row) = (grid.row(0).start, grid.row(ny - 1).start);
    for comp in moments.components_mut() {
        for i in 0..grid.nx {
            comp[last_row + i] += comp[top_ghost + i];
            comp[first_row + i] += comp[bottom_ghost + i];
            comp[top_ghost + i] = 0.0;
            comp[bottom_ghost + i] = 0.0;
        }
    }
}

/// Extract a ghost row of all four components (for sending to a
/// neighbour): `top` = the row above the slab (local j = −1).
pub fn extract_ghost_row(grid: &Grid, moments: &Moments, top: bool) -> Vec<f64> {
    let j = if top { -1 } else { grid.ny_local as isize };
    let mut out = Vec::with_capacity(4 * grid.nx);
    for comp in moments.components() {
        out.extend_from_slice(&comp[grid.row(j)]);
    }
    out
}

/// Add a received neighbour ghost-row contribution into an owned border
/// row: `top` = add into the first owned row (contribution from the upper
/// neighbour's bottom ghost).
pub fn add_into_border_row(grid: &Grid, moments: &mut Moments, data: &[f64], top: bool) {
    assert_eq!(data.len(), 4 * grid.nx);
    let j = if top { 0 } else { grid.ny_local as isize - 1 };
    for (c, comp) in moments.components_mut().into_iter().enumerate() {
        let add = &data[c * grid.nx..(c + 1) * grid.nx];
        for (v, a) in comp[grid.row(j)].iter_mut().zip(add) {
            *v += *a;
        }
    }
}

/// Zero the ghost rows after their contents have been shipped.
pub fn clear_ghosts(grid: &Grid, moments: &mut Moments) {
    for comp in moments.components_mut() {
        comp[grid.row(-1)].fill(0.0);
        comp[grid.row(grid.ny_local as isize)].fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::particles::Species;

    fn electron_at(x: f64, y: f64, v: (f64, f64, f64)) -> Species {
        let mut s = Species {
            qom: -1.0,
            q_per_particle: -1.0,
            ..Species::default()
        };
        s.push_particle(x, y, v.0, v.1, v.2);
        s
    }

    #[test]
    fn deposit_conserves_charge() {
        let g = Grid::slab(8, 8, 0, 1);
        let s = Species::maxwellian(&g, 4, 0.1, -1.0, 9);
        let mut m = Moments::zeros(&g);
        deposit(&g, &s, &mut m);
        fold_ghosts_periodic(&g, &mut m);
        let total: f64 = m.total_charge(&g);
        assert!(
            (total - s.total_charge()).abs() < 1e-9,
            "deposited {total} vs carried {}",
            s.total_charge()
        );
    }

    #[test]
    fn particle_at_center_deposits_to_one_cell() {
        let g = Grid::slab(8, 8, 0, 1);
        let s = electron_at(3.5, 2.5, (1.0, 2.0, 3.0));
        let mut m = Moments::zeros(&g);
        deposit(&g, &s, &mut m);
        let k = g.idx(3, 2);
        assert!((m.rho[k] + 1.0).abs() < 1e-12);
        assert!((m.jx[k] + 1.0).abs() < 1e-12);
        assert!((m.jy[k] + 2.0).abs() < 1e-12);
        assert!((m.jz[k] + 3.0).abs() < 1e-12);
        // Nothing anywhere else.
        let sum: f64 = m.rho.iter().sum();
        assert!((sum + 1.0).abs() < 1e-12);
    }

    #[test]
    fn midpoint_particle_splits_evenly() {
        let g = Grid::slab(8, 8, 0, 1);
        let s = electron_at(3.0, 3.0, (0.0, 0.0, 0.0)); // corner of 4 centers
        let mut m = Moments::zeros(&g);
        deposit(&g, &s, &mut m);
        for (i, j) in [(2, 2), (3, 2), (2, 3), (3, 3)] {
            assert!((m.rho[g.idx(i, j)] + 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn threaded_deposit_is_thread_count_invariant() {
        // Large enough for a multi-chunk reduction grid.
        let g = Grid::slab(8, 8, 0, 1);
        let s = Species::maxwellian(&g, 600, 0.3, -1.0, 13);
        assert!(crate::par::reduction_chunks(s.len()) > 1);
        let mut reference = Moments::zeros(&g);
        deposit_threads(&g, &s, &mut reference, 1);
        for threads in [2usize, 4, 8] {
            let mut m = Moments::zeros(&g);
            deposit_threads(&g, &s, &mut m, threads);
            assert_eq!(m, reference, "threads={threads} must be bit-exact");
        }
        // And the chunked result agrees with the legacy serial order to
        // rounding accumulation.
        let mut serial = Moments::zeros(&g);
        deposit(&g, &s, &mut serial);
        for (a, b) in reference.components().into_iter().zip(serial.components()) {
            for (x, y) in a.iter().zip(b.iter()) {
                assert!((x - y).abs() <= 1e-12 * x.abs().max(y.abs()).max(1.0));
            }
        }
    }

    #[test]
    fn small_population_deposit_matches_serial_exactly() {
        // Below the chunking threshold the threaded entry point is the
        // serial accumulation, bit for bit.
        let g = Grid::slab(8, 8, 0, 1);
        let s = Species::maxwellian(&g, 4, 0.3, -1.0, 17);
        let mut serial = Moments::zeros(&g);
        deposit(&g, &s, &mut serial);
        let mut threaded = Moments::zeros(&g);
        deposit_threads(&g, &s, &mut threaded, 8);
        assert_eq!(threaded, serial);
    }

    #[test]
    fn ghost_row_transfer_matches_periodic_fold() {
        // Two slabs exchanging ghost rows must reproduce the single-slab
        // periodic fold (decomposition invariance of the deposit).
        let nx = 4;
        let ny = 8;
        let ppc = 3;
        let whole_g = Grid::slab(nx, ny, 0, 1);
        let whole_s = Species::maxwellian(&whole_g, ppc, 0.4, -1.0, 21);
        let mut whole_m = Moments::zeros(&whole_g);
        deposit(&whole_g, &whole_s, &mut whole_m);
        fold_ghosts_periodic(&whole_g, &mut whole_m);

        let g0 = Grid::slab(nx, ny, 0, 2);
        let g1 = Grid::slab(nx, ny, 1, 2);
        let s0 = Species::maxwellian(&g0, ppc, 0.4, -1.0, 21);
        let s1 = Species::maxwellian(&g1, ppc, 0.4, -1.0, 21);
        let mut m0 = Moments::zeros(&g0);
        let mut m1 = Moments::zeros(&g1);
        deposit(&g0, &s0, &mut m0);
        deposit(&g1, &s1, &mut m1);
        // Exchange: slab0's bottom ghost is slab1's first row, etc.
        // (periodic: slab0's top ghost belongs to slab1's last row).
        let g0_top = extract_ghost_row(&g0, &m0, true);
        let g0_bot = extract_ghost_row(&g0, &m0, false);
        let g1_top = extract_ghost_row(&g1, &m1, true);
        let g1_bot = extract_ghost_row(&g1, &m1, false);
        add_into_border_row(&g1, &mut m1, &g0_bot, true); // slab0 spill ↓ into slab1 row 0
        add_into_border_row(&g1, &mut m1, &g0_top, false); // wrap: spill ↑ into slab1 last row
        add_into_border_row(&g0, &mut m0, &g1_bot, true); // wrap: slab1 spill ↓ into slab0 row 0
        add_into_border_row(&g0, &mut m0, &g1_top, false); // slab1 spill ↑ into slab0 last row
        clear_ghosts(&g0, &mut m0);
        clear_ghosts(&g1, &mut m1);

        for j in 0..g0.ny_local as isize {
            for i in 0..nx as isize {
                let a = m0.rho[g0.idx(i, j)];
                let b = whole_m.rho[whole_g.idx(i, j)];
                assert!((a - b).abs() < 1e-12, "slab0 ({i},{j}): {a} vs {b}");
            }
        }
        for j in 0..g1.ny_local as isize {
            for i in 0..nx as isize {
                let a = m1.rho[g1.idx(i, j)];
                let b = whole_m.rho[whole_g.idx(i, (g1.y0 as isize) + j - whole_g.y0 as isize)];
                assert!((a - b).abs() < 1e-12, "slab1 ({i},{j}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn gather_deposit_are_adjoint_for_constant_field() {
        // Depositing then summing rho×field == q × gathered field when the
        // field is constant (weight partition of unity).
        let g = Grid::slab(8, 8, 0, 1);
        let s = electron_at(2.7, 5.3, (0.0, 0.0, 0.0));
        let mut m = Moments::zeros(&g);
        deposit(&g, &s, &mut m);
        let total: f64 = m.rho.iter().sum();
        assert!((total + 1.0).abs() < 1e-12, "weights sum to 1");
    }
}
