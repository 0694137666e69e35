//! The particle mover: bilinear field gather + Boris push
//! (ParticlesMove of Listing 1).
//!
//! Fields are gathered at each particle with bilinear (cloud-in-cell)
//! weights from the four surrounding cell centers, then velocities are
//! advanced with the Boris rotation (exact energy conservation in a pure
//! magnetic field) and positions with the new velocity. Positions wrap
//! periodically in x; in y they may leave the slab — migration to the
//! neighbour rank is the solver driver's job.

use crate::grid::{wrap_periodic, Fields, Grid, Stencil};
use crate::par;
use crate::particles::Species;

/// Bilinear interpolation of one field array at (x, y) in local cell
/// coordinates (y relative to the slab, may reach into the ghost rows).
/// The mover itself builds the [`Stencil`] once per particle and applies
/// it to all six components.
#[inline]
pub fn gather(grid: &Grid, field: &[f64], x: f64, y: f64) -> f64 {
    Stencil::at(grid, x, y).apply(field)
}

/// One contiguous block of a species' structure-of-arrays storage, handed
/// to a worker thread by [`boris_push_threads`].
struct PushChunk<'a> {
    x: &'a mut [f64],
    y: &'a mut [f64],
    vx: &'a mut [f64],
    vy: &'a mut [f64],
    vz: &'a mut [f64],
}

/// The per-particle Boris kernel over one chunk. Each particle reads and
/// writes only its own state (fields are read-only), so any chunking is
/// bit-exact with the serial loop.
fn push_chunk(grid: &Grid, fields: &Fields, qom_half_dt: f64, dt: f64, c: PushChunk<'_>) {
    let nx = grid.nx as f64;
    for p in 0..c.x.len() {
        let lx = c.x[p];
        let ly = grid.to_local_y(c.y[p]);
        debug_assert!(
            (-1.0..=(grid.ny_local as f64 + 1.0)).contains(&ly),
            "particle outside slab+ghost region: ly={ly}"
        );
        let st = Stencil::at(grid, lx, ly);
        let ex = st.apply(&fields.ex);
        let ey = st.apply(&fields.ey);
        let ez = st.apply(&fields.ez);
        let bx = st.apply(&fields.bx);
        let by = st.apply(&fields.by);
        let bz = st.apply(&fields.bz);

        // Half electric acceleration.
        let mut vx = c.vx[p] + qom_half_dt * ex;
        let mut vy = c.vy[p] + qom_half_dt * ey;
        let mut vz = c.vz[p] + qom_half_dt * ez;
        // Boris rotation.
        let tx = qom_half_dt * bx;
        let ty = qom_half_dt * by;
        let tz = qom_half_dt * bz;
        let t2 = tx * tx + ty * ty + tz * tz;
        let sx = 2.0 * tx / (1.0 + t2);
        let sy = 2.0 * ty / (1.0 + t2);
        let sz = 2.0 * tz / (1.0 + t2);
        let px = vx + (vy * tz - vz * ty);
        let py = vy + (vz * tx - vx * tz);
        let pz = vz + (vx * ty - vy * tx);
        vx += py * sz - pz * sy;
        vy += pz * sx - px * sz;
        vz += px * sy - py * sx;
        // Second half electric acceleration.
        vx += qom_half_dt * ex;
        vy += qom_half_dt * ey;
        vz += qom_half_dt * ez;

        c.vx[p] = vx;
        c.vy[p] = vy;
        c.vz[p] = vz;
        // Position update; x wraps periodically, y handled by migration.
        c.x[p] = wrap_periodic(c.x[p] + vx * dt, nx);
        c.y[p] += vy * dt;
    }
}

/// Advance all particles of `species` by `dt` under `fields` (slab-local,
/// ghosts valid). Positions are stored global-periodic in x, *unbounded*
/// in y relative to the global domain — callers migrate/wrap afterwards.
pub fn boris_push(grid: &Grid, fields: &Fields, species: &mut Species, dt: f64) {
    let qom_half_dt = 0.5 * species.qom * dt;
    let chunk = PushChunk {
        x: &mut species.x,
        y: &mut species.y,
        vx: &mut species.vx,
        vy: &mut species.vy,
        vz: &mut species.vz,
    };
    push_chunk(grid, fields, qom_half_dt, dt, chunk);
}

/// [`boris_push`] executed on up to `threads` OS threads (`0` = all
/// cores). The kernel is element-wise, so the result is bit-identical to
/// the serial path for every thread count; only wall-clock time changes
/// (virtual time is charged separately by the caller's cost model).
pub fn boris_push_threads(
    grid: &Grid,
    fields: &Fields,
    species: &mut Species,
    dt: f64,
    threads: usize,
) {
    let threads = par::resolve_threads(threads);
    let n = species.len();
    if threads <= 1 || n < par::MIN_PAR_PARTICLES {
        boris_push(grid, fields, species, dt);
        return;
    }
    let qom_half_dt = 0.5 * species.qom * dt;
    let ranges = par::chunk_ranges(n, threads.min(par::MAX_CHUNKS));
    let xs = par::split_mut(&mut species.x, &ranges);
    let ys = par::split_mut(&mut species.y, &ranges);
    let vxs = par::split_mut(&mut species.vx, &ranges);
    let vys = par::split_mut(&mut species.vy, &ranges);
    let vzs = par::split_mut(&mut species.vz, &ranges);
    let tasks: Vec<PushChunk<'_>> = xs
        .into_iter()
        .zip(ys)
        .zip(vxs)
        .zip(vys)
        .zip(vzs)
        .map(|((((x, y), vx), vy), vz)| PushChunk { x, y, vx, vy, vz })
        .collect();
    par::run_tasks(threads, tasks, |c| {
        push_chunk(grid, fields, qom_half_dt, dt, c)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;

    fn uniform_fields(grid: &Grid, f: impl Fn(&mut Fields, usize)) -> Fields {
        let mut fields = Fields::zeros(grid);
        for k in 0..grid.len() {
            f(&mut fields, k);
        }
        fields
    }

    fn one_particle(grid: &Grid, x: f64, y: f64, v: (f64, f64, f64)) -> Species {
        let mut s = Species {
            qom: -1.0,
            q_per_particle: -1.0,
            ..Species::default()
        };
        let _ = grid;
        s.push_particle(x, y, v.0, v.1, v.2);
        s
    }

    #[test]
    fn gather_constant_field_is_exact() {
        let g = Grid::slab(8, 8, 0, 1);
        let mut f = vec![3.5; g.len()];
        for x in [0.1, 3.7, 7.99] {
            for y in [0.01, 4.5, 7.9] {
                assert!((gather(&g, &f, x, y) - 3.5).abs() < 1e-12);
            }
        }
        // Linear-in-x field is reproduced exactly at centers.
        for j in -1..=(g.ny_local as isize) {
            for i in 0..8 {
                f[g.idx(i, j)] = i as f64;
            }
        }
        let v = gather(&g, &f, 2.5, 3.5); // exactly at a center column
        assert!((v - 2.0).abs() < 1e-12);
    }

    #[test]
    fn no_fields_means_ballistic_motion() {
        let g = Grid::slab(8, 8, 0, 1);
        let f = Fields::zeros(&g);
        let mut s = one_particle(&g, 1.0, 1.0, (0.5, 0.25, 0.0));
        boris_push(&g, &f, &mut s, 1.0);
        assert!((s.x[0] - 1.5).abs() < 1e-12);
        assert!((s.y[0] - 1.25).abs() < 1e-12);
        assert_eq!(s.vx[0], 0.5);
    }

    #[test]
    fn x_wraps_periodically() {
        let g = Grid::slab(8, 8, 0, 1);
        let f = Fields::zeros(&g);
        let mut s = one_particle(&g, 7.9, 1.0, (0.5, 0.0, 0.0));
        boris_push(&g, &f, &mut s, 1.0);
        assert!((s.x[0] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn boris_conserves_speed_in_pure_b() {
        // In a uniform Bz with no E, |v| is exactly conserved by Boris.
        let g = Grid::slab(8, 8, 0, 1);
        let f = uniform_fields(&g, |f, k| f.bz[k] = 2.0);
        let mut s = one_particle(&g, 4.0, 4.0, (0.3, 0.1, 0.05));
        let v0 = (0.3f64 * 0.3 + 0.1 * 0.1 + 0.05 * 0.05).sqrt();
        for _ in 0..100 {
            boris_push(&g, &f, &mut s, 0.05);
            // keep the test particle inside the slab
            s.y[0] = s.y[0].rem_euclid(8.0);
        }
        let v = (s.vx[0] * s.vx[0] + s.vy[0] * s.vy[0] + s.vz[0] * s.vz[0]).sqrt();
        assert!(
            (v - v0).abs() < 1e-12,
            "Boris must conserve |v|: {v0} vs {v}"
        );
    }

    #[test]
    fn e_field_accelerates_against_charge() {
        // Electron (qom = −1) in uniform Ex gains −Ex dt of vx.
        let g = Grid::slab(8, 8, 0, 1);
        let f = uniform_fields(&g, |f, k| f.ex[k] = 0.2);
        let mut s = one_particle(&g, 4.0, 4.0, (0.0, 0.0, 0.0));
        boris_push(&g, &f, &mut s, 0.1);
        assert!((s.vx[0] + 0.2 * 0.1).abs() < 1e-12);
    }

    #[test]
    fn threaded_push_is_bit_exact() {
        use crate::particles::Species as S;
        let g = Grid::slab(8, 8, 0, 1);
        let f = uniform_fields(&g, |f, k| {
            f.ex[k] = 0.1;
            f.bz[k] = 0.7;
        });
        // Enough particles to cross the MIN_PAR_PARTICLES threshold.
        let base = S::maxwellian(&g, 300, 0.2, -1.0, 11);
        assert!(base.len() >= crate::par::MIN_PAR_PARTICLES);
        let mut serial = base.clone();
        boris_push(&g, &f, &mut serial, 0.05);
        for threads in [1usize, 2, 4, 8] {
            let mut s = base.clone();
            boris_push_threads(&g, &f, &mut s, 0.05, threads);
            assert_eq!(s, serial, "threads={threads} must be bit-exact");
        }
    }

    #[test]
    fn gyration_radius_is_correct() {
        // ω = |qom| B; after a full period the particle returns (approx).
        let g = Grid::slab(16, 16, 0, 1);
        let b = 1.0;
        let f = uniform_fields(&g, |f, k| f.bz[k] = b);
        let mut s = one_particle(&g, 8.0, 8.0, (0.1, 0.0, 0.0));
        let period = 2.0 * std::f64::consts::PI / b;
        let steps = 1000;
        let dt = period / steps as f64;
        let (x0, y0) = (s.x[0], s.y[0]);
        for _ in 0..steps {
            boris_push(&g, &f, &mut s, dt);
        }
        assert!((s.x[0] - x0).abs() < 1e-3, "returned in x: {}", s.x[0] - x0);
        assert!((s.y[0] - y0).abs() < 1e-3, "returned in y: {}", s.y[0] - y0);
    }
}
