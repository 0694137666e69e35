//! Property-based tests of the PIC kernels: conservation and consistency
//! invariants that must hold for any particle population and field state.

use proptest::prelude::*;
use xpic::config::XpicConfig;
use xpic::diagnostics::field_energy;
use xpic::fields::{FieldComm, FieldSolver};
use xpic::grid::{wrap_periodic, Fields, Grid, Moments, Stencil};
use xpic::moments::{deposit, deposit_threads, fold_ghosts_periodic};
use xpic::mover::{boris_push, boris_push_threads};
use xpic::par;
use xpic::particles::Species;

/// The mover's field gather: the particle's stencil applied to one
/// component, as one-value cell records.
fn gather(grid: &Grid, field: &[f64], x: f64, y: f64) -> f64 {
    let cells: Vec<[f64; 1]> = field.iter().map(|&v| [v]).collect();
    Stencil::at(grid, x, y).apply(&cells)[0]
}

fn arb_grid() -> impl Strategy<Value = Grid> {
    (2usize..12, 2usize..12).prop_map(|(nx, ny)| Grid::slab(nx, ny, 0, 1))
}

fn arb_species(grid: Grid, n: usize) -> impl Strategy<Value = Species> {
    let nx = grid.nx as f64;
    let ny = grid.ny_local as f64;
    prop::collection::vec(
        (0.0..nx, 0.0..ny, -0.4f64..0.4, -0.4f64..0.4, -0.4f64..0.4),
        1..n,
    )
    .prop_map(move |ps| {
        let mut s = Species {
            qom: -1.0,
            q_per_particle: -0.5,
            ..Species::default()
        };
        for (x, y, vx, vy, vz) in ps {
            s.push_particle(x.min(nx - 1e-9), y.min(ny - 1e-9), vx, vy, vz);
        }
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn deposit_conserves_charge_for_any_population(
        (grid, species) in arb_grid().prop_flat_map(|g| arb_species(g, 64).prop_map(move |s| (g, s)))
    ) {
        let mut m = Moments::zeros(&grid);
        deposit(&grid, &species, &mut m);
        fold_ghosts_periodic(&grid, &mut m);
        let total: f64 = (0..grid.ny_local as isize)
            .flat_map(|j| (0..grid.nx as isize).map(move |i| (i, j)))
            .map(|(i, j)| m.rho[grid.idx(i, j)])
            .sum();
        prop_assert!(
            (total - species.total_charge()).abs() < 1e-9 * species.len() as f64,
            "{} vs {}", total, species.total_charge()
        );
    }

    #[test]
    fn deposit_current_consistent_with_velocity(
        (grid, species) in arb_grid().prop_flat_map(|g| arb_species(g, 32).prop_map(move |s| (g, s)))
    ) {
        // Σ jx over the grid equals Σ q·vx over the particles.
        let mut m = Moments::zeros(&grid);
        deposit(&grid, &species, &mut m);
        fold_ghosts_periodic(&grid, &mut m);
        let grid_jx: f64 = (0..grid.ny_local as isize)
            .flat_map(|j| (0..grid.nx as isize).map(move |i| (i, j)))
            .map(|(i, j)| m.jx[grid.idx(i, j)])
            .sum();
        let pcl_jx: f64 = species.vx.iter().map(|v| species.q_per_particle * v).sum();
        prop_assert!((grid_jx - pcl_jx).abs() < 1e-9 * species.len() as f64);
    }

    #[test]
    fn gather_bounded_by_field_extremes(
        grid in arb_grid(),
        vals in prop::collection::vec(-10.0f64..10.0, 1..200),
        x in 0.0f64..8.0,
        y in 0.0f64..8.0,
    ) {
        let mut field = vec![0.0; grid.len()];
        for (k, v) in field.iter_mut().enumerate() {
            *v = vals[k % vals.len()];
        }
        let x = x % grid.nx as f64;
        let y = y % grid.ny_local as f64;
        let g = gather(&grid, &field, x, y);
        let lo = field.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = field.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(g >= lo - 1e-12 && g <= hi + 1e-12, "{lo} ≤ {g} ≤ {hi}");
    }

    #[test]
    fn boris_push_conserves_speed_in_pure_magnetic_field(
        grid in arb_grid(),
        bz in -2.0f64..2.0,
        vx in -0.3f64..0.3,
        vy in -0.3f64..0.3,
        dt in 0.001f64..0.1,
    ) {
        let mut fields = Fields::zeros(&grid);
        for v in fields.bz.iter_mut() {
            *v = bz;
        }
        let mut s = Species { qom: -1.0, q_per_particle: -1.0, ..Species::default() };
        s.push_particle(grid.nx as f64 / 2.0, grid.ny_local as f64 / 2.0, vx, vy, 0.1);
        let v0 = (vx * vx + vy * vy + 0.01).sqrt();
        boris_push(&grid, &fields, &mut s, dt);
        let v1 = (s.vx[0] * s.vx[0] + s.vy[0] * s.vy[0] + s.vz[0] * s.vz[0]).sqrt();
        prop_assert!((v1 - v0).abs() < 1e-12, "|v| {v0} → {v1}");
    }

    #[test]
    fn slab_decomposition_partitions_rows(nx in 1usize..16, ny in 1usize..64, nranks in 1usize..8) {
        prop_assume!(ny >= nranks);
        let slabs: Vec<Grid> = (0..nranks).map(|r| Grid::slab(nx, ny, r, nranks)).collect();
        let total: usize = slabs.iter().map(|g| g.ny_local).sum();
        prop_assert_eq!(total, ny);
        // Every global row owned by exactly one slab.
        for gy in 0..ny as isize {
            let owners = slabs.iter().filter(|g| g.owns_row(gy)).count();
            prop_assert_eq!(owners, 1, "row {} owned by {} slabs", gy, owners);
        }
        // Balanced to within one row.
        let min = slabs.iter().map(|g| g.ny_local).min().unwrap();
        let max = slabs.iter().map(|g| g.ny_local).max().unwrap();
        prop_assert!(max - min <= 1);
    }

    #[test]
    fn pack_unpack_identity_for_any_fields(
        grid in arb_grid(),
        seed in any::<u64>(),
    ) {
        let mut f = Fields::zeros(&grid);
        fill(seed, &mut f.components_mut());
        let packed = f.pack_owned(&grid);
        let mut g = Fields::zeros(&grid);
        g.unpack_owned(&grid, &packed);
        prop_assert_eq!(g.pack_owned(&grid), packed);
    }
}

// Determinism guard for the parallel kernels: populations large enough to
// take the chunked code paths (≥ par::MIN_PAR_PARTICLES particles), so
// fewer cases keep the runtime reasonable.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn parallel_kernels_are_thread_count_invariant(
        seed in any::<u64>(),
        ppc in 260usize..330,
        bz in -1.0f64..1.0,
        dt in 0.01f64..0.1,
    ) {
        // 8×8 cells × ~300 ppc ≈ 19k particles: above both the parallel
        // threshold of the mover and the multi-chunk threshold of the
        // deposit reduction.
        let grid = Grid::slab(8, 8, 0, 1);
        let mut fields = Fields::zeros(&grid);
        for v in fields.bz.iter_mut() {
            *v = bz;
        }
        let reference = Species::maxwellian_charged(&grid, ppc, 0.05, -1.0, -1.0, seed);

        // The mover must be bit-exact against serial for every thread count
        // (element-wise kernel: chunking cannot change any arithmetic).
        let mut serial = reference.clone();
        boris_push(&grid, &fields, &mut serial, dt);
        for threads in [1usize, 2, 4, 8] {
            let mut s = reference.clone();
            boris_push_threads(&grid, &fields, &mut s, dt, threads);
            prop_assert_eq!(&s.x, &serial.x, "x at threads={}", threads);
            prop_assert_eq!(&s.y, &serial.y, "y at threads={}", threads);
            prop_assert_eq!(&s.vx, &serial.vx, "vx at threads={}", threads);
            prop_assert_eq!(&s.vy, &serial.vy, "vy at threads={}", threads);
            prop_assert_eq!(&s.vz, &serial.vz, "vz at threads={}", threads);
        }

        // The deposit is a reduction: bit-identical across thread counts
        // (fixed chunk grid + serial merge), and within strict rounding
        // distance of the legacy single-accumulator serial path.
        let mut m1 = Moments::zeros(&grid);
        deposit_threads(&grid, &serial, &mut m1, 1);
        for threads in [2usize, 4, 8] {
            let mut mt = Moments::zeros(&grid);
            deposit_threads(&grid, &serial, &mut mt, threads);
            for (a, b) in mt.components().iter().zip(m1.components().iter()) {
                prop_assert_eq!(*a, *b, "deposit differs at threads={}", threads);
            }
        }
        let mut ms = Moments::zeros(&grid);
        deposit(&grid, &serial, &mut ms);
        for (a, b) in m1.components().iter().zip(ms.components().iter()) {
            for (x, y) in a.iter().zip(b.iter()) {
                let tol = 1e-12 * x.abs().max(y.abs()).max(1.0);
                prop_assert!((x - y).abs() <= tol, "{} vs {}", x, y);
            }
        }
    }
}

// ---- Bit oracle -----------------------------------------------------------
//
// The kernels keep the periodic wrap out of their inner loops: one `Stencil`
// per particle, whose cell is picked by the integer `floor_index` in place of
// `f64::floor`, whole-row slices with the x-neighbour wrap at the two edge
// columns, `wrap_periodic` in place of `f64::rem_euclid`, a mover that
// gathers a block of particles from one interleaved record per cell before
// it pushes the block, and at most `threads` partial deposit buffers of one
// (ρ, J) record per cell. All of that is index arithmetic and scheduling;
// the floating-point operations and their order must be those of the plain
// forms below, which take `f64::floor`, resolve every access through
// `Grid::idx`, push one particle at a time and keep one `Moments` buffer per
// chunk. Every comparison is on bit patterns.
mod reference {
    use xpic::fields::FieldSolver;
    use xpic::grid::{wrap_periodic, Fields, Grid, Moments};
    use xpic::par;
    use xpic::particles::Species;

    pub fn gather(grid: &Grid, field: &[f64], x: f64, y: f64) -> f64 {
        let gx = x - 0.5;
        let gy = y - 0.5;
        let i0 = gx.floor() as isize;
        let j0 = gy.floor() as isize;
        let fx = gx - i0 as f64;
        let fy = gy - j0 as f64;
        let w00 = (1.0 - fx) * (1.0 - fy);
        let w10 = fx * (1.0 - fy);
        let w01 = (1.0 - fx) * fy;
        let w11 = fx * fy;
        w00 * field[grid.idx(i0, j0)]
            + w10 * field[grid.idx(i0 + 1, j0)]
            + w01 * field[grid.idx(i0, j0 + 1)]
            + w11 * field[grid.idx(i0 + 1, j0 + 1)]
    }

    /// The mover as a per-particle loop: gather the six components, run
    /// the Boris update, move and wrap, one particle at a time.
    pub fn push(grid: &Grid, fields: &Fields, species: &mut Species, dt: f64) {
        let qom_half_dt = 0.5 * species.qom * dt;
        let nx = grid.nx as f64;
        for p in 0..species.len() {
            let (lx, ly) = (species.x[p], grid.to_local_y(species.y[p]));
            let [ex, ey, ez, bx, by, bz] = fields.components().map(|f| gather(grid, f, lx, ly));
            let mut vx = species.vx[p] + qom_half_dt * ex;
            let mut vy = species.vy[p] + qom_half_dt * ey;
            let mut vz = species.vz[p] + qom_half_dt * ez;
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
            vx += qom_half_dt * ex;
            vy += qom_half_dt * ey;
            vz += qom_half_dt * ez;
            species.vx[p] = vx;
            species.vy[p] = vy;
            species.vz[p] = vz;
            species.x[p] = wrap_periodic(species.x[p] + vx * dt, nx);
            species.y[p] += vy * dt;
        }
    }

    pub fn deposit_range(
        grid: &Grid,
        species: &Species,
        moments: &mut Moments,
        particles: std::ops::Range<usize>,
    ) {
        let q = species.q_per_particle;
        for p in particles {
            let gx = species.x[p] - 0.5;
            let gy = grid.to_local_y(species.y[p]) - 0.5;
            let i0 = gx.floor() as isize;
            let j0 = gy.floor() as isize;
            let fx = gx - i0 as f64;
            let fy = gy - j0 as f64;
            let w = [
                ((i0, j0), (1.0 - fx) * (1.0 - fy)),
                ((i0 + 1, j0), fx * (1.0 - fy)),
                ((i0, j0 + 1), (1.0 - fx) * fy),
                ((i0 + 1, j0 + 1), fx * fy),
            ];
            let (vx, vy, vz) = (species.vx[p], species.vy[p], species.vz[p]);
            for ((i, j), wt) in w {
                let k = grid.idx(i, j);
                let qw = q * wt;
                moments.rho[k] += qw;
                moments.jx[k] += qw * vx;
                moments.jy[k] += qw * vy;
                moments.jz[k] += qw * vz;
            }
        }
    }

    /// The chunked deposit with one zeroed buffer per chunk of the fixed
    /// grid, merged in chunk order once all are filled.
    pub fn deposit_chunked(grid: &Grid, species: &Species, moments: &mut Moments) {
        let n = species.len();
        let ranges = par::chunk_ranges(n, par::reduction_chunks(n));
        if ranges.len() <= 1 {
            deposit_range(grid, species, moments, 0..n);
            return;
        }
        let mut partials: Vec<Moments> = ranges.iter().map(|_| Moments::zeros(grid)).collect();
        for (r, part) in ranges.into_iter().zip(partials.iter_mut()) {
            deposit_range(grid, species, part, r);
        }
        for part in &partials {
            for (dst, src) in moments.components_mut().into_iter().zip(part.components()) {
                for (d, s) in dst.iter_mut().zip(src.iter()) {
                    *d += *s;
                }
            }
        }
    }

    pub fn apply(s: &FieldSolver, kappa: &[f64], x: &[f64], y: &mut [f64]) {
        let g = &s.grid;
        let alpha = (s.dt * s.theta).powi(2);
        for j in 0..g.ny_local as isize {
            for i in 0..g.nx as isize {
                let k = g.idx(i, j);
                let lap = x[g.idx(i + 1, j)]
                    + x[g.idx(i - 1, j)]
                    + x[g.idx(i, j + 1)]
                    + x[g.idx(i, j - 1)]
                    - 4.0 * x[k];
                y[k] = (1.0 + kappa[k]) * x[k] - alpha * lap;
            }
        }
    }

    /// B ← B − Δt ∇×E over owned cells, ghosts as given.
    pub fn faraday(g: &Grid, dt: f64, fields: &mut Fields) {
        let n = g.len();
        let mut dbx = vec![0.0; n];
        let mut dby = vec![0.0; n];
        let mut dbz = vec![0.0; n];
        for j in 0..g.ny_local as isize {
            for i in 0..g.nx as isize {
                let k = g.idx(i, j);
                let curl_ex = 0.5 * (fields.ez[g.idx(i, j + 1)] - fields.ez[g.idx(i, j - 1)]);
                let curl_ey = -0.5 * (fields.ez[g.idx(i + 1, j)] - fields.ez[g.idx(i - 1, j)]);
                let curl_ez = 0.5 * (fields.ey[g.idx(i + 1, j)] - fields.ey[g.idx(i - 1, j)])
                    - 0.5 * (fields.ex[g.idx(i, j + 1)] - fields.ex[g.idx(i, j - 1)]);
                dbx[k] = curl_ex;
                dby[k] = curl_ey;
                dbz[k] = curl_ez;
            }
        }
        for j in 0..g.ny_local as isize {
            for i in 0..g.nx as isize {
                let k = g.idx(i, j);
                fields.bx[k] -= dt * dbx[k];
                fields.by[k] -= dt * dby[k];
                fields.bz[k] -= dt * dbz[k];
            }
        }
    }

    pub fn field_energy(grid: &Grid, fields: &Fields) -> f64 {
        let mut e = 0.0;
        for j in 0..grid.ny_local as isize {
            for i in 0..grid.nx as isize {
                let k = grid.idx(i, j);
                e += fields.ex[k] * fields.ex[k]
                    + fields.ey[k] * fields.ey[k]
                    + fields.ez[k] * fields.ez[k]
                    + fields.bx[k] * fields.bx[k]
                    + fields.by[k] * fields.by[k]
                    + fields.bz[k] * fields.bz[k];
            }
        }
        0.5 * e
    }
}

/// Leaves the ghost rows as the test filled them.
struct GhostsAsGiven;

impl FieldComm for GhostsAsGiven {
    fn halo_exchange(&mut self, _grid: &Grid, _arr: &mut [f64]) {}
    fn allreduce_sum(&mut self, v: f64) -> f64 {
        v
    }
}

/// Any slab of a 1–4 slab decomposition, over the widths where the column
/// wrap degenerates (1: every neighbour is the cell itself; 2: both
/// neighbours coincide; 3: no interior column) and where it does not.
fn arb_slab() -> impl Strategy<Value = Grid> {
    (0usize..5, 1usize..5, 0usize..4, 0usize..7).prop_map(|(w, nranks, rank, extra)| {
        let nx = [1, 2, 3, 8, 17][w];
        Grid::slab(nx, nranks + extra, rank % nranks, nranks)
    })
}

/// Pseudo-random values in [−1, 1) over whole slab arrays, ghosts included.
fn fill(seed: u64, arrays: &mut [&mut Vec<f64>]) {
    let mut state = seed | 1;
    for arr in arrays {
        for v in arr.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            *v = (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
        }
    }
}

/// Particles of `grid`'s slab on the spots where the wrap or the floor
/// matters: on the x = 0 seam, one ulp below nx, at x = nx itself (where a
/// rounded-up wrap used to leave them), inside both ghost margins in y,
/// exactly on a cell centre (an integer seam of the stencil's floor) and one
/// ulp either side of it, at the first centre less one ulp (`gx`/`gy` a tiny
/// negative), and anywhere.
fn arb_hard_species(
    grid: Grid,
    size: impl Into<prop::collection::SizeRange>,
) -> impl Strategy<Value = Species> {
    let spot = (0usize..8, 0usize..7, 0.0f64..1.0, 0.0f64..1.0);
    let vel = (-0.4f64..0.4, -0.4f64..0.4, -0.4f64..0.4);
    prop::collection::vec((spot, vel), size).prop_map(move |ps| {
        let nx = grid.nx as f64;
        let ny = grid.ny_local as f64;
        let y0 = grid.y0 as f64;
        // The centre `origin + k + 0.5` of the cell `k` that `u` ∈ [0, 1)
        // picks among `cells`, moved by `ulps` ulps. Built in global
        // coordinates: the slab-local y is then exact.
        let centre = |origin: f64, cells: f64, u: f64, ulps: i64| {
            let c = origin + (u * cells).floor() + 0.5;
            f64::from_bits(c.to_bits().wrapping_add_signed(ulps))
        };
        let mut s = Species {
            qom: -1.0,
            q_per_particle: -0.37,
            ..Species::default()
        };
        for ((xk, yk, u, v), (vx, vy, vz)) in ps {
            let x = match xk {
                0 => 0.0,
                1 => f64::from_bits(nx.to_bits() - 1),
                2 => nx,
                3..=5 => centre(0.0, nx, u, xk as i64 - 4),
                6 => centre(0.0, 0.0, u, -1),
                _ => u * nx,
            };
            let y = match yk {
                0 => (-0.5 + 0.5 * v) + y0,
                1 => (ny + 0.49 * v) + y0,
                2..=4 => centre(y0, ny, v, yk as i64 - 3),
                5 => centre(y0, 0.0, v, -1),
                _ => v * ny + y0,
            };
            s.push_particle(x, y, vx, vy, vz);
        }
        s
    })
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn gather_and_deposit_match_the_idx_reference_bit_for_bit(
        (grid, species) in arb_slab().prop_flat_map(|g| arb_hard_species(g, 1..48).prop_map(move |s| (g, s))),
        seed in any::<u64>(),
    ) {
        let mut field = vec![0.0; grid.len()];
        fill(seed, &mut [&mut field]);
        for p in 0..species.len() {
            let (x, ly) = (species.x[p], grid.to_local_y(species.y[p]));
            prop_assert_eq!(
                gather(&grid, &field, x, ly).to_bits(),
                reference::gather(&grid, &field, x, ly).to_bits(),
                "gather at x={} ly={}", x, ly
            );
        }
        // Start from a non-zero buffer: the deposit accumulates.
        let mut got = Moments::zeros(&grid);
        fill(seed ^ 0xD3, &mut got.components_mut());
        let mut want = got.clone();
        deposit(&grid, &species, &mut got);
        reference::deposit_range(&grid, &species, &mut want, 0..species.len());
        for (a, b) in got.components().into_iter().zip(want.components()) {
            prop_assert_eq!(bits(a), bits(b));
        }
    }

    #[test]
    fn field_operators_match_the_idx_reference_bit_for_bit(
        grid in arb_slab(),
        seed in any::<u64>(),
    ) {
        // Δt·θ of order one, so that the Laplacian term is not rounded
        // away against the identity term and its association shows.
        let config = XpicConfig { dt: 1.3, theta: 0.9, threads: 1, ..XpicConfig::test_small() };
        let solver = FieldSolver::new(grid, &config);
        let mut kappa = vec![0.0; grid.len()];
        let mut x = vec![0.0; grid.len()];
        let mut got = vec![0.0; grid.len()];
        fill(seed, &mut [&mut kappa, &mut x, &mut got]);
        let mut want = got.clone();
        solver.apply(&kappa, &x, &mut got);
        reference::apply(&solver, &kappa, &x, &mut want);
        prop_assert_eq!(bits(&got), bits(&want), "Helmholtz apply (ghost rows of y untouched)");

        let mut fields = Fields::zeros(&grid);
        fill(seed ^ 0xFA, &mut fields.components_mut());
        prop_assert_eq!(
            field_energy(&grid, &fields).to_bits(),
            reference::field_energy(&grid, &fields).to_bits()
        );
        let mut want = fields.clone();
        solver.calculate_b(&mut fields, &mut GhostsAsGiven);
        reference::faraday(&grid, solver.dt, &mut want);
        for (a, b) in fields.components().into_iter().zip(want.components()) {
            prop_assert_eq!(bits(a), bits(b), "Faraday curl");
        }
    }

    #[test]
    fn wrap_periodic_is_rem_euclid_without_the_upper_bound(
        r in -40.0f64..40.0,
        n in 1usize..18,
    ) {
        let n = n as f64;
        let want = r.rem_euclid(n);
        let got = wrap_periodic(r, n);
        prop_assert!((0.0..n).contains(&got), "{} outside [0, {})", got, n);
        if want < n {
            prop_assert_eq!(got.to_bits(), want.to_bits());
        }
    }
}

/// The first particle whose state differs from `want`'s in any bit: the
/// array's name, the particle and the two values.
fn first_mismatch(got: &Species, want: &Species) -> Option<(&'static str, usize, f64, f64)> {
    fn arrays(s: &Species) -> [(&'static str, &[f64]); 5] {
        [
            ("x", &s.x),
            ("y", &s.y),
            ("vx", &s.vx),
            ("vy", &s.vy),
            ("vz", &s.vz),
        ]
    }
    arrays(got)
        .into_iter()
        .zip(arrays(want))
        .find_map(|((name, g), (_, w))| {
            assert_eq!(g.len(), w.len(), "{name}");
            (0..g.len())
                .find(|&p| g[p].to_bits() != w[p].to_bits())
                .map(|p| (name, p, g[p], w[p]))
        })
}

/// Any slab of a 2-slab decomposition, over the widths `arb_slab` takes.
fn arb_half_slab() -> impl Strategy<Value = Grid> {
    (0usize..5, 2usize..9, 0usize..2)
        .prop_map(|(w, ny, rank)| Grid::slab([1, 2, 3, 8, 17][w], ny, rank, 2))
}

/// The population's first `n` particles.
fn first(s: &Species, n: usize) -> Species {
    Species {
        x: s.x[..n].to_vec(),
        y: s.y[..n].to_vec(),
        vx: s.vx[..n].to_vec(),
        vy: s.vy[..n].to_vec(),
        vz: s.vz[..n].to_vec(),
        ..*s
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn push_matches_the_per_particle_loop_bit_for_bit(
        (grid, all) in arb_half_slab().prop_flat_map(|g| {
            arb_hard_species(g, par::MIN_PAR_PARTICLES + 65).prop_map(move |s| (g, s))
        }),
        seed in any::<u64>(),
        dt in 0.01f64..1.5,
    ) {
        let mut fields = Fields::zeros(&grid);
        fill(seed, &mut fields.components_mut());
        // Around the mover's block of 64 particles, and the whole
        // population, which takes the threaded path.
        for n in [0, 1, 63, 64, 65, all.len()] {
            let start = first(&all, n);
            let mut want = start.clone();
            reference::push(&grid, &fields, &mut want, dt);
            let mut got = start.clone();
            boris_push(&grid, &fields, &mut got, dt);
            prop_assert_eq!(first_mismatch(&got, &want), None, "n={}", n);
            if n == all.len() {
                for threads in [1usize, 2, 4] {
                    let mut got = start.clone();
                    boris_push_threads(&grid, &fields, &mut got, dt, threads);
                    prop_assert_eq!(
                        first_mismatch(&got, &want),
                        None,
                        "n={} threads={}", n, threads
                    );
                }
            }
        }
    }
}

#[test]
fn pushed_moments_match_the_per_particle_loop_at_the_benchmark_shape() {
    let grid = Grid::slab(128, 128, 0, 1);
    let mut fields = Fields::zeros(&grid);
    fill(0x0F16_0007, &mut fields.components_mut());
    let start = Species::maxwellian_charged(&grid, 32, 0.05, -1.0, -1.0, 20180521);
    let mut want = start.clone();
    reference::push(&grid, &fields, &mut want, 0.1);
    let mut got = start;
    boris_push(&grid, &fields, &mut got, 0.1);
    assert_eq!(first_mismatch(&got, &want), None);
    let moments = |s: &Species| {
        let mut m = Moments::zeros(&grid);
        deposit(&grid, s, &mut m);
        m
    };
    for (a, b) in moments(&got)
        .components()
        .into_iter()
        .zip(moments(&want).components())
    {
        assert_eq!(bits(a), bits(b));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn deposit_threads_matches_one_buffer_per_chunk_bit_for_bit(
        seed in any::<u64>(),
        ppc in 300usize..2200,
        hard in arb_hard_species(Grid::slab(8, 8, 0, 1), 1..64),
    ) {
        // 19k–140k particles: 2 to 16 chunks of the fixed grid, so the
        // waves of `threads` buffers end on full and on partial waves.
        let grid = Grid::slab(8, 8, 0, 1);
        let mut species = Species::maxwellian_charged(&grid, ppc, 0.05, -1.0, -1.0, seed);
        for p in 0..hard.len() {
            species.push_particle(hard.x[p], hard.y[p], hard.vx[p], hard.vy[p], hard.vz[p]);
        }
        prop_assert!(par::reduction_chunks(species.len()) >= 2);
        let mut start = Moments::zeros(&grid);
        fill(seed, &mut start.components_mut());
        let mut want = start.clone();
        reference::deposit_chunked(&grid, &species, &mut want);
        for threads in [1usize, 2, 4, 8] {
            let mut got = start.clone();
            deposit_threads(&grid, &species, &mut got, threads);
            for (a, b) in got.components().into_iter().zip(want.components()) {
                prop_assert_eq!(bits(a), bits(b), "threads={}", threads);
            }
        }
    }
}
