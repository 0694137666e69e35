//! The implicit field solver (calculateE / calculateB of Listing 1).
//!
//! xPic uses the Implicit Moment Method (Markidis et al. \[15\]): the
//! electric field at the new time level satisfies an elliptic system whose
//! coefficients involve the plasma moments. We implement the standard
//! reduced form: for each component of E solve
//!
//! ```text
//! (1 + κ) E' − (c Δt θ)² ∇² E' = E + Δt θ (c² ∇×B − J)
//! ```
//!
//! with the implicit susceptibility κ = (ω_p Δt θ / 2)² from the local
//! charge density (this is where the *moments* enter the *field* solve —
//! the defining feature of the method), by conjugate gradients, followed
//! by a divergence-cleaning (Boris correction) step that enforces Gauss's
//! law against the net charge density: solve ∇²φ = ∇·E − ρ_net and take
//! E ← E − ∇φ. Without it, charge separation could never drive an
//! electric field (no plasma oscillations — ρ is a first-class source in
//! Fig. 5's E,B = f(ρ,J)). The CG
//! iteration is exactly the communication pattern the paper describes for
//! the field solver: a halo exchange per stencil application and global
//! reductions for the dot products — "not highly parallel and requires
//! substantial and frequent global communication" (§IV-C). B then follows
//! explicitly from Faraday's law: B' = B − Δt ∇×E'.
//!
//! Communication is abstracted behind [`FieldComm`] so the same solver
//! runs serially (tests), on a psmpi world (Cluster-only / Booster-only
//! modes) or on the spawned field world of the C+B mode.

use crate::grid::{Fields, Grid, Moments};
use crate::par;
use std::ops::Range;

/// CG relative-residual tolerance of the field solve.
const CG_TOL: f64 = 1e-8;
/// CG iteration cap.
const CG_MAX_ITERS: u32 = 200;

/// The solver's communication needs: ghost-row exchange and global sums.
pub trait FieldComm {
    /// Fill the ghost rows of `arr` from the neighbouring slabs
    /// (periodically in y).
    fn halo_exchange(&mut self, grid: &Grid, arr: &mut [f64]);
    /// Global sum over all solver ranks.
    fn allreduce_sum(&mut self, v: f64) -> f64;
}

/// Single-rank communication: ghosts wrap periodically within the slab.
#[derive(Debug, Default, Clone, Copy)]
pub struct SerialComm;

impl FieldComm for SerialComm {
    fn halo_exchange(&mut self, grid: &Grid, arr: &mut [f64]) {
        let ny = grid.ny_local as isize;
        arr.copy_within(grid.row(ny - 1), grid.row(-1).start);
        arr.copy_within(grid.row(0), grid.row(ny).start);
    }

    fn allreduce_sum(&mut self, v: f64) -> f64 {
        v
    }
}

/// Visit the columns of one periodic row in ascending order:
/// `f(i, west, east)` with the neighbour columns of `i`. The wrap is paid
/// at the two edge columns only, so the interior is a plain `i − 1, i,
/// i + 1` loop the compiler can vectorize. Which index a value is loaded
/// from is integer arithmetic; the floating-point expression in `f` and
/// the order it runs in are exactly those of a per-cell modulo loop.
#[inline(always)]
fn for_each_column(nx: usize, mut f: impl FnMut(usize, usize, usize)) {
    if nx == 0 {
        return;
    }
    f(0, nx - 1, 1 % nx);
    for i in 1..nx - 1 {
        f(i, i - 1, i + 1);
    }
    if nx > 1 {
        f(nx - 1, nx - 2, 0);
    }
}

/// The three work vectors of a CG solve (residual, search direction,
/// operator image), sized for one slab and reused from solve to solve.
#[derive(Debug, Clone)]
pub struct CgWork {
    r: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
}

impl CgWork {
    /// Work vectors for a solver on `grid`.
    pub fn new(grid: &Grid) -> CgWork {
        let n = grid.len();
        CgWork {
            r: vec![0.0; n],
            p: vec![0.0; n],
            ap: vec![0.0; n],
        }
    }
}

/// The field solver for one slab.
#[derive(Debug, Clone)]
pub struct FieldSolver {
    /// Slab geometry.
    pub grid: Grid,
    /// Time step.
    pub dt: f64,
    /// Implicitness parameter θ ∈ [0.5, 1].
    pub theta: f64,
    /// CG relative-residual tolerance: 1e-8 for the field solve, looser
    /// for the divergence cleaner.
    pub cg_tol: f64,
    /// OS threads for the grid loops (resolved; ≥ 1). Wall-clock only —
    /// the loops are organized so every thread count computes the same
    /// bits (see [`par`]).
    pub threads: usize,
}

impl FieldSolver {
    /// Solver from the run configuration.
    pub fn new(grid: Grid, config: &crate::config::XpicConfig) -> Self {
        FieldSolver {
            grid,
            dt: config.dt,
            theta: config.theta,
            cg_tol: CG_TOL,
            threads: par::resolve_threads(config.threads),
        }
    }

    /// Threads to actually use for a grid pass: stay on the caller below
    /// [`par::MIN_PAR_ROWS`] rows (spawn overhead dominates; results are
    /// unaffected either way).
    fn grid_threads(&self) -> usize {
        if self.grid.ny_local >= par::MIN_PAR_ROWS {
            self.threads
        } else {
            1
        }
    }

    /// Run `f(rows, block)` over the owned rows of `arr`, where `block` is
    /// the storage of the local rows `rows`. One row block per thread, from
    /// [`par::chunk_ranges`] over the owned rows — a fixed function of the
    /// grid — and element-wise loops are bit-exact under any partition. On
    /// one thread the whole owned region is one block and nothing is
    /// allocated.
    fn for_row_blocks(&self, arr: &mut [f64], f: impl Fn(Range<usize>, &mut [f64]) + Sync) {
        let g = &self.grid;
        let owned = &mut arr[g.owned_rows(0..g.ny_local)];
        let threads = self.grid_threads();
        if threads <= 1 {
            f(0..g.ny_local, owned);
            return;
        }
        let blocks = par::chunk_ranges(g.ny_local, threads);
        let elem_ranges: Vec<Range<usize>> = blocks
            .iter()
            .map(|r| r.start * g.nx..r.end * g.nx)
            .collect();
        let tasks: Vec<(Range<usize>, &mut [f64])> = blocks
            .into_iter()
            .zip(par::split_mut(owned, &elem_ranges))
            .collect();
        par::run_tasks(threads, tasks, |(rows, block)| f(rows, block));
    }

    /// κ field: (ω_p Δt θ / 2)² with ω_p² ≈ |ρ| in normalized units.
    fn kappa(&self, moments: &Moments) -> Vec<f64> {
        let f = (self.dt * self.theta * 0.5).powi(2);
        moments.rho.iter().map(|r| f * r.abs()).collect()
    }

    /// Apply the Helmholtz operator to `x` (ghosts must be current):
    /// `y = (1+κ) x − α ∇² x` over owned cells. Each output cell is an
    /// independent write, so the row-parallel execution is bit-exact.
    pub fn apply(&self, kappa: &[f64], x: &[f64], y: &mut [f64]) {
        let g = &self.grid;
        let alpha = (self.dt * self.theta).powi(2);
        let nx = g.nx;
        self.for_row_blocks(y, |rows, ys| {
            for j in rows.clone() {
                let js = j as isize;
                let (xc, xn, xs) = (&x[g.row(js)], &x[g.row(js + 1)], &x[g.row(js - 1)]);
                let kap = &kappa[g.row(js)];
                let out = &mut ys[(j - rows.start) * nx..][..nx];
                for_each_column(nx, |i, w, e| {
                    let lap = xc[e] + xc[w] + xn[i] + xs[i] - 4.0 * xc[i];
                    out[i] = (1.0 + kap[i]) * xc[i] - alpha * lap;
                });
            }
        });
    }

    /// Dot product over owned cells: per-row partial sums, combined in row
    /// order. The association of the floating-point sums is fixed by the
    /// grid, so the result is identical for every thread count.
    fn dot_local(&self, a: &[f64], b: &[f64]) -> f64 {
        let g = &self.grid;
        let row_dot = |j: usize| {
            let row = g.row(j as isize);
            let mut s = 0.0;
            for (x, y) in a[row.clone()].iter().zip(&b[row]) {
                s += x * y;
            }
            s
        };
        let threads = self.grid_threads();
        if threads <= 1 {
            return (0..g.ny_local).map(row_dot).sum();
        }
        let mut rows = vec![0.0; g.ny_local];
        let blocks = par::chunk_ranges(g.ny_local, threads);
        let tasks: Vec<(Range<usize>, &mut [f64])> = blocks
            .iter()
            .cloned()
            .zip(par::split_mut(&mut rows, &blocks))
            .collect();
        par::run_tasks(threads, tasks, |(jr, out)| {
            for (j, o) in jr.zip(out) {
                *o = row_dot(j);
            }
        });
        rows.iter().sum()
    }

    /// Solve the Helmholtz system for one component, in place. Returns the
    /// CG iterations used. `work` is scratch: its contents on entry do not
    /// matter, and on one thread the solve allocates nothing.
    pub fn solve_component<C: FieldComm>(
        &self,
        kappa: &[f64],
        rhs: &[f64],
        x: &mut [f64],
        work: &mut CgWork,
        comm: &mut C,
    ) -> u32 {
        let g = &self.grid;
        let CgWork { r, p, ap } = work;
        comm.halo_exchange(g, x);
        self.apply(kappa, x, ap);
        for k in g.owned_rows(0..g.ny_local) {
            r[k] = rhs[k] - ap[k];
            p[k] = r[k];
        }
        let rhs_norm2 = comm.allreduce_sum(self.dot_local(rhs, rhs)).max(1e-300);
        let mut rs = comm.allreduce_sum(self.dot_local(r, r));
        let tol2 = self.cg_tol * self.cg_tol * rhs_norm2;
        let mut iters = 0;
        while rs > tol2 && iters < CG_MAX_ITERS {
            comm.halo_exchange(g, p);
            self.apply(kappa, p, ap);
            let p_ap = comm.allreduce_sum(self.dot_local(p, ap));
            let alpha = rs / p_ap;
            // x += α p, r −= α A p, and below p = r + β p: element-wise, so
            // the row-parallel execution is bit-exact.
            self.for_row_blocks(x, |rows, xs| {
                for (x, p) in xs.iter_mut().zip(&p[g.owned_rows(rows)]) {
                    *x += alpha * p;
                }
            });
            self.for_row_blocks(r, |rows, rs| {
                for (r, ap) in rs.iter_mut().zip(&ap[g.owned_rows(rows)]) {
                    *r -= alpha * ap;
                }
            });
            let rs_new = comm.allreduce_sum(self.dot_local(r, r));
            let beta = rs_new / rs;
            rs = rs_new;
            self.for_row_blocks(p, |rows, ps| {
                for (p, r) in ps.iter_mut().zip(&r[g.owned_rows(rows)]) {
                    *p = r + beta * *p;
                }
            });
            iters += 1;
        }
        comm.halo_exchange(g, x);
        iters
    }

    /// Divergence cleaning: solve ∇²φ = ∇·E − ρ_net (ρ_net is the charge
    /// density against the neutralizing background, i.e. made zero-mean
    /// globally) and subtract ∇φ from E. Returns CG iterations used.
    pub fn clean_divergence<C: FieldComm>(
        &self,
        fields: &mut Fields,
        moments: &Moments,
        work: &mut CgWork,
        comm: &mut C,
    ) -> u32 {
        let g = &self.grid;
        let n = g.len();
        let nx = g.nx;
        comm.halo_exchange(g, &mut fields.ex);
        comm.halo_exchange(g, &mut fields.ey);
        // Residual r = ∇·E − ρ_net over owned cells.
        let mut r = vec![0.0; n];
        let mut local_sum = 0.0;
        for j in 0..g.ny_local as isize {
            let (ex, rho) = (&fields.ex[g.row(j)], &moments.rho[g.row(j)]);
            let (ey_n, ey_s) = (&fields.ey[g.row(j + 1)], &fields.ey[g.row(j - 1)]);
            let r = &mut r[g.row(j)];
            for_each_column(nx, |i, w, e| {
                let div = 0.5 * (ex[e] - ex[w]) + 0.5 * (ey_n[i] - ey_s[i]);
                r[i] = div - rho[i];
                local_sum += r[i];
            });
        }
        // Make the RHS zero-mean (periodic Poisson compatibility: the mean
        // of ρ is neutralized by the static background).
        let total = comm.allreduce_sum(local_sum);
        let cells = comm.allreduce_sum(g.cells() as f64);
        let mean = total / cells.max(1.0);
        // Solve −α∇²φ = −α·r via the Helmholtz machinery with κ ≡ −1
        // (kills the identity term): A(φ) = −α ∇²φ.
        let alpha = (self.dt * self.theta).powi(2);
        let kappa = vec![-1.0; n];
        let mut rhs = vec![0.0; n];
        for k in g.owned_rows(0..g.ny_local) {
            rhs[k] = -alpha * (r[k] - mean);
        }
        // Divergence cleaning is a corrector: production PIC codes run it
        // at a much looser tolerance than the field solve (and often only
        // every few steps). Temporarily relax the CG tolerance.
        let cleaner = FieldSolver {
            cg_tol: self.cg_tol.clamp(1e-4, 1e-2),
            ..self.clone()
        };
        let mut phi = vec![0.0; n];
        let iters = cleaner.solve_component(&kappa, &rhs, &mut phi, work, comm);
        // E ← E − ∇φ.
        for j in 0..g.ny_local as isize {
            let (phi_c, phi_n, phi_s) = (&phi[g.row(j)], &phi[g.row(j + 1)], &phi[g.row(j - 1)]);
            let (ex, ey) = (&mut fields.ex[g.row(j)], &mut fields.ey[g.row(j)]);
            for_each_column(nx, |i, w, e| {
                ex[i] -= 0.5 * (phi_c[e] - phi_c[w]);
                ey[i] -= 0.5 * (phi_n[i] - phi_s[i]);
            });
        }
        comm.halo_exchange(g, &mut fields.ex);
        comm.halo_exchange(g, &mut fields.ey);
        iters
    }

    /// calculateE: advance E implicitly from the moments (Helmholtz solve
    /// per component + divergence cleaning). Returns total CG iterations.
    pub fn calculate_e<C: FieldComm>(
        &self,
        fields: &mut Fields,
        moments: &Moments,
        comm: &mut C,
    ) -> u32 {
        let g = &self.grid;
        let nx = g.nx;
        let kappa = self.kappa(moments);
        // RHS per component: E + Δtθ (∇×B − J).
        comm.halo_exchange(g, &mut fields.bx);
        comm.halo_exchange(g, &mut fields.by);
        comm.halo_exchange(g, &mut fields.bz);
        let c1 = self.dt * self.theta;
        let n = g.len();
        let mut rhs_x = vec![0.0; n];
        let mut rhs_y = vec![0.0; n];
        let mut rhs_z = vec![0.0; n];
        for j in 0..g.ny_local as isize {
            let (c, north, south) = (g.row(j), g.row(j + 1), g.row(j - 1));
            let (by, bz) = (&fields.by[c.clone()], &fields.bz[c.clone()]);
            let (bx_n, bx_s) = (&fields.bx[north.clone()], &fields.bx[south.clone()]);
            let (bz_n, bz_s) = (&fields.bz[north], &fields.bz[south]);
            let (ex, ey, ez) = (
                &fields.ex[c.clone()],
                &fields.ey[c.clone()],
                &fields.ez[c.clone()],
            );
            let (jx, jy, jz) = (
                &moments.jx[c.clone()],
                &moments.jy[c.clone()],
                &moments.jz[c.clone()],
            );
            let (rx, ry, rz) = (&mut rhs_x[c.clone()], &mut rhs_y[c.clone()], &mut rhs_z[c]);
            for_each_column(nx, |i, w, e| {
                // 2-D curls (∂z ≡ 0), central differences, Δx = Δy = 1.
                let curl_bx = 0.5 * (bz_n[i] - bz_s[i]);
                let curl_by = -0.5 * (bz[e] - bz[w]);
                let curl_bz = 0.5 * (by[e] - by[w]) - 0.5 * (bx_n[i] - bx_s[i]);
                rx[i] = ex[i] + c1 * (curl_bx - jx[i]);
                ry[i] = ey[i] + c1 * (curl_by - jy[i]);
                rz[i] = ez[i] + c1 * (curl_bz - jz[i]);
            });
        }
        let mut work = CgWork::new(g);
        let mut iters = 0;
        iters += self.solve_component(&kappa, &rhs_x, &mut fields.ex, &mut work, comm);
        iters += self.solve_component(&kappa, &rhs_y, &mut fields.ey, &mut work, comm);
        iters += self.solve_component(&kappa, &rhs_z, &mut fields.ez, &mut work, comm);
        iters += self.clean_divergence(fields, moments, &mut work, comm);
        iters
    }

    /// calculateB: Faraday's law, B ← B − Δt ∇×E.
    pub fn calculate_b<C: FieldComm>(&self, fields: &mut Fields, comm: &mut C) {
        let g = &self.grid;
        let dt = self.dt;
        comm.halo_exchange(g, &mut fields.ex);
        comm.halo_exchange(g, &mut fields.ey);
        comm.halo_exchange(g, &mut fields.ez);
        for j in 0..g.ny_local as isize {
            let (c, north, south) = (g.row(j), g.row(j + 1), g.row(j - 1));
            let (ey, ez) = (&fields.ey[c.clone()], &fields.ez[c.clone()]);
            let (ex_n, ex_s) = (&fields.ex[north.clone()], &fields.ex[south.clone()]);
            let (ez_n, ez_s) = (&fields.ez[north], &fields.ez[south]);
            let (bx, by, bz) = (
                &mut fields.bx[c.clone()],
                &mut fields.by[c.clone()],
                &mut fields.bz[c],
            );
            for_each_column(g.nx, |i, w, e| {
                let curl_ex = 0.5 * (ez_n[i] - ez_s[i]);
                let curl_ey = -0.5 * (ez[e] - ez[w]);
                let curl_ez = 0.5 * (ey[e] - ey[w]) - 0.5 * (ex_n[i] - ex_s[i]);
                bx[i] -= dt * curl_ex;
                by[i] -= dt * curl_ey;
                bz[i] -= dt * curl_ez;
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::XpicConfig;

    fn solver(nx: usize, ny: usize) -> FieldSolver {
        let g = Grid::slab(nx, ny, 0, 1);
        FieldSolver::new(g, &XpicConfig::test_small())
    }

    #[test]
    fn cg_solves_manufactured_system() {
        let s = solver(16, 16);
        let g = s.grid;
        let kappa = vec![0.3; g.len()];
        // Construct rhs = A x* for a known x*.
        let mut x_star = vec![0.0; g.len()];
        for j in 0..g.ny_local as isize {
            for i in 0..g.nx as isize {
                x_star[g.idx(i, j)] = ((i as f64) * 0.37).sin() + ((j as f64) * 0.21).cos();
            }
        }
        let mut comm = SerialComm;
        comm.halo_exchange(&g, &mut x_star);
        let mut rhs = vec![0.0; g.len()];
        s.apply(&kappa, &x_star, &mut rhs);
        let mut x = vec![0.0; g.len()];
        let iters = s.solve_component(&kappa, &rhs, &mut x, &mut CgWork::new(&g), &mut comm);
        assert!(iters > 0 && iters < CG_MAX_ITERS, "iters {iters}");
        for j in 0..g.ny_local as isize {
            for i in 0..g.nx as isize {
                let k = g.idx(i, j);
                assert!(
                    (x[k] - x_star[k]).abs() < 1e-6,
                    "CG mismatch at ({i},{j}): {} vs {}",
                    x[k],
                    x_star[k]
                );
            }
        }
    }

    #[test]
    fn cg_solve_is_thread_count_invariant() {
        // A slab tall enough to cross MIN_PAR_ROWS, solved with several
        // thread counts: every run must produce the same bits (and thus
        // the same iteration count — what virtual time depends on).
        let g = Grid::slab(8, par::MIN_PAR_ROWS, 0, 1);
        let mut reference: Option<(u32, Vec<f64>)> = None;
        for threads in [1usize, 2, 4, 8] {
            let mut cfg = XpicConfig::test_small();
            cfg.threads = threads;
            let s = FieldSolver::new(g, &cfg);
            let mut kappa = vec![0.0; g.len()];
            let mut rhs = vec![0.0; g.len()];
            for j in 0..g.ny_local as isize {
                for i in 0..g.nx as isize {
                    let k = g.idx(i, j);
                    kappa[k] = 0.05 + 0.01 * ((i * 7 + j) % 5) as f64;
                    rhs[k] = ((i as f64) * 0.31).sin() * ((j as f64) * 0.17).cos();
                }
            }
            let mut x = vec![0.0; g.len()];
            let mut comm = SerialComm;
            let iters = s.solve_component(&kappa, &rhs, &mut x, &mut CgWork::new(&g), &mut comm);
            match &reference {
                None => reference = Some((iters, x)),
                Some((ri, rx)) => {
                    assert_eq!(iters, *ri, "threads={threads} changed CG iterations");
                    assert_eq!(&x, rx, "threads={threads} changed the solution bits");
                }
            }
        }
    }

    #[test]
    fn zero_sources_keep_zero_fields() {
        let s = solver(8, 8);
        let mut f = Fields::zeros(&s.grid);
        let m = Moments::zeros(&s.grid);
        let mut comm = SerialComm;
        s.calculate_e(&mut f, &m, &mut comm);
        s.calculate_b(&mut f, &mut comm);
        assert!(f.ex.iter().all(|&v| v.abs() < 1e-14));
        assert!(f.bz.iter().all(|&v| v.abs() < 1e-14));
    }

    #[test]
    fn uniform_current_drives_uniform_e() {
        // With J = (j0, 0, 0) uniform and B = 0, E' = −Δtθ j0 / (1+κ),
        // uniform (the Laplacian of a constant vanishes).
        let s = solver(8, 8);
        let mut f = Fields::zeros(&s.grid);
        let mut m = Moments::zeros(&s.grid);
        for v in m.jx.iter_mut() {
            *v = 2.0;
        }
        let mut comm = SerialComm;
        s.calculate_e(&mut f, &m, &mut comm);
        let expect = -s.dt * s.theta * 2.0;
        let g = s.grid;
        for j in 0..g.ny_local as isize {
            for i in 0..g.nx as isize {
                let v = f.ex[g.idx(i, j)];
                assert!((v - expect).abs() < 1e-8, "{v} vs {expect}");
            }
        }
        // Ey, Ez untouched.
        assert!(f.ey.iter().all(|&v| v.abs() < 1e-10));
    }

    #[test]
    fn faraday_uniform_e_keeps_b() {
        let s = solver(8, 8);
        let mut f = Fields::zeros(&s.grid);
        for v in f.ex.iter_mut() {
            *v = 5.0;
        }
        let mut comm = SerialComm;
        s.calculate_b(&mut f, &mut comm);
        assert!(
            f.bx.iter().all(|&v| v.abs() < 1e-14),
            "curl of uniform E is 0"
        );
        assert!(f.bz.iter().all(|&v| v.abs() < 1e-14));
    }

    #[test]
    fn faraday_sheared_e_builds_b() {
        // Ey varying in x gives (∇×E)_z = ∂Ey/∂x ≠ 0 → Bz changes.
        let s = solver(16, 8);
        let g = s.grid;
        let mut f = Fields::zeros(&g);
        for j in -1..=(g.ny_local as isize) {
            for i in 0..g.nx as isize {
                // sin so the periodic wrap stays smooth
                f.ey[g.idx(i, j)] = (2.0 * std::f64::consts::PI * i as f64 / g.nx as f64).sin();
            }
        }
        let mut comm = SerialComm;
        s.calculate_b(&mut f, &mut comm);
        let magnitude: f64 = f.bz.iter().map(|v| v.abs()).sum();
        assert!(magnitude > 1e-3, "Bz must respond to sheared Ey");
        assert!(f.bx.iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn kappa_uses_charge_density() {
        let s = solver(4, 4);
        let mut m = Moments::zeros(&s.grid);
        m.rho[s.grid.idx(1, 1)] = -8.0;
        let kappa = s.kappa(&m);
        let f = (s.dt * s.theta * 0.5).powi(2);
        assert_eq!(kappa[s.grid.idx(1, 1)], 8.0 * f);
        assert_eq!(kappa[s.grid.idx(0, 0)], 0.0);
    }

    #[test]
    fn serial_halo_wraps_periodically() {
        let s = solver(4, 4);
        let g = s.grid;
        let mut arr = vec![0.0; g.len()];
        for j in 0..4isize {
            for i in 0..4isize {
                arr[g.idx(i, j)] = (j * 10 + i) as f64;
            }
        }
        SerialComm.halo_exchange(&g, &mut arr);
        assert_eq!(arr[g.idx(2, -1)], arr[g.idx(2, 3)]);
        assert_eq!(arr[g.idx(1, 4)], arr[g.idx(1, 0)]);
    }
}
