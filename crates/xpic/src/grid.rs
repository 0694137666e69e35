//! Grid storage: a rank's slab of the global domain, with ghost rows.
//!
//! The global domain is `nx × ny` cells, periodic in both directions,
//! decomposed into horizontal slabs (contiguous ranges of rows) over the
//! solver ranks. Each slab stores one ghost row above and below for the
//! stencil and deposit halos. Fields are collocated at cell centers.

use std::ops::Range;

/// Geometry of one rank's slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid {
    /// Global cells in x.
    pub nx: usize,
    /// Global cells in y.
    pub ny: usize,
    /// First global row owned by this slab.
    pub y0: usize,
    /// Rows owned by this slab.
    pub ny_local: usize,
}

impl Grid {
    /// Slab `rank` of `nranks` over an `nx × ny` domain. Rows are divided
    /// as evenly as possible (first `ny % nranks` slabs get one extra).
    pub fn slab(nx: usize, ny: usize, rank: usize, nranks: usize) -> Grid {
        assert!(nranks >= 1 && rank < nranks);
        assert!(ny >= nranks, "need at least one row per rank");
        let base = ny / nranks;
        let extra = ny % nranks;
        let ny_local = base + usize::from(rank < extra);
        let y0 = rank * base + rank.min(extra);
        Grid {
            nx,
            ny,
            y0,
            ny_local,
        }
    }

    /// Cells owned by the slab.
    pub fn cells(&self) -> usize {
        self.nx * self.ny_local
    }

    /// Rows including the two ghost rows.
    pub fn rows_with_ghosts(&self) -> usize {
        self.ny_local + 2
    }

    /// Storage length of one slab array (with ghosts).
    pub fn len(&self) -> usize {
        self.nx * self.rows_with_ghosts()
    }

    /// True if the slab owns no rows (cannot happen via [`Grid::slab`]).
    pub fn is_empty(&self) -> bool {
        self.ny_local == 0
    }

    /// Index into a slab array for local row `j` ∈ [-1, ny_local] (−1 and
    /// ny_local are the ghost rows) and column `i` (periodic in x). The
    /// general accessor for cold code and tests: it pays an integer
    /// division per call, so the kernels use [`Grid::row`] and [`Stencil`].
    #[inline]
    pub fn idx(&self, i: isize, j: isize) -> usize {
        debug_assert!(j >= -1 && j <= self.ny_local as isize);
        let i = i.rem_euclid(self.nx as isize) as usize;
        let row = (j + 1) as usize;
        row * self.nx + i
    }

    /// Storage range of local row `j` ∈ [-1, ny_local]: the `nx` contiguous
    /// cells `idx(0, j)..idx(0, j) + nx`. The grid loops slice whole rows
    /// with this instead of calling [`Grid::idx`] per cell.
    #[inline]
    pub fn row(&self, j: isize) -> Range<usize> {
        debug_assert!(j >= -1 && j <= self.ny_local as isize);
        let start = (j + 1) as usize * self.nx;
        start..start + self.nx
    }

    /// Storage range of the owned local rows `rows` ⊆ `0..ny_local`
    /// (contiguous, ghost rows excluded).
    #[inline]
    pub fn owned_rows(&self, rows: Range<usize>) -> Range<usize> {
        debug_assert!(rows.start <= rows.end && rows.end <= self.ny_local);
        (rows.start + 1) * self.nx..(rows.end + 1) * self.nx
    }

    /// Whether global row `gy` (periodic) belongs to this slab.
    pub fn owns_row(&self, gy: isize) -> bool {
        let gy = gy.rem_euclid(self.ny as isize) as usize;
        gy >= self.y0 && gy < self.y0 + self.ny_local
    }

    /// Convert a global y coordinate (in cell units) to slab-local.
    #[inline]
    pub fn to_local_y(&self, gy: f64) -> f64 {
        gy - self.y0 as f64
    }
}

/// Column `i` ∈ ℤ folded into `0..nx`. A particle inside the domain only
/// ever asks for `-1..=nx` (its own column and the two neighbours), which
/// compares resolve; anything further out takes the general modulo.
#[inline]
fn wrap_col(i: isize, nx: isize) -> usize {
    let c = if (0..nx).contains(&i) {
        i
    } else if i == -1 {
        nx - 1
    } else if i == nx {
        0
    } else {
        i.rem_euclid(nx)
    };
    c as usize
}

/// `x.floor() as isize`, for every `f64` (±0, NaN, ±∞ and values past
/// ±2⁶³ included), without calling `floor`.
///
/// The baseline x86-64 target has no `roundsd`, so `f64::floor` is an
/// out-of-line software routine; the particle loops ask for two floors per
/// particle per kernel. The saturating truncation already rounds towards
/// zero, so only a negative non-integer needs the step down — and at
/// `isize::MIN` the step saturates, as the saturating cast of the floor
/// would.
#[inline]
pub fn floor_index(x: f64) -> isize {
    let t = x as isize;
    if t as f64 > x {
        t.saturating_sub(1)
    } else {
        t
    }
}

/// Fold coordinate `r` into the periodic interval `[0, n)`.
///
/// A position already inside the interval — nearly every particle, every
/// step — comes back untouched, without the `fmod` behind
/// `f64::rem_euclid`. Outside it the result is `r.rem_euclid(n)`, except
/// that `rem_euclid` rounds a tiny negative `r` (`-1e-17`) up to `n`
/// itself; that is the periodic point `0.0`, which is what is returned, so
/// the result is always `< n`.
#[inline]
pub fn wrap_periodic(r: f64, n: f64) -> f64 {
    if r >= 0.0 && r < n {
        return r;
    }
    let w = r.rem_euclid(n);
    if w == n {
        0.0
    } else {
        w
    }
}

/// The bilinear (cloud-in-cell) stencil of one particle: the storage
/// indices of the four surrounding cell centers and their weights, in the
/// order (i0, j0), (i0+1, j0), (i0, j0+1), (i0+1, j0+1).
///
/// Computed once per particle; the mover gathers all six field components
/// through it and the deposit scatters through it, so the two use the same
/// weights by construction (no self-force).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stencil {
    /// Indices into a slab array.
    pub k: [usize; 4],
    /// Bilinear weights (they sum to one).
    pub w: [f64; 4],
}

impl Stencil {
    /// The stencil at (x, y) in local cell coordinates (y relative to the
    /// slab, may reach into the ghost rows; x periodic).
    #[inline]
    pub fn at(grid: &Grid, x: f64, y: f64) -> Stencil {
        // Cell centers sit at integer+0.5; shift so the floor finds the
        // lower left center.
        let gx = x - 0.5;
        let gy = y - 0.5;
        let i0 = floor_index(gx);
        let j0 = floor_index(gy);
        let fx = gx - i0 as f64;
        let fy = gy - j0 as f64;
        let nx = grid.nx as isize;
        let c0 = wrap_col(i0, nx);
        let c1 = wrap_col(i0 + 1, nx);
        // Rows j0 and j0 + 1, ghost rows included.
        let r0 = grid.row(j0).start;
        let r1 = grid.row(j0 + 1).start;
        Stencil {
            k: [r0 + c0, r0 + c1, r1 + c0, r1 + c1],
            w: [
                (1.0 - fx) * (1.0 - fy),
                fx * (1.0 - fy),
                (1.0 - fx) * fy,
                fx * fy,
            ],
        }
    }

    /// Bilinear interpolation at the stencil's point of every component of
    /// a slab of `N`-value cell records: four record loads, then for each
    /// component `w0·f0 + w1·f1 + w2·f2 + w3·f3`, summed left to right.
    #[inline]
    pub fn apply<const N: usize>(&self, cells: &[[f64; N]]) -> [f64; N] {
        let w = &self.w;
        let [f0, f1, f2, f3] = self.k.map(|k| &cells[k]);
        std::array::from_fn(|c| w[0] * f0[c] + w[1] * f1[c] + w[2] * f2[c] + w[3] * f3[c])
    }
}

/// The six electromagnetic field components on one slab.
#[derive(Debug, Clone, PartialEq)]
pub struct Fields {
    /// Electric field components.
    pub ex: Vec<f64>,
    /// Electric field, y.
    pub ey: Vec<f64>,
    /// Electric field, z.
    pub ez: Vec<f64>,
    /// Magnetic field, x.
    pub bx: Vec<f64>,
    /// Magnetic field, y.
    pub by: Vec<f64>,
    /// Magnetic field, z.
    pub bz: Vec<f64>,
}

impl Fields {
    /// Zero fields on a slab.
    pub fn zeros(grid: &Grid) -> Fields {
        let n = grid.len();
        Fields {
            ex: vec![0.0; n],
            ey: vec![0.0; n],
            ez: vec![0.0; n],
            bx: vec![0.0; n],
            by: vec![0.0; n],
            bz: vec![0.0; n],
        }
    }

    /// All six component arrays, E first.
    pub fn components(&self) -> [&Vec<f64>; 6] {
        [&self.ex, &self.ey, &self.ez, &self.bx, &self.by, &self.bz]
    }

    /// Mutable access to all six component arrays.
    pub fn components_mut(&mut self) -> [&mut Vec<f64>; 6] {
        [
            &mut self.ex,
            &mut self.ey,
            &mut self.ez,
            &mut self.bx,
            &mut self.by,
            &mut self.bz,
        ]
    }

    /// Pack the owned rows (no ghosts) of all components into one vector —
    /// the interface-buffer representation exchanged between the solvers
    /// (cpyToArr_F of Listing 1).
    pub fn pack_owned(&self, grid: &Grid) -> Vec<f64> {
        let mut out = Vec::with_capacity(6 * grid.cells());
        for comp in self.components() {
            for j in 0..grid.ny_local as isize {
                out.extend_from_slice(&comp[grid.row(j)]);
            }
        }
        out
    }

    /// Inverse of [`Fields::pack_owned`] (cpyFromArr_F).
    pub fn unpack_owned(&mut self, grid: &Grid, data: &[f64]) {
        assert_eq!(data.len(), 6 * grid.cells());
        let mut it = data.chunks_exact(grid.cells());
        for comp in self.components_mut() {
            let chunk = it.next().expect("six components");
            for j in 0..grid.ny_local {
                comp[grid.row(j as isize)].copy_from_slice(&chunk[j * grid.nx..(j + 1) * grid.nx]);
            }
        }
    }
}

/// The charge/current moments on one slab (with ghost rows used as deposit
/// accumulation buffers).
#[derive(Debug, Clone, PartialEq)]
pub struct Moments {
    /// Charge density.
    pub rho: Vec<f64>,
    /// Current density, x.
    pub jx: Vec<f64>,
    /// Current density, y.
    pub jy: Vec<f64>,
    /// Current density, z.
    pub jz: Vec<f64>,
}

impl Moments {
    /// Zero moments on a slab.
    pub fn zeros(grid: &Grid) -> Moments {
        let n = grid.len();
        Moments {
            rho: vec![0.0; n],
            jx: vec![0.0; n],
            jy: vec![0.0; n],
            jz: vec![0.0; n],
        }
    }

    /// Reset to zero (start of a deposit pass).
    pub fn clear(&mut self) {
        for c in [&mut self.rho, &mut self.jx, &mut self.jy, &mut self.jz] {
            c.iter_mut().for_each(|x| *x = 0.0);
        }
    }

    /// The four component arrays.
    pub fn components(&self) -> [&Vec<f64>; 4] {
        [&self.rho, &self.jx, &self.jy, &self.jz]
    }

    /// Mutable component arrays.
    pub fn components_mut(&mut self) -> [&mut Vec<f64>; 4] {
        [&mut self.rho, &mut self.jx, &mut self.jy, &mut self.jz]
    }

    /// Pack owned rows into the interface-buffer vector (cpyToArr_M).
    pub fn pack_owned(&self, grid: &Grid) -> Vec<f64> {
        let mut out = Vec::with_capacity(4 * grid.cells());
        for comp in self.components() {
            for j in 0..grid.ny_local as isize {
                out.extend_from_slice(&comp[grid.row(j)]);
            }
        }
        out
    }

    /// Inverse of [`Moments::pack_owned`] (cpyFromArr_M).
    pub fn unpack_owned(&mut self, grid: &Grid, data: &[f64]) {
        assert_eq!(data.len(), 4 * grid.cells());
        let mut it = data.chunks_exact(grid.cells());
        for comp in self.components_mut() {
            let chunk = it.next().expect("four components");
            for j in 0..grid.ny_local {
                comp[grid.row(j as isize)].copy_from_slice(&chunk[j * grid.nx..(j + 1) * grid.nx]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn slab_partition_covers_domain() {
        let ny = 19;
        for nranks in [1, 2, 3, 4] {
            let slabs: Vec<Grid> = (0..nranks).map(|r| Grid::slab(8, ny, r, nranks)).collect();
            let total: usize = slabs.iter().map(|g| g.ny_local).sum();
            assert_eq!(total, ny);
            let mut y = 0;
            for g in &slabs {
                assert_eq!(g.y0, y, "slabs contiguous");
                assert!(!g.is_empty());
                y += g.ny_local;
            }
        }
    }

    #[test]
    fn idx_periodic_in_x_with_ghost_rows() {
        let g = Grid::slab(8, 16, 0, 2);
        assert_eq!(g.rows_with_ghosts(), 10);
        assert_eq!(g.len(), 80);
        assert_eq!(g.idx(0, -1), 0);
        assert_eq!(g.idx(0, 0), 8);
        assert_eq!(g.idx(-1, 0), 8 + 7, "x wraps");
        assert_eq!(g.idx(8, 0), 8, "x wraps forward");
        assert_eq!(g.idx(0, 8), 8 * 9, "bottom ghost row");
    }

    #[test]
    fn rows_are_the_idx_ranges() {
        let g = Grid::slab(8, 16, 1, 2);
        for j in -1..=g.ny_local as isize {
            assert_eq!(g.row(j), g.idx(0, j)..g.idx(0, j) + g.nx);
        }
        assert_eq!(g.owned_rows(0..g.ny_local), g.row(0).start..g.row(7).end);
        assert_eq!(g.owned_rows(2..5), g.row(2).start..g.row(4).end);
        assert!(g.owned_rows(3..3).is_empty());
    }

    #[test]
    fn floor_index_is_the_saturating_floor_on_the_edges() {
        let ulp_around = |v: f64| {
            let b = v.to_bits();
            [f64::from_bits(b - 1), v, f64::from_bits(b + 1)]
        };
        let mut xs = vec![0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        xs.extend([f64::MAX, f64::MIN, f64::MIN_POSITIVE, -f64::MIN_POSITIVE]);
        xs.extend([f64::from_bits(1), -f64::from_bits(1)]);
        for v in [1.0, -1.0] {
            xs.extend(ulp_around(v));
        }
        for e in [52, 53, 63] {
            let p = 2f64.powi(e);
            xs.extend(ulp_around(p));
            xs.extend(ulp_around(-p));
        }
        for x in xs {
            assert_eq!(floor_index(x), x.floor() as isize, "x = {x:e}");
        }
        assert_eq!(floor_index(-0.5), -1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn floor_index_is_the_saturating_floor_for_any_bits(
            x in any::<u64>().prop_map(f64::from_bits)
        ) {
            prop_assert_eq!(floor_index(x), x.floor() as isize, "x = {:e}", x);
        }
    }

    #[test]
    fn wrap_periodic_stays_below_the_upper_bound() {
        let n = 128.0;
        // rem_euclid rounds a tiny negative up to n itself — outside [0, n).
        assert_eq!((-1e-17_f64).rem_euclid(n), n);
        assert_eq!(wrap_periodic(-1e-17, n), 0.0);
        assert_eq!(wrap_periodic(n, n), 0.0);
        assert_eq!(wrap_periodic(2.0 * n + 1.0, n), 1.0);
        assert_eq!(wrap_periodic(-0.25, n), n - 0.25);
        // Inside the interval the value comes back bit for bit.
        let below = f64::from_bits(n.to_bits() - 1);
        assert_eq!(wrap_periodic(below, n).to_bits(), below.to_bits());
        assert_eq!(wrap_periodic(-0.0, n).to_bits(), (-0.0_f64).to_bits());
        assert_eq!(wrap_periodic(0.0, n).to_bits(), 0.0_f64.to_bits());
        assert!(wrap_periodic(f64::NAN, n).is_nan());
    }

    #[test]
    fn stencil_wraps_columns_and_reaches_ghost_rows() {
        let g = Grid::slab(8, 16, 0, 2);
        // Left of the first center: columns 7 and 0, rows ghost (−1) and 0.
        let st = Stencil::at(&g, 0.25, 0.25);
        assert_eq!(st.k, [g.idx(7, -1), g.idx(0, -1), g.idx(7, 0), g.idx(0, 0)]);
        assert_eq!(st.w, [0.0625, 0.1875, 0.1875, 0.5625]);
        // Right of the last center, x = nx included: columns 7 and 0.
        for x in [7.75, 8.0] {
            let st = Stencil::at(&g, x, 7.75);
            assert_eq!(st.k, [g.idx(7, 7), g.idx(0, 7), g.idx(7, 8), g.idx(0, 8)]);
        }
        // Far outside in x the general modulo takes over.
        let st = Stencil::at(&g, 8.0 * 5.0 + 3.5, 3.5);
        assert_eq!(st.k[0], g.idx(3, 3));
        assert_eq!(st.w, [1.0, 0.0, 0.0, 0.0]);
        let st = Stencil::at(&g, -8.0 * 3.0 + 3.5, 3.5);
        assert_eq!(st.k[..2], [g.idx(3, 3), g.idx(4, 3)]);
    }

    #[test]
    fn owns_row_periodic() {
        let g = Grid::slab(8, 16, 1, 2); // rows 8..16
        assert!(g.owns_row(8));
        assert!(g.owns_row(15));
        assert!(!g.owns_row(0));
        assert!(g.owns_row(-1), "row −1 wraps to 15");
        assert!(!g.owns_row(16), "row 16 wraps to 0");
    }

    #[test]
    fn fields_pack_unpack_roundtrip() {
        let g = Grid::slab(4, 8, 1, 2);
        let mut f = Fields::zeros(&g);
        for (k, comp) in f.components_mut().into_iter().enumerate() {
            for (i, v) in comp.iter_mut().enumerate() {
                *v = (k * 1000 + i) as f64;
            }
        }
        let packed = f.pack_owned(&g);
        assert_eq!(packed.len(), 6 * g.cells());
        let mut f2 = Fields::zeros(&g);
        f2.unpack_owned(&g, &packed);
        // Owned rows match; ghosts in f2 remain zero.
        for j in 0..g.ny_local as isize {
            for i in 0..g.nx as isize {
                assert_eq!(f2.ex[g.idx(i, j)], f.ex[g.idx(i, j)]);
                assert_eq!(f2.bz[g.idx(i, j)], f.bz[g.idx(i, j)]);
            }
        }
        assert_eq!(f2.ex[g.idx(0, -1)], 0.0);
    }

    impl Moments {
        /// Total charge on the owned rows.
        fn total_charge(&self, grid: &Grid) -> f64 {
            (0..grid.ny_local as isize)
                .map(|j| self.rho[grid.row(j)].iter().sum::<f64>())
                .sum()
        }
    }

    #[test]
    fn moments_pack_unpack_and_charge() {
        let g = Grid::slab(4, 4, 0, 1);
        let mut m = Moments::zeros(&g);
        for j in 0..4 {
            for i in 0..4 {
                m.rho[g.idx(i, j)] = 1.0;
            }
        }
        m.rho[g.idx(0, -1)] = 99.0; // ghost must not count
        assert_eq!(m.total_charge(&g), 16.0);
        let packed = m.pack_owned(&g);
        let mut m2 = Moments::zeros(&g);
        m2.unpack_owned(&g, &packed);
        assert_eq!(m2.total_charge(&g), 16.0);
        m2.clear();
        assert_eq!(m2.total_charge(&g), 0.0);
    }

    #[test]
    fn to_local_y_offsets() {
        let g = Grid::slab(4, 16, 1, 2);
        assert_eq!(g.to_local_y(8.5), 0.5);
        assert_eq!(g.to_local_y(15.0), 7.0);
    }
}
