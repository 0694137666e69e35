//! Simulation configuration and the kernel cost descriptors.
//!
//! Two scales coexist (see the crate docs): the *simulation scale* (the
//! grid the physics actually runs on — small in tests) and the *model
//! scale* (the per-node workload virtual time is charged for — Table II of
//! the paper: 4096 cells per node, 2048 particles per cell).
//!
//! The kernel descriptors encode the paper's characterization of the two
//! solvers (§IV-C): the field solver "is not highly parallel and requires
//! substantial and frequent global communication" (scalar-ish, modest
//! OpenMP fraction, two allreduces per CG iteration), while the particle
//! solver "moves billions of particles independently with almost no
//! long-range communication" (highly vectorized — AVX2/-mavx on the
//! Cluster, AVX-512/-xMIC-AVX512 on the Booster per Table II — and almost
//! perfectly thread-parallel).

use hwmodel::{SimTime, WorkSpec};

/// The per-node workload that virtual time is charged for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelScale {
    /// Cells per node (Table II: 4096).
    pub cells_per_node: u64,
    /// Particles per cell (Table II: 2048).
    pub particles_per_cell: u64,
    /// CG iterations charged per field solve.
    pub cg_iters: u32,
    /// Fraction of particles migrating between neighbouring slabs per step.
    pub migration_fraction: f64,
}

impl ModelScale {
    /// Table II of the paper.
    pub fn paper() -> Self {
        ModelScale {
            cells_per_node: 4096,
            particles_per_cell: 2048,
            cg_iters: 40,
            // Fitted to the three Fig. 8 efficiencies; see the `kernel`
            // module docs.
            migration_fraction: 0.045,
        }
    }

    /// Particles per node.
    pub fn particles_per_node(&self) -> u64 {
        self.cells_per_node * self.particles_per_cell
    }
}

/// Cost-model constants of the xPic kernels (flops and bytes per element).
///
/// `hwmodel` prices a kernel from the machine (Table I, Fig. 3); the
/// constants here say how much work each kernel is. Five prices are fitted
/// to the paper's application results, each to the row it moves most; the
/// rest are estimates from the kernels' structure. DESIGN.md §3.11 has the
/// before/after values and the evidence.
///
/// * [`FLOPS_PER_CELL_PER_CG_ITER`](kernel::FLOPS_PER_CELL_PER_CG_ITER) and
///   [`BYTES_PER_CELL_PER_CG_ITER`](kernel::BYTES_PER_CELL_PER_CG_ITER):
///   the field solver's share of a step, which sets how far C+B beats
///   Booster-only against Cluster-only (Fig. 7's 1.21× and 1.28×; the
///   closed form in `tests/paper_claims.rs` asks for a Cluster field time
///   of 0.0546 of the Booster particle time).
/// * [`FIELD_VF`](kernel::FIELD_VF): Fig. 7's 6× field-solver ratio.
/// * [`PUSH_VF`](kernel::PUSH_VF): Fig. 7's 1.35× particle-solver ratio.
/// * [`ModelScale::migration_fraction`]:
///   Fig. 8's 85 / 79 / 77 % parallel efficiencies at 8 nodes per solver.
/// * The ρ,J interface size, `INTERFACE_MOMENT_DOUBLES`: the C+B coupling
///   share, 3–4 % in the paper.
pub mod kernel {
    /// Flops per particle push (field gather + Boris rotation + move).
    pub const FLOPS_PER_PUSH: f64 = 250.0;
    /// DRAM bytes per particle push (position+velocity read/write; fields
    /// mostly cached).
    pub const BYTES_PER_PUSH: f64 = 50.0;
    /// SIMD-vectorizable fraction of the pusher (`-xMIC-AVX512` pays off).
    /// Fitted to Fig. 7's 1.35× particle-solver ratio.
    pub const PUSH_VF: f64 = 0.90;
    /// Thread-parallel fraction of the pusher.
    pub const PUSH_PF: f64 = 0.995;

    /// Flops per particle for moment gathering (weights + 4-point scatter).
    pub const FLOPS_PER_MOMENT: f64 = 80.0;
    /// DRAM bytes per particle for moment gathering.
    pub const BYTES_PER_MOMENT: f64 = 24.0;
    /// The scatter vectorizes worse than the push (conflict detection).
    pub const MOMENT_VF: f64 = 0.85;
    /// Thread-parallel fraction of the deposit (atomics/replication).
    pub const MOMENT_PF: f64 = 0.99;

    /// Flops per cell per CG iteration (stencil apply + dots + axpys).
    /// Fitted, with the bytes below, to Fig. 7's C+B gains.
    pub const FLOPS_PER_CELL_PER_CG_ITER: f64 = 45.0;
    /// Bytes per cell per CG iteration.
    pub const BYTES_PER_CELL_PER_CG_ITER: f64 = 67.5;
    /// The implicit solver barely vectorizes (indirect stencils, short rows).
    /// Fitted to Fig. 7's 6× field-solver ratio.
    pub const FIELD_VF: f64 = 0.04;
    /// And is limited by sequential sections and synchronization.
    pub const FIELD_PF: f64 = 0.75;

    /// Flops per cell for the Faraday (curl) update of B.
    pub const FLOPS_PER_CELL_CURL: f64 = 30.0;
    /// Flops per cell for interface-buffer copies (cpyToArr/cpyFromArr).
    pub const FLOPS_PER_CELL_CPY: f64 = 10.0;
    /// Flops per element of auxiliary computations (energies, output prep)
    /// that overlap the nonblocking transfers in C+B mode.
    pub const FLOPS_PER_ELEM_AUX: f64 = 20.0;

    /// Bytes per particle on the wire when migrating (2×pos, 3×vel + id).
    pub const MIGRATION_BYTES_PER_PARTICLE: u64 = 48;

    /// Doubles per model cell in the ρ,J interface message (Booster →
    /// Cluster). The implicit-moment field solve takes every species'
    /// charge ρ, current J and pressure tensor Π (1 + 3 + 6 = 10 doubles),
    /// not ρ,J alone; four species (the usual populations of a reconnection
    /// run: sheet and background electrons and ions, sharing Table II's
    /// 2048 particles per cell) make 40. The species count is not in the
    /// paper: it is the one that puts the C+B coupling share inside the
    /// paper's 3–4 %. It is a price only: the wire carries four species'
    /// moments while the simulation pushes one, electrons against a
    /// static ion background.
    pub(crate) const INTERFACE_MOMENT_DOUBLES: u64 = 40;
}

/// Full configuration of one xPic run.
#[derive(Debug, Clone, PartialEq)]
pub struct XpicConfig {
    /// Simulation grid cells in x (actual arrays).
    pub nx: usize,
    /// Simulation grid cells in y (decomposed into slabs over ranks).
    pub ny: usize,
    /// Simulation particles per cell (actual particles).
    pub sim_particles_per_cell: usize,
    /// Time step (normalized units, c = Δx = 1).
    pub dt: f64,
    /// Number of timesteps.
    pub steps: u32,
    /// Implicitness parameter θ of the field solve.
    pub theta: f64,
    /// Thermal velocity of the initial Maxwellian (the run's one species,
    /// electrons of charge −1 per cell against a static ion background).
    pub vth: f64,
    /// RNG seed (per-slab seeds derive from it, so decompositions agree).
    pub seed: u64,
    /// Overlap auxiliary computations and particle migration with the
    /// nonblocking inter-module transfers in C+B mode (the paper's
    /// Listings 2–3 structure). Disabling this is the overlap ablation:
    /// every phase serializes onto the critical path.
    pub overlap: bool,
    /// Real OS threads used by the shared-memory kernel parallelism
    /// (`0` = all available cores). This is a *wall-clock* knob only: the
    /// kernels partition work on fixed chunk grids (see [`crate::par`]),
    /// so results — and therefore virtual time — are bit-identical for
    /// every thread count.
    pub threads: usize,
    /// The workload charged to virtual time.
    pub model: ModelScale,
}

impl XpicConfig {
    /// A small, fast test configuration.
    pub fn test_small() -> Self {
        XpicConfig {
            nx: 16,
            ny: 16,
            sim_particles_per_cell: 8,
            dt: 0.05,
            steps: 4,
            theta: 0.5,
            vth: 0.05,
            seed: 20180521,
            overlap: true,
            threads: 0,
            model: ModelScale::paper(),
        }
    }

    /// The paper's benchmark configuration (simulation scale reduced, model
    /// scale per Table II).
    pub fn paper_bench(steps: u32) -> Self {
        XpicConfig {
            nx: 32,
            ny: 32,
            sim_particles_per_cell: 4,
            steps,
            ..XpicConfig::test_small()
        }
    }

    /// Total simulation cells.
    pub fn cells(&self) -> usize {
        self.nx * self.ny
    }

    /// Total simulation particles.
    pub fn sim_particles(&self) -> usize {
        self.cells() * self.sim_particles_per_cell
    }

    /// Strong-scale the *model* workload: divide a fixed global problem of
    /// `nodes_at_reference × reference cells-per-node` over `nodes` nodes
    /// (the Fig. 8 configuration: the Table II per-node load is reached at
    /// the largest node count).
    pub fn strong_scaled(mut self, global_cells: u64, nodes: usize) -> Self {
        assert!(nodes >= 1);
        self.model.cells_per_node = (global_cells / nodes as u64).max(1);
        self
    }

    // ---- work descriptors (model scale, per rank and step) ----

    /// Work of one particle push over the rank's model-scale population.
    pub fn work_push(&self) -> WorkSpec {
        let n = self.model.particles_per_node() as f64;
        WorkSpec::named("pcl.ParticlesMove")
            .flops(n * kernel::FLOPS_PER_PUSH)
            .bytes(n * kernel::BYTES_PER_PUSH)
            .vector_fraction(kernel::PUSH_VF)
            .parallel_fraction(kernel::PUSH_PF)
            .build()
    }

    /// Work of one moment-gathering pass.
    pub fn work_moments(&self) -> WorkSpec {
        let n = self.model.particles_per_node() as f64;
        WorkSpec::named("pcl.ParticleMoments")
            .flops(n * kernel::FLOPS_PER_MOMENT)
            .bytes(n * kernel::BYTES_PER_MOMENT)
            .vector_fraction(kernel::MOMENT_VF)
            .parallel_fraction(kernel::MOMENT_PF)
            .build()
    }

    /// Work of one CG iteration of the field solve.
    pub fn work_cg_iter(&self) -> WorkSpec {
        let c = self.model.cells_per_node as f64;
        WorkSpec::named("fld.cg_iter")
            .flops(c * kernel::FLOPS_PER_CELL_PER_CG_ITER)
            .bytes(c * kernel::BYTES_PER_CELL_PER_CG_ITER)
            .vector_fraction(kernel::FIELD_VF)
            .parallel_fraction(kernel::FIELD_PF)
            .build()
    }

    /// Work of the Faraday update (calculateB).
    pub fn work_curl(&self) -> WorkSpec {
        let c = self.model.cells_per_node as f64;
        WorkSpec::named("fld.calculateB")
            .flops(c * kernel::FLOPS_PER_CELL_CURL)
            .vector_fraction(0.3)
            .parallel_fraction(0.9)
            .build()
    }

    /// Work of one interface-buffer copy.
    pub fn work_cpy(&self) -> WorkSpec {
        let c = self.model.cells_per_node as f64;
        WorkSpec::named("cpyArr")
            .flops(c * kernel::FLOPS_PER_CELL_CPY)
            .vector_fraction(0.5)
            .parallel_fraction(0.9)
            .build()
    }

    /// Auxiliary computations overlapping the C+B transfers (energies,
    /// post-processing, output preparation — §IV-B).
    pub fn work_aux(&self, elems: u64) -> WorkSpec {
        WorkSpec::named("aux")
            .flops(elems as f64 * kernel::FLOPS_PER_ELEM_AUX)
            .vector_fraction(0.6)
            .parallel_fraction(0.95)
            .build()
    }

    // ---- wire sizes (model scale) ----

    /// Bytes of one E,B slab transfer (6 components).
    pub fn wire_fields(&self) -> usize {
        (self.model.cells_per_node * 6 * 8) as usize
    }

    /// Bytes of one ρ,J slab transfer: the moments of four species
    /// (`kernel::INTERFACE_MOMENT_DOUBLES` per cell).
    pub fn wire_moments(&self) -> usize {
        (self.model.cells_per_node * kernel::INTERFACE_MOMENT_DOUBLES * 8) as usize
    }

    /// Bytes of one halo-row exchange (per neighbour, 6 field components
    /// over a model-scale row).
    pub fn wire_halo(&self) -> usize {
        let row = (self.model.cells_per_node as f64).sqrt().ceil() as usize;
        row * 6 * 8
    }

    /// Bytes of one migration exchange (per neighbour).
    pub fn wire_migration(&self) -> usize {
        let migrating =
            (self.model.particles_per_node() as f64 * self.model.migration_fraction) as u64;
        // Half go up, half down.
        (migrating / 2 * kernel::MIGRATION_BYTES_PER_PARTICLE) as usize
    }

    /// Virtual cost of writing one per-step output record (overlapped in
    /// C+B mode).
    pub fn output_overhead(&self) -> SimTime {
        SimTime::from_micros(50.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwmodel::presets::{deep_er_booster_node, deep_er_cluster_node};
    use hwmodel::CostModel;

    #[test]
    fn paper_model_scale() {
        let m = ModelScale::paper();
        assert_eq!(m.cells_per_node, 4096);
        assert_eq!(m.particles_per_cell, 2048);
        assert_eq!(m.particles_per_node(), 4096 * 2048);
    }

    #[test]
    fn config_counts() {
        let c = XpicConfig::test_small();
        assert_eq!(c.cells(), 256);
        assert_eq!(c.sim_particles(), 2048);
    }

    #[test]
    fn field_solver_prefers_cluster_by_about_6x() {
        // The headline single-node claim of §IV-C for the field solver.
        let c = XpicConfig::test_small();
        let m = CostModel;
        let cn = deep_er_cluster_node();
        let bn = deep_er_booster_node();
        let w = c.work_cg_iter();
        let ratio = m.time(&bn, &w) / m.time(&cn, &w);
        assert!(
            (4.5..=7.5).contains(&ratio),
            "field solver CN advantage should be ≈6×, got {ratio:.2}"
        );
    }

    #[test]
    fn particle_solver_prefers_booster_by_about_1_35x() {
        // The headline single-node claim of §IV-C for the particle solver
        // (push + moment gathering together).
        let c = XpicConfig::test_small();
        let m = CostModel;
        let cn = deep_er_cluster_node();
        let bn = deep_er_booster_node();
        let t_cn = m.time(&cn, &c.work_push()) + m.time(&cn, &c.work_moments());
        let t_bn = m.time(&bn, &c.work_push()) + m.time(&bn, &c.work_moments());
        let ratio = t_cn / t_bn;
        assert!(
            (1.2..=1.5).contains(&ratio),
            "particle solver BN advantage should be ≈1.35×, got {ratio:.2}"
        );
    }

    #[test]
    fn wire_sizes_scale_with_model() {
        let c = XpicConfig::test_small();
        assert_eq!(c.wire_fields(), 4096 * 48);
        assert_eq!(c.wire_moments(), 4096 * 320);
        assert!(c.wire_halo() > 0);
        assert!(c.wire_migration() > 0);
    }

    #[test]
    fn work_specs_validate() {
        let c = XpicConfig::test_small();
        for w in [
            c.work_push(),
            c.work_moments(),
            c.work_cg_iter(),
            c.work_curl(),
            c.work_cpy(),
            c.work_aux(100),
        ] {
            assert!(w.validate().is_ok(), "{}", w.name);
        }
    }
}
