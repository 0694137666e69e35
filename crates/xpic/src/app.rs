//! The xPic application: the paper's three execution modes.
//!
//! * [`Mode::ClusterOnly`] / [`Mode::BoosterOnly`] — the original main loop
//!   (Listing 1) on one module: every rank runs field solver and particle
//!   solver on its slab, in sequence, per step.
//! * [`Mode::ClusterBooster`] — the partitioned code (Listings 2–4): the
//!   job boots on the Booster running the particle solver, spawns the
//!   field solver onto the Cluster, and the paired ranks exchange the
//!   interface buffers (E,B one way, ρ,J the other) each step with
//!   nonblocking transfers; auxiliary computations (energies, output) and
//!   particle migration overlap the other side's phase.
//!
//! The physics is the same in every mode (tested): only the placement and
//! the overlap structure change — which is precisely the paper's point.

use crate::config::XpicConfig;
use crate::diagnostics::{field_energy, kinetic_energy};
use crate::fields::{FieldComm, FieldSolver};
use crate::grid::{Fields, Grid, Moments};
use crate::moments::deposit_threads;
use crate::mover::boris_push_threads;
use crate::particles::Species;
use crate::solver::{
    complete_halo_add, halo_add_moments, migrate_particles, post_halo_add_recvs,
    send_halo_add_ghosts, tags, MpiFieldComm,
};
use crate::wire;
use cluster_booster::{JobSpec, Launcher};
use hwmodel::SimTime;
use parking_lot::Mutex;
use psmpi::{Communicator, Intercomm, MpiRequest, Rank, RecvRequest, ReduceOp};
use std::sync::Arc;

/// Execution mode (paper §IV-C, Figs. 7–8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Both solvers on Cluster nodes.
    ClusterOnly,
    /// Both solvers on Booster nodes.
    BoosterOnly,
    /// Field solver on the Cluster, particle solver on the Booster ("C+B").
    ClusterBooster,
}

impl Mode {
    /// Label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            Mode::ClusterOnly => "Cluster",
            Mode::BoosterOnly => "Booster",
            Mode::ClusterBooster => "C+B",
        }
    }
}

/// Result of one xPic run.
#[derive(Debug, Clone)]
pub struct XpicReport {
    /// Mode that produced this report.
    pub mode: Mode,
    /// Nodes per solver (the x-axis of Fig. 8).
    pub nodes_per_solver: usize,
    /// Steps simulated.
    pub steps: u32,
    /// End-to-end virtual runtime (job makespan).
    pub total: SimTime,
    /// Field-solver section time (max over ranks).
    pub field_time: SimTime,
    /// Particle-solver section time (max over ranks).
    pub particle_time: SimTime,
    /// Modelled inter-solver coupling transfer time over the whole run
    /// (C+B mode; zero otherwise).
    pub coupling_comm: SimTime,
    /// Global field energy after the last step.
    pub field_energy: f64,
    /// Global kinetic energy after the last step.
    pub kinetic_energy: f64,
    /// Global particle charge after the last step (conserved).
    pub total_charge: f64,
    /// Total real CG iterations across steps and ranks.
    pub cg_iters: u64,
    /// Energy-to-solution in Joules (two-state node power model; waits at
    /// idle power — see `hwmodel::power`).
    pub energy_joules: f64,
    /// Global field energy after each step (the time series the paper's
    /// auxiliary computations produce for output files).
    pub energy_history: Vec<f64>,
}

impl XpicReport {
    /// Coupling overhead as a fraction of total runtime.
    pub fn coupling_fraction(&self) -> f64 {
        if self.total.is_zero() {
            0.0
        } else {
            self.coupling_comm / self.total
        }
    }

    /// Energy-delay product (J·s) — the metric on which partitioning pays
    /// even when raw energy favours the Booster alone.
    pub fn energy_delay(&self) -> f64 {
        self.energy_joules * self.total.as_secs()
    }
}

#[derive(Default)]
struct Acc {
    history: Vec<f64>,
    field_time: SimTime,
    particle_time: SimTime,
    /// Steady-state loop time (first step excluded, rescaled), max over
    /// all ranks of all worlds — excludes the one-off spawn latency so the
    /// three modes are compared on their per-step behaviour as in Fig. 7.
    loop_time: SimTime,
    fe: f64,
    ke: f64,
    charge: f64,
    cg: u64,
}

/// Scale a measured span over `steps − 1` steady steps to `steps`.
fn steady_total(span: SimTime, steps: u32) -> SimTime {
    if steps <= 1 {
        span
    } else {
        span * (steps as f64 / (steps as f64 - 1.0))
    }
}

/// Per-rank state of one slab's simulation.
struct SlabState {
    grid: Grid,
    solver: FieldSolver,
    /// One entry per species (the `nspec` loop of Listing 1).
    species: Vec<Species>,
    /// Particle-count share of each species (for work charging).
    ppc_share: Vec<f64>,
    fields: Fields,
    moments: Moments,
}

impl SlabState {
    fn new(config: &XpicConfig, slab: usize, nslabs: usize) -> SlabState {
        let grid = Grid::slab(config.nx, config.ny, slab, nslabs);
        let solver = FieldSolver::new(grid, config);
        let species = Species::from_config(config, &grid);
        // Work charged per species is relative to the baseline electron
        // population, so adding a kinetic ion species doubles the particle
        // workload (the model scale describes one species' population).
        let base_ppc = config.sim_particles_per_cell.max(1) as f64;
        let specs = config.species_specs();
        let ppc_share = specs.iter().map(|s| s.ppc as f64 / base_ppc).collect();
        SlabState {
            grid,
            solver,
            species,
            ppc_share,
            fields: Fields::zeros(&grid),
            moments: Moments::zeros(&grid),
        }
    }

    fn kinetic_energy(&self) -> f64 {
        self.species.iter().map(kinetic_energy).sum()
    }

    fn total_charge(&self) -> f64 {
        self.species.iter().map(Species::total_charge).sum()
    }
}

/// Field phase: calculateE with model-scale cost and padded collectives,
/// returns real CG iterations.
fn field_solve_e(
    rank: &mut Rank,
    comm: &Communicator,
    config: &XpicConfig,
    st: &mut SlabState,
) -> u32 {
    let phase = rank.obs_open(obs::Category::Phase, "field-solve");
    let mut fc = MpiFieldComm::new(rank, comm.clone(), config);
    let iters = st.solver.calculate_e(&mut st.fields, &st.moments, &mut fc);
    let done = fc.allreduces;
    // Charge the model-scale compute (Table II cells × model CG iterations).
    rank.compute(&config.work_cg_iter().scaled(config.model.cg_iters as f64));
    // Pad the global reductions up to the model iteration count (two dot
    // products per CG iteration, three components' setup reductions).
    let target = 2 * config.model.cg_iters + 6;
    for _ in done..target {
        rank.allreduce_scalar(comm, 0.0, ReduceOp::Sum)
            .expect("pad allreduce");
    }
    rank.obs_close(phase);
    iters
}

/// Particle phase: the Listing-1 species loop — push + moment gathering
/// for every species — then the halo-add (deposit-then-migrate; the
/// migration itself is the caller's, so C+B can overlap it).
fn particle_phase(rank: &mut Rank, comm: &Communicator, config: &XpicConfig, st: &mut SlabState) {
    rank.compute(&config.work_cpy()); // cpyFromArr_F
    st.moments.clear();
    // Overlapped halo-add: the neighbour ghost-row receives are posted
    // before the interior mover/deposit sweep even starts and completed
    // only after the sweep's trailing copy, so the exchange rides under
    // the step's compute (fold order is unchanged — bit-exact moments).
    let halo_recvs = if config.overlap {
        post_halo_add_recvs(rank, comm).expect("post moment halo recvs")
    } else {
        None
    };
    // for (auto is=0; is<nspec; is++) { ParticlesMove(); ParticleMoments(); }
    for is in 0..st.species.len() {
        let phase = rank.obs_open(obs::Category::Phase, "mover");
        boris_push_threads(
            &st.grid,
            &st.fields,
            &mut st.species[is],
            config.dt,
            config.threads,
        );
        rank.compute(&config.work_push().scaled(st.ppc_share[is]));
        rank.obs_close(phase);
        let phase = rank.obs_open(obs::Category::Phase, "deposit");
        deposit_threads(&st.grid, &st.species[is], &mut st.moments, config.threads);
        rank.compute(&config.work_moments().scaled(st.ppc_share[is]));
        rank.obs_close(phase);
    }
    if config.overlap {
        let phase = rank.obs_open(obs::Category::Phase, "halo");
        let halo_sends = send_halo_add_ghosts(rank, comm, &st.grid, &st.moments, config)
            .expect("send moment ghost rows");
        rank.obs_close(phase);
        rank.compute(&config.work_cpy()); // cpyToArr_M, under the exchange
        let phase = rank.obs_open(obs::Category::Phase, "halo");
        complete_halo_add(
            rank,
            comm,
            &st.grid,
            &mut st.moments,
            halo_recvs,
            halo_sends,
        )
        .expect("moment halo-add exchange");
        rank.obs_close(phase);
    } else {
        let phase = rank.obs_open(obs::Category::Phase, "halo");
        halo_add_moments(rank, comm, &st.grid, &mut st.moments, config);
        rank.obs_close(phase);
        rank.compute(&config.work_cpy()); // cpyToArr_M
    }
}

/// Migrate every species (wraps y periodically on one rank).
fn migrate_all(rank: &mut Rank, comm: &Communicator, config: &XpicConfig, st: &mut SlabState) {
    let phase = rank.obs_open(obs::Category::Phase, "migrate");
    for is in 0..st.species.len() {
        migrate_particles(rank, comm, &st.grid, &mut st.species[is], config);
    }
    rank.obs_close(phase);
}

/// Auxiliary computations + output (overlapped in C+B mode).
fn aux_phase(rank: &mut Rank, config: &XpicConfig, elems: u64) {
    let phase = rank.obs_open(obs::Category::Phase, "aux");
    rank.compute(&config.work_aux(elems));
    rank.advance(config.output_overhead());
    rank.obs_close(phase);
}

/// The combined main loop of Listing 1, one module (Cluster-only or
/// Booster-only mode).
// lock-order: 10
fn run_combined(rank: &mut Rank, config: &XpicConfig, acc: &Arc<Mutex<Acc>>) {
    let world = rank.world();
    let n = world.size();
    let mut st = SlabState::new(config, rank.rank(), n);
    let mut cg_total: u64 = 0;

    // Initial moment gathering so the first calculateE sees ρ,J.
    for is in 0..st.species.len() {
        deposit_threads(&st.grid, &st.species[is], &mut st.moments, config.threads);
        rank.compute(&config.work_moments().scaled(st.ppc_share[is]));
    }
    halo_add_moments(rank, &world, &st.grid, &mut st.moments, config);

    let mut field_time = SimTime::ZERO;
    let mut particle_time = SimTime::ZERO;
    let mut steady_mark = SimTime::ZERO;
    let mut history: Vec<f64> = Vec::with_capacity(config.steps as usize);
    for step in 0..config.steps {
        // fld.solver->calculateE(); fld.cpyToArr_F();
        let t0 = rank.now();
        cg_total += field_solve_e(rank, &world, config, &mut st) as u64;
        rank.compute(&config.work_cpy());
        field_time += rank.now() - t0;

        // pcl: cpyFromArr_F; ParticlesMove; ParticleMoments; cpyToArr_M.
        let t1 = rank.now();
        particle_phase(rank, &world, config, &mut st);
        migrate_all(rank, &world, config, &mut st);
        particle_time += rank.now() - t1;

        // fld.solver->calculateB(); fld.cpyFromArr_M();
        let t2 = rank.now();
        let phase = rank.obs_open(obs::Category::Phase, "field-solve");
        {
            let mut fc = MpiFieldComm::new(rank, world.clone(), config);
            st.solver.calculate_b(&mut st.fields, &mut fc);
        }
        rank.compute(&config.work_curl());
        rank.compute(&config.work_cpy());
        rank.obs_close(phase);
        field_time += rank.now() - t2;

        // Auxiliary computations + output (serial in the combined mode):
        // the per-step field-energy diagnostic is the real aux work.
        history.push(field_energy(&st.grid, &st.fields));
        aux_phase(rank, config, config.model.cells_per_node);
        if step == 0 {
            steady_mark = rank.now();
        }
    }
    let loop_time = steady_total(rank.now() - steady_mark, config.steps);

    finalize_combined(
        rank,
        &world,
        config,
        &st,
        field_time,
        particle_time,
        loop_time,
        cg_total,
        &history,
        acc,
    );
}

#[allow(clippy::too_many_arguments)]
fn finalize_combined(
    rank: &mut Rank,
    world: &Communicator,
    _config: &XpicConfig,
    st: &SlabState,
    field_time: SimTime,
    particle_time: SimTime,
    loop_time: SimTime,
    cg_total: u64,
    history: &[f64],
    acc: &Arc<Mutex<Acc>>, // lock-order: 10
) {
    let global_history = rank
        .allreduce(world, history, ReduceOp::Sum)
        .expect("history reduction");
    let fe = field_energy(&st.grid, &st.fields);
    let ke = st.kinetic_energy();
    let charge = st.total_charge();
    let sums = rank
        .allreduce(world, &[fe, ke, charge, cg_total as f64], ReduceOp::Sum)
        .expect("final reduction");
    let maxes = rank
        .allreduce(
            world,
            &[
                field_time.as_secs(),
                particle_time.as_secs(),
                loop_time.as_secs(),
            ],
            ReduceOp::Max,
        )
        .expect("final time reduction");
    if rank.rank() == 0 {
        let mut a = acc.lock();
        a.fe = sums[0];
        a.ke = sums[1];
        a.charge = sums[2];
        a.cg = sums[3] as u64;
        a.field_time = SimTime::from_secs(maxes[0]);
        a.particle_time = SimTime::from_secs(maxes[1]);
        a.loop_time = a.loop_time.max(SimTime::from_secs(maxes[2]));
        a.history = global_history;
    }
}

/// The Booster main loop of Listing 3 (particle solver side of C+B).
fn run_booster_side(
    rank: &mut Rank,
    config: &XpicConfig,
    cluster_nodes: &[hwmodel::NodeId],
    acc: &Arc<Mutex<Acc>>, // lock-order: 10
) {
    let world = rank.world();
    let n = world.size();
    let me = rank.rank();
    let mut st = SlabState::new(config, me, n);

    // Spawn the field solver onto the Cluster (Fig. 4).
    let config_c = Arc::new(config.clone());
    let acc_c = acc.clone();
    let ic: Intercomm = rank
        .spawn(
            &world,
            cluster_nodes,
            Arc::new(move |child: &mut Rank| {
                run_cluster_side(child, &config_c, &acc_c);
            }),
        )
        .expect("spawn field solver");

    // Initial moments → Cluster.
    for is in 0..st.species.len() {
        deposit_threads(&st.grid, &st.species[is], &mut st.moments, config.threads);
        rank.compute(&config.work_moments().scaled(st.ppc_share[is]));
    }
    halo_add_moments(rank, &world, &st.grid, &mut st.moments, config);
    // The ρ,J and E,B interface buffers ride psmpi's zero-copy Bytes path:
    // packed once into a flat f64 buffer, decoded once on the other side.
    let phase = rank.obs_open(obs::Category::Phase, "interface");
    let rhoj = wire::f64s_to_bytes_pooled(rank.buffer_pool(), &st.moments.pack_owned(&st.grid));
    rank.send_bytes_comm_sized(&ic, me, tags::RHOJ, rhoj, config.wire_moments())
        .expect("initial moments");
    rank.obs_close(phase);

    let mut particle_time = SimTime::ZERO;
    let mut steady_mark = SimTime::ZERO;
    // Overlap: the next step's E,B receive is posted as soon as this
    // step's moments are away, so the wait at the loop top only covers
    // whatever transfer time the aux + migration below did not hide.
    let mut next_eb: Option<RecvRequest> = None;
    for step in 0..config.steps {
        // ClusterToBooster(); ClusterWait(); — receive E,B.
        let phase = rank.obs_open(obs::Category::Phase, "interface");
        let eb = match next_eb.take() {
            Some(req) => req.wait(rank).expect("receive E,B").0,
            None => {
                rank.recv_bytes_comm(&ic, Some(me), Some(tags::EB))
                    .expect("receive E,B")
                    .0
            }
        };
        st.fields.unpack_owned(&st.grid, &wire::bytes_to_f64s(&eb));
        rank.buffer_pool().recycle(eb);
        // The interface buffer carries owned rows only; refresh the ghost
        // rows within the Booster world so edge particles gather the same
        // fields as in the combined mode.
        {
            let mut fc = MpiFieldComm::new(rank, world.clone(), config);
            let g = st.grid;
            for comp in st.fields.components_mut() {
                fc.halo_exchange(&g, comp);
            }
        }
        rank.obs_close(phase);

        // pcl.cpyFromArr_F; ParticlesMove; ParticleMoments; cpyToArr_M.
        let t0 = rank.now();
        particle_phase(rank, &world, config, &mut st);
        if config.overlap {
            // BoosterToCluster(); — post ρ,J (nonblocking) and the next
            // E,B receive, then do the I/O, auxiliary computations and
            // the particle migration while the Cluster solves the fields
            // (Listing 3's structure). The deferred send charge is
            // collected after the migration.
            let phase = rank.obs_open(obs::Category::Phase, "interface");
            let rhoj =
                wire::f64s_to_bytes_pooled(rank.buffer_pool(), &st.moments.pack_owned(&st.grid));
            let rhoj_send = rank
                .isend_bytes_comm_sized(&ic, me, tags::RHOJ, rhoj, config.wire_moments())
                .expect("send moments");
            if step + 1 < config.steps {
                next_eb = Some(
                    rank.irecv_bytes_comm(&ic, Some(me), Some(tags::EB))
                        .expect("post E,B recv"),
                );
            }
            rank.obs_close(phase);
            particle_time += rank.now() - t0;
            aux_phase(rank, config, config.model.particles_per_node() / 100);
            migrate_all(rank, &world, config, &mut st);
            let phase = rank.obs_open(obs::Category::Phase, "interface");
            rhoj_send.wait(rank).expect("complete moment send");
            rank.obs_close(phase);
        } else {
            // Ablation: everything before the send → fully serialized.
            aux_phase(rank, config, config.model.particles_per_node() / 100);
            migrate_all(rank, &world, config, &mut st);
            let phase = rank.obs_open(obs::Category::Phase, "interface");
            let rhoj =
                wire::f64s_to_bytes_pooled(rank.buffer_pool(), &st.moments.pack_owned(&st.grid));
            rank.send_bytes_comm_sized(&ic, me, tags::RHOJ, rhoj, config.wire_moments())
                .expect("send moments");
            rank.obs_close(phase);
            particle_time += rank.now() - t0;
        }
        if step == 0 {
            steady_mark = rank.now();
        }
    }
    let loop_time = steady_total(rank.now() - steady_mark, config.steps);

    // Final reductions over the Booster world.
    let ke = st.kinetic_energy();
    let charge = st.total_charge();
    let sums = rank
        .allreduce(&world, &[ke, charge], ReduceOp::Sum)
        .expect("booster reduction");
    let maxes = rank
        .allreduce(
            &world,
            &[particle_time.as_secs(), loop_time.as_secs()],
            ReduceOp::Max,
        )
        .expect("booster time reduction");
    if me == 0 {
        let mut a = acc.lock();
        a.ke = sums[0];
        a.charge = sums[1];
        a.particle_time = SimTime::from_secs(maxes[0]);
        a.loop_time = a.loop_time.max(SimTime::from_secs(maxes[1]));
    }
}

/// The Cluster main loop of Listing 2 (field solver side of C+B).
// lock-order: 10
fn run_cluster_side(rank: &mut Rank, config: &XpicConfig, acc: &Arc<Mutex<Acc>>) {
    let world = rank.world();
    let me = rank.rank();
    let ic = rank.parent().expect("spawned by the Booster side");
    let mut st = SlabState::new(config, me, world.size());
    st.species.clear(); // particles live on the Booster

    // Initial moments from the Booster.
    let phase = rank.obs_open(obs::Category::Phase, "interface");
    let (mj, _) = rank
        .recv_bytes_comm(&ic, Some(me), Some(tags::RHOJ))
        .expect("initial moments");
    st.moments.unpack_owned(&st.grid, &wire::bytes_to_f64s(&mj));
    rank.obs_close(phase);

    let mut field_time = SimTime::ZERO;
    let mut cg_total: u64 = 0;
    let mut steady_mark = SimTime::ZERO;
    let mut history: Vec<f64> = Vec::with_capacity(config.steps as usize);
    for step in 0..config.steps {
        // fld.solver->calculateE(); fld.cpyToArr_F();
        let t0 = rank.now();
        cg_total += field_solve_e(rank, &world, config, &mut st) as u64;
        rank.compute(&config.work_cpy());
        if config.overlap {
            // ClusterToBooster(); — post E,B (nonblocking) and the ρ,J
            // receive right away, then let the auxiliary computations AND
            // calculateB run under both transfers: the moments are
            // consumed only by the next step's calculateE, so the wait
            // can sit after the whole back half of the step (Listing 2's
            // structure, pushed as far as the data flow allows).
            let phase = rank.obs_open(obs::Category::Phase, "interface");
            let eb =
                wire::f64s_to_bytes_pooled(rank.buffer_pool(), &st.fields.pack_owned(&st.grid));
            let eb_send = rank
                .isend_bytes_comm_sized(&ic, me, tags::EB, eb, config.wire_fields())
                .expect("send E,B");
            let rhoj_req = rank
                .irecv_bytes_comm(&ic, Some(me), Some(tags::RHOJ))
                .expect("post moments recv");
            rank.obs_close(phase);
            field_time += rank.now() - t0;
            aux_phase(rank, config, config.model.cells_per_node);

            // calculateB(); cpyFromArr_M(); — reads fields only, so it
            // legally overlaps the in-flight ρ,J.
            let t2 = rank.now();
            let phase = rank.obs_open(obs::Category::Phase, "field-solve");
            {
                let mut fc = MpiFieldComm::new(rank, world.clone(), config);
                st.solver.calculate_b(&mut st.fields, &mut fc);
            }
            rank.compute(&config.work_curl());
            rank.compute(&config.work_cpy());
            rank.obs_close(phase);
            field_time += rank.now() - t2;
            // Record the per-step field-energy diagnostic (after
            // calculateB, the same point in the step as the combined
            // main loop).
            history.push(field_energy(&st.grid, &st.fields));

            // BoosterWait(); — collect the deferred send charge and the
            // moments, just in time for the next calculateE.
            let phase = rank.obs_open(obs::Category::Phase, "interface");
            eb_send.wait(rank).expect("complete E,B send");
            let (mj, _) = rhoj_req.wait(rank).expect("receive moments");
            st.moments.unpack_owned(&st.grid, &wire::bytes_to_f64s(&mj));
            rank.buffer_pool().recycle(mj);
            rank.obs_close(phase);
        } else {
            // Ablation: auxiliary work delays the send, and every
            // transfer is waited where it is issued.
            aux_phase(rank, config, config.model.cells_per_node);
            let phase = rank.obs_open(obs::Category::Phase, "interface");
            let eb =
                wire::f64s_to_bytes_pooled(rank.buffer_pool(), &st.fields.pack_owned(&st.grid));
            rank.send_bytes_comm_sized(&ic, me, tags::EB, eb, config.wire_fields())
                .expect("send E,B");
            rank.obs_close(phase);
            field_time += rank.now() - t0;

            // BoosterToCluster(); BoosterWait(); — receive ρ,J.
            let phase = rank.obs_open(obs::Category::Phase, "interface");
            let (mj, _) = rank
                .recv_bytes_comm(&ic, Some(me), Some(tags::RHOJ))
                .expect("receive moments");
            st.moments.unpack_owned(&st.grid, &wire::bytes_to_f64s(&mj));
            rank.buffer_pool().recycle(mj);
            rank.obs_close(phase);

            // calculateB(); cpyFromArr_M();
            let t2 = rank.now();
            let phase = rank.obs_open(obs::Category::Phase, "field-solve");
            {
                let mut fc = MpiFieldComm::new(rank, world.clone(), config);
                st.solver.calculate_b(&mut st.fields, &mut fc);
            }
            rank.compute(&config.work_curl());
            rank.compute(&config.work_cpy());
            rank.obs_close(phase);
            field_time += rank.now() - t2;
            // Record the per-step field-energy diagnostic (after
            // calculateB, the same point in the step as the combined
            // main loop).
            history.push(field_energy(&st.grid, &st.fields));
        }
        if step == 0 {
            steady_mark = rank.now();
        }
    }
    let loop_time = steady_total(rank.now() - steady_mark, config.steps);

    let global_history = rank
        .allreduce(&world, &history, ReduceOp::Sum)
        .expect("cluster history reduction");
    let fe = field_energy(&st.grid, &st.fields);
    let sums = rank
        .allreduce(&world, &[fe, cg_total as f64], ReduceOp::Sum)
        .expect("cluster reduction");
    let maxes = rank
        .allreduce(
            &world,
            &[field_time.as_secs(), loop_time.as_secs()],
            ReduceOp::Max,
        )
        .expect("cluster time reduction");
    if me == 0 {
        let mut a = acc.lock();
        a.fe = sums[0];
        a.cg = sums[1] as u64;
        a.field_time = SimTime::from_secs(maxes[0]);
        a.loop_time = a.loop_time.max(SimTime::from_secs(maxes[1]));
        a.history = global_history;
    }
}

/// Run xPic in `mode` with `nodes_per_solver` nodes per solver on
/// `launcher`'s system, and report runtimes, energies and conservation.
pub fn run_mode(
    launcher: &Launcher,
    mode: Mode,
    nodes_per_solver: usize,
    config: &XpicConfig,
) -> XpicReport {
    let acc = Arc::new(Mutex::new(Acc::default())); // lock-order: 10
    let config = Arc::new(config.clone());

    let spec = match mode {
        Mode::ClusterOnly => JobSpec::cluster_only("xpic-cluster", nodes_per_solver),
        Mode::BoosterOnly => JobSpec::booster_only("xpic-booster", nodes_per_solver),
        Mode::ClusterBooster => {
            JobSpec::partitioned("xpic-c+b", nodes_per_solver, nodes_per_solver)
        }
    };

    let acc_in = acc.clone();
    let config_in = config.clone();
    let report = launcher
        .launch(&spec, move |rank, alloc| match mode {
            Mode::ClusterOnly | Mode::BoosterOnly => run_combined(rank, &config_in, &acc_in),
            Mode::ClusterBooster => run_booster_side(rank, &config_in, &alloc.cluster, &acc_in),
        })
        .expect("xpic launch");

    // Modelled coupling transfer volume (C+B only): one E,B + one ρ,J
    // message per pair per step, plus the initial moments.
    let coupling_comm = if mode == Mode::ClusterBooster {
        let sys = launcher.system();
        let cn = sys.cluster_nodes()[0];
        let bn = sys.booster_nodes()[0];
        let fabric = sys.fabric();
        let per_step = fabric
            .p2p_time(cn, bn, config.wire_fields())
            .expect("cn-bn path")
            + fabric
                .p2p_time(bn, cn, config.wire_moments())
                .expect("bn-cn path");
        per_step * config.steps as f64
    } else {
        SimTime::ZERO
    };

    let a = acc.lock();
    let total = if a.loop_time.is_zero() {
        report.makespan()
    } else {
        a.loop_time
    };
    let energy_joules = report.total_energy_joules();
    XpicReport {
        mode,
        nodes_per_solver,
        steps: config.steps,
        total,
        field_time: a.field_time,
        particle_time: a.particle_time,
        coupling_comm,
        field_energy: a.fe,
        kinetic_energy: a.ke,
        total_charge: a.charge,
        cg_iters: a.cg,
        energy_joules,
        energy_history: a.history.clone(),
    }
}
