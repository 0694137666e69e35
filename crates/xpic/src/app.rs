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
//!
//! Each step is written once (one function per kernel phase, one
//! interface codec, one end-of-run `reduce_tail`); each Listing keeps one
//! loop that orders the calls, and C+B keeps its overlapped and blocking
//! branches apart (DESIGN.md §3.9 says why). Listing 1's loop also steps
//! the checkpointed run of [`crate::resilience`].

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
use bytes::Bytes;
use cluster_booster::{JobSpec, Launcher};
use hwmodel::SimTime;
use lockrank::Mutex;
use psmpi::datatype::{bytes_to_pod, pod_to_bytes_pooled};
use psmpi::{Communicator, Intercomm, MpiRequest, PsmpiError, Rank, RecvRequest, ReduceOp, Wire};
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
    /// Steps simulated.
    pub steps: u32,
    /// Steady-state virtual loop time: the slowest rank's `steady` phase
    /// (end of the first step to end of the last), rescaled by
    /// `steps / (steps − 1)` to stand for every step. The one-off start-up
    /// (C+B's spawn, the initial moments) is excluded. The job makespan
    /// stands in only when that span is zero (one step).
    pub total: SimTime,
    /// Field-solver section time: the slowest rank's `field` phase.
    pub field_time: SimTime,
    /// Particle-solver section time: the slowest rank's `particle` phase.
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
}

/// The phases `run_mode` reads from the ranks' ledgers: Fig. 7's two
/// solver sections and the steady window `total` measures.
const FIELD: &str = "field";
const PARTICLE: &str = "particle";
const STEADY: &str = "steady";

#[derive(Default)]
struct Acc {
    history: Vec<f64>,
    fe: f64,
    ke: f64,
    charge: f64,
    cg: u64,
}

/// Per-rank state of one slab's simulation, and the solver world the slab
/// belongs to.
pub(crate) struct SlabState {
    pub(crate) world: Communicator,
    grid: Grid,
    solver: FieldSolver,
    /// One entry per species (the `nspec` loop of Listing 1).
    pub(crate) species: Vec<Species>,
    pub(crate) fields: Fields,
    moments: Moments,
    /// This slab's field energy after each step (the field solver's).
    history: Vec<f64>,
    /// Real CG iterations of this slab's calculateE calls.
    cg: u64,
}

impl SlabState {
    /// `rank`'s slab with its particles: both solvers on one module, or
    /// the particle solver of C+B. It holds `state` when one is given (a
    /// restored checkpoint), else the seeded population and zero fields.
    fn new(config: &XpicConfig, rank: &Rank, state: Option<(Vec<Species>, Fields)>) -> SlabState {
        let mut st = SlabState::without_particles(config, rank);
        match state {
            Some((species, fields)) => (st.species, st.fields) = (species, fields),
            None => st.species = Species::from_config(config, &st.grid),
        }
        st
    }

    /// The field solver's slab of C+B (Listing 2): no particles, which
    /// live on the Booster.
    fn without_particles(config: &XpicConfig, rank: &Rank) -> SlabState {
        let world = rank.world();
        let grid = Grid::slab(config.nx, config.ny, rank.rank(), world.size());
        SlabState {
            world,
            grid,
            solver: FieldSolver::new(grid, config),
            species: Vec::new(),
            fields: Fields::zeros(&grid),
            moments: Moments::zeros(&grid),
            history: Vec::with_capacity(config.steps as usize),
            cg: 0,
        }
    }

    /// Initial moment gathering (every species' deposit, then the
    /// halo-add) so the first calculateE sees ρ,J.
    fn initial_moments(&mut self, rank: &mut Rank, config: &XpicConfig) -> Result<(), PsmpiError> {
        let phase = rank.obs_open(obs::Category::Phase, "initial-moments");
        for species in &self.species {
            deposit_threads(&self.grid, species, &mut self.moments, config.threads);
            rank.compute(&config.work_moments());
        }
        halo_add_moments(rank, &self.world, &self.grid, &mut self.moments, config)?;
        rank.obs_close(phase);
        Ok(())
    }

    /// Field phase: calculateE with model-scale cost and padded
    /// collectives, then cpyToArr_F; counts its real CG iterations.
    fn field_solve_e(&mut self, rank: &mut Rank, config: &XpicConfig) -> Result<(), PsmpiError> {
        let phase = rank.obs_open(obs::Category::Phase, "field-solve");
        let mut fc = MpiFieldComm::new(rank, self.world.clone(), config);
        let iters = self
            .solver
            .calculate_e(&mut self.fields, &self.moments, &mut fc);
        let done = fc.allreduces;
        fc.take_failure().map_or(Ok(()), Err)?;
        // Charge the model-scale compute (Table II cells × model CG iterations).
        rank.compute(&config.work_cg_iter().scaled(config.model.cg_iters as f64));
        // Pad the global reductions up to the model iteration count (two dot
        // products per CG iteration, three components' setup reductions).
        let target = 2 * config.model.cg_iters + 6;
        for _ in done..target {
            rank.allreduce_scalar(&self.world, 0.0, ReduceOp::Sum)?;
        }
        rank.obs_close(phase);
        rank.compute(&config.work_cpy()); // cpyToArr_F
        self.cg += u64::from(iters);
        Ok(())
    }

    /// Field phase: calculateB (the Faraday update, which reads fields
    /// only) and cpyFromArr_M, a `field` section of its own in every
    /// Listing; then the step's field energy goes on the slab's history.
    fn field_solve_b(&mut self, rank: &mut Rank, config: &XpicConfig) -> Result<(), PsmpiError> {
        let section = rank.obs_open(obs::Category::Phase, FIELD);
        let phase = rank.obs_open(obs::Category::Phase, "field-solve");
        let mut fc = MpiFieldComm::new(rank, self.world.clone(), config);
        self.solver.calculate_b(&mut self.fields, &mut fc);
        fc.take_failure().map_or(Ok(()), Err)?;
        rank.compute(&config.work_curl());
        rank.compute(&config.work_cpy());
        rank.obs_close(phase);
        rank.obs_close(section);
        self.history.push(self.field_energy());
        Ok(())
    }

    /// Particle phase: the Listing-1 species loop — push + moment
    /// gathering for every species — then the halo-add (deposit, then
    /// migrate: the migration is [`SlabState::migrate_all`], so C+B can
    /// overlap it).
    fn particle_phase(&mut self, rank: &mut Rank, config: &XpicConfig) -> Result<(), PsmpiError> {
        let (world, grid) = (&self.world, &self.grid);
        rank.compute(&config.work_cpy()); // cpyFromArr_F
        self.moments.clear();
        // Overlapped halo-add: the neighbour ghost-row receives are posted
        // before the interior mover/deposit sweep even starts and completed
        // only after the sweep's trailing copy, so the exchange rides under
        // the step's compute (fold order is unchanged — bit-exact moments).
        let halo_recvs = if config.overlap {
            post_halo_add_recvs(rank, world)?
        } else {
            None
        };
        // for (auto is=0; is<nspec; is++) { ParticlesMove(); ParticleMoments(); }
        for species in &mut self.species {
            let phase = rank.obs_open(obs::Category::Phase, "mover");
            boris_push_threads(grid, &self.fields, species, config.dt, config.threads);
            rank.compute(&config.work_push());
            rank.obs_close(phase);
            let phase = rank.obs_open(obs::Category::Phase, "deposit");
            deposit_threads(grid, species, &mut self.moments, config.threads);
            rank.compute(&config.work_moments());
            rank.obs_close(phase);
        }
        let phase = rank.obs_open(obs::Category::Phase, "halo");
        if config.overlap {
            let halo_sends = send_halo_add_ghosts(rank, world, grid, &self.moments, config)?;
            rank.obs_close(phase);
            rank.compute(&config.work_cpy()); // cpyToArr_M, under the exchange
            let phase = rank.obs_open(obs::Category::Phase, "halo");
            complete_halo_add(rank, world, grid, &mut self.moments, halo_recvs, halo_sends)?;
            rank.obs_close(phase);
        } else {
            halo_add_moments(rank, world, grid, &mut self.moments, config)?;
            rank.obs_close(phase);
            rank.compute(&config.work_cpy()); // cpyToArr_M
        }
        Ok(())
    }

    /// Migrate every species (wraps y periodically on one rank).
    fn migrate_all(&mut self, rank: &mut Rank, config: &XpicConfig) -> Result<(), PsmpiError> {
        let phase = rank.obs_open(obs::Category::Phase, "migrate");
        for species in &mut self.species {
            migrate_particles(rank, &self.world, &self.grid, species, config)?;
        }
        rank.obs_close(phase);
        Ok(())
    }

    /// This slab's field energy (the per-step diagnostic).
    pub(crate) fn field_energy(&self) -> f64 {
        field_energy(&self.grid, &self.fields)
    }

    pub(crate) fn kinetic_energy(&self) -> f64 {
        self.species.iter().map(kinetic_energy).sum()
    }

    fn total_charge(&self) -> f64 {
        self.species.iter().map(Species::total_charge).sum()
    }
}

/// Auxiliary computations + output (overlapped in C+B mode).
fn aux_phase(rank: &mut Rank, config: &XpicConfig, elems: u64) {
    let phase = rank.obs_open(obs::Category::Phase, "aux");
    rank.compute(&config.work_aux(elems));
    rank.advance(config.output_overhead());
    rank.obs_close(phase);
}

/// An interface buffer (the owned E,B or ρ,J rows) on psmpi's zero-copy
/// Bytes path: packed once into a pooled flat f64 buffer ...
fn pack_interface(rank: &Rank, owned: &[f64]) -> Bytes {
    pod_to_bytes_pooled(rank.buffer_pool(), owned)
}

/// ... and decoded once on the other side, the buffer going back to the
/// pool.
fn unpack_interface(rank: &Rank, buf: Bytes) -> Vec<f64> {
    let owned = bytes_to_pod::<f64>(&buf).expect("interface buffer length");
    rank.buffer_pool().recycle(buf);
    owned
}

/// A blocking interface send to the paired rank, under the `interface`
/// phase.
fn send_interface(
    rank: &mut Rank,
    ic: &Intercomm,
    tag: i32,
    owned: &[f64],
    wire_size: usize,
) -> Result<(), PsmpiError> {
    let phase = rank.obs_open(obs::Category::Phase, "interface");
    let buf = pack_interface(rank, owned);
    rank.send_bytes_comm(ic, rank.rank(), tag, Wire::modelled(buf, wire_size))?;
    rank.obs_close(phase);
    Ok(())
}

/// What [`reduce_tail`] hands world rank 0: history and sums.
type Tail<const S: usize> = (Vec<f64>, [f64; S]);

/// The end-of-run reductions of one world, in a `reduce` phase and in the
/// order every world issues them: the per-step field-energy `history` (if
/// any), then `sums`, both summed. Returns `(history, sums)` on world rank
/// 0, the rank that records them; `history` is empty when none was given.
fn reduce_tail<const S: usize>(
    rank: &mut Rank,
    world: &Communicator,
    history: Option<&[f64]>,
    sums: [f64; S],
) -> Result<Option<Tail<S>>, PsmpiError> {
    let phase = rank.obs_open(obs::Category::Phase, "reduce");
    let history = history
        .map(|h| rank.allreduce(world, h, ReduceOp::Sum))
        .transpose()?;
    let sums = rank.allreduce(world, &sums, ReduceOp::Sum)?;
    rank.obs_close(phase);
    let sums = sums.try_into().expect("one sum per operand");
    Ok((rank.rank() == 0).then(|| (history.unwrap_or_default(), sums)))
}

/// The combined main loop of Listing 1 on one module (Cluster-only,
/// Booster-only, and the checkpointed run's solver world), cut after
/// calculateE, where the carried state is exactly `(species, fields)`:
/// `particle_phase` clears the moments before it deposits. `boundary` gets
/// the steps done at each cut; a `restored` state starts at its cut.
/// Returns the rank's final slab; each caller reduces what it reads. The
/// solvers' work runs in `field` and `particle` phases, and the steps
/// after the first in a `steady` one.
pub(crate) fn combined_loop(
    rank: &mut Rank,
    config: &XpicConfig,
    restored: Option<(u32, (Vec<Species>, Fields))>,
    mut boundary: impl FnMut(&mut Rank, u32, &SlabState) -> Result<(), PsmpiError>,
) -> Result<SlabState, PsmpiError> {
    let (first, state) = restored.unzip();
    let mut st = SlabState::new(config, rank, state);
    if first.is_none() {
        st.initial_moments(rank, config)?;
        if config.steps > 0 {
            // fld.solver->calculateE(); fld.cpyToArr_F();
            let phase = rank.obs_open(obs::Category::Phase, FIELD);
            st.field_solve_e(rank, config)?;
            rank.obs_close(phase);
        }
    }
    let mut steady = None;
    for step in first.unwrap_or(0)..config.steps {
        // pcl: cpyFromArr_F; ParticlesMove; ParticleMoments; cpyToArr_M.
        let phase = rank.obs_open(obs::Category::Phase, PARTICLE);
        st.particle_phase(rank, config)?;
        st.migrate_all(rank, config)?;
        rank.obs_close(phase);

        // fld.solver->calculateB(); fld.cpyFromArr_M();
        st.field_solve_b(rank, config)?;

        // Auxiliary computations + output (serial in the combined mode).
        aux_phase(rank, config, config.model.cells_per_node);
        if step == 0 {
            steady = Some(rank.obs_open(obs::Category::Phase, STEADY));
        }

        // The next step's fld.solver->calculateE(); fld.cpyToArr_F();
        if step + 1 < config.steps {
            let phase = rank.obs_open(obs::Category::Phase, FIELD);
            st.field_solve_e(rank, config)?;
            rank.obs_close(phase);
        }
        boundary(rank, step + 1, &st)?;
    }
    rank.obs_close(steady);
    Ok(st)
}

/// Cluster-only or Booster-only mode: Listing 1's loop with nothing at
/// its boundaries, its history and sums `[fe, ke, charge, cg]` reduced and
/// recorded into `acc`.
fn run_combined(
    rank: &mut Rank,
    config: &XpicConfig,
    acc: &Arc<Mutex<Acc, 100>>,
) -> Result<(), PsmpiError> {
    let st = combined_loop(rank, config, None, |_, _, _| Ok(()))?;
    let (fe, ke, charge) = (st.field_energy(), st.kinetic_energy(), st.total_charge());
    let sums = [fe, ke, charge, st.cg as f64];
    let tail = reduce_tail(rank, &st.world, Some(&st.history), sums)?;
    if let Some((history, [fe, ke, charge, cg])) = tail {
        let mut a = acc.lock();
        (a.fe, a.ke, a.charge, a.cg, a.history) = (fe, ke, charge, cg as u64, history);
    }
    Ok(())
}

/// The Booster main loop of Listing 3 (particle solver side of C+B).
fn run_booster_side(
    rank: &mut Rank,
    config: &XpicConfig,
    cluster_nodes: &[hwmodel::NodeId],
    acc: &Arc<Mutex<Acc, 100>>,
) -> Result<(), PsmpiError> {
    let me = rank.rank();
    let mut st = SlabState::new(config, rank, None);

    // Spawn the field solver onto the Cluster (Fig. 4).
    let config_c = Arc::new(config.clone());
    let acc_c = acc.clone();
    let phase = rank.obs_open(obs::Category::Phase, "spawn");
    let ic: Intercomm = rank.spawn(
        &st.world,
        cluster_nodes,
        Arc::new(move |child: &mut Rank| {
            run_cluster_side(child, &config_c, &acc_c).expect("xpic field solver rank");
        }),
    )?;
    rank.obs_close(phase);

    // Initial moments → Cluster.
    st.initial_moments(rank, config)?;
    let rhoj = st.moments.pack_owned(&st.grid);
    send_interface(rank, &ic, tags::RHOJ, &rhoj, config.wire_moments())?;

    let mut steady = None;
    // Overlap: the next step's E,B receive is posted as soon as this
    // step's moments are away, so the wait at the loop top only covers
    // whatever transfer time the aux + migration below did not hide.
    let mut next_eb: Option<RecvRequest> = None;
    for step in 0..config.steps {
        // ClusterToBooster(); ClusterWait(); — receive E,B.
        let phase = rank.obs_open(obs::Category::Phase, "interface");
        let (eb, _) = match next_eb.take() {
            Some(req) => req.wait(rank),
            None => rank.recv_bytes_comm(&ic, Some(me), Some(tags::EB)),
        }?;
        st.fields
            .unpack_owned(&st.grid, &unpack_interface(rank, eb));
        // The interface buffer carries owned rows only; refresh the ghost
        // rows within the Booster world so edge particles gather the same
        // fields as in the combined mode.
        let mut fc = MpiFieldComm::new(rank, st.world.clone(), config);
        for comp in st.fields.components_mut() {
            fc.halo_exchange(&st.grid, comp);
        }
        fc.take_failure().map_or(Ok(()), Err)?;
        rank.obs_close(phase);

        // pcl.cpyFromArr_F; ParticlesMove; ParticleMoments; cpyToArr_M.
        let phase = rank.obs_open(obs::Category::Phase, PARTICLE);
        st.particle_phase(rank, config)?;
        if config.overlap {
            // BoosterToCluster(); — post ρ,J (nonblocking) and the next
            // E,B receive, then do the I/O, auxiliary computations and
            // the particle migration while the Cluster solves the fields
            // (Listing 3's structure). The deferred send charge is
            // collected after the migration.
            let iface = rank.obs_open(obs::Category::Phase, "interface");
            let rhoj = pack_interface(rank, &st.moments.pack_owned(&st.grid));
            let rhoj = Wire::modelled(rhoj, config.wire_moments());
            let rhoj_send = rank.isend_bytes_comm(&ic, me, tags::RHOJ, rhoj)?;
            if step + 1 < config.steps {
                next_eb = Some(rank.irecv_bytes_comm(&ic, Some(me), Some(tags::EB))?);
            }
            rank.obs_close(iface);
            rank.obs_close(phase);
            aux_phase(rank, config, config.model.particles_per_node() / 100);
            st.migrate_all(rank, config)?;
            let phase = rank.obs_open(obs::Category::Phase, "interface");
            rhoj_send.wait(rank)?;
            rank.obs_close(phase);
        } else {
            // Ablation: everything before the send → fully serialized.
            aux_phase(rank, config, config.model.particles_per_node() / 100);
            st.migrate_all(rank, config)?;
            let rhoj = st.moments.pack_owned(&st.grid);
            send_interface(rank, &ic, tags::RHOJ, &rhoj, config.wire_moments())?;
            rank.obs_close(phase);
        }
        if step == 0 {
            steady = Some(rank.obs_open(obs::Category::Phase, STEADY));
        }
    }
    rank.obs_close(steady);

    let sums = [st.kinetic_energy(), st.total_charge()];
    if let Some((_, [ke, charge])) = reduce_tail(rank, &st.world, None, sums)? {
        let mut a = acc.lock();
        (a.ke, a.charge) = (ke, charge);
    }
    Ok(())
}

/// The Cluster main loop of Listing 2 (field solver side of C+B).
fn run_cluster_side(
    rank: &mut Rank,
    config: &XpicConfig,
    acc: &Arc<Mutex<Acc, 100>>,
) -> Result<(), PsmpiError> {
    let me = rank.rank();
    let ic = rank.parent().expect("spawned by the Booster side");
    let mut st = SlabState::without_particles(config, rank);

    // Initial moments from the Booster. This one buffer stays out of the
    // pool: pooling it slowed the host's next `Launcher::new` by about a
    // third (`setup_s` of the repo benchmark's xpic_fig7 workload).
    let phase = rank.obs_open(obs::Category::Phase, "interface");
    let (mj, _) = rank.recv_bytes_comm(&ic, Some(me), Some(tags::RHOJ))?;
    let rhoj = bytes_to_pod::<f64>(&mj).expect("interface buffer length");
    st.moments.unpack_owned(&st.grid, &rhoj);
    rank.obs_close(phase);

    let mut steady = None;
    for step in 0..config.steps {
        // fld.solver->calculateE(); fld.cpyToArr_F();
        let phase = rank.obs_open(obs::Category::Phase, FIELD);
        st.field_solve_e(rank, config)?;
        if config.overlap {
            // ClusterToBooster(); — post E,B (nonblocking) and the ρ,J
            // receive right away, then let the auxiliary computations AND
            // calculateB run under both transfers: the moments are
            // consumed only by the next step's calculateE, so the wait
            // can sit after the whole back half of the step (Listing 2's
            // structure, pushed as far as the data flow allows).
            let iface = rank.obs_open(obs::Category::Phase, "interface");
            let eb = pack_interface(rank, &st.fields.pack_owned(&st.grid));
            let eb = Wire::modelled(eb, config.wire_fields());
            let eb_send = rank.isend_bytes_comm(&ic, me, tags::EB, eb)?;
            let rhoj_req = rank.irecv_bytes_comm(&ic, Some(me), Some(tags::RHOJ))?;
            rank.obs_close(iface);
            rank.obs_close(phase);
            aux_phase(rank, config, config.model.cells_per_node);

            // calculateB(); cpyFromArr_M(); — reads fields only, so it
            // legally overlaps the in-flight ρ,J.
            st.field_solve_b(rank, config)?;

            // BoosterWait(); — collect the deferred send charge and the
            // moments, just in time for the next calculateE.
            let phase = rank.obs_open(obs::Category::Phase, "interface");
            eb_send.wait(rank)?;
            let (mj, _) = rhoj_req.wait(rank)?;
            st.moments
                .unpack_owned(&st.grid, &unpack_interface(rank, mj));
            rank.obs_close(phase);
        } else {
            // Ablation: auxiliary work delays the send, and every
            // transfer is waited where it is issued.
            aux_phase(rank, config, config.model.cells_per_node);
            let eb = st.fields.pack_owned(&st.grid);
            send_interface(rank, &ic, tags::EB, &eb, config.wire_fields())?;
            rank.obs_close(phase);

            // BoosterToCluster(); BoosterWait(); — receive ρ,J.
            let phase = rank.obs_open(obs::Category::Phase, "interface");
            let (mj, _) = rank.recv_bytes_comm(&ic, Some(me), Some(tags::RHOJ))?;
            st.moments
                .unpack_owned(&st.grid, &unpack_interface(rank, mj));
            rank.obs_close(phase);

            // calculateB(); cpyFromArr_M();
            st.field_solve_b(rank, config)?;
        }
        if step == 0 {
            steady = Some(rank.obs_open(obs::Category::Phase, STEADY));
        }
    }
    rank.obs_close(steady);

    let sums = [st.field_energy(), st.cg as f64];
    if let Some((history, [fe, cg])) = reduce_tail(rank, &st.world, Some(&st.history), sums)? {
        let mut a = acc.lock();
        (a.fe, a.cg, a.history) = (fe, cg as u64, history);
    }
    Ok(())
}

/// Run xPic in `mode` with `nodes_per_solver` nodes per solver on
/// `launcher`'s system, and report runtimes, energies and conservation.
pub fn run_mode(
    launcher: &Launcher,
    mode: Mode,
    nodes_per_solver: usize,
    config: &XpicConfig,
) -> XpicReport {
    let acc = Arc::new(Mutex::new(Acc::default()));
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
        .launch(&spec, move |rank, alloc| {
            match mode {
                Mode::ClusterOnly | Mode::BoosterOnly => run_combined(rank, &config_in, &acc_in),
                Mode::ClusterBooster => run_booster_side(rank, &config_in, &alloc.cluster, &acc_in),
            }
            .expect("xpic rank")
        })
        .expect("xpic launch");

    // The slowest rank's phases; `steps − 1` steady steps stand for `steps`.
    let slowest = |name| {
        let ledgers = report.outcomes().iter().flat_map(|o| &o.phases);
        let phase = ledgers.filter(|(n, _)| *n == name).map(|&(_, t)| t);
        phase.max().unwrap_or(SimTime::ZERO)
    };
    let steady = slowest(STEADY);
    let total = if steady.is_zero() {
        report.makespan()
    } else {
        let steps = config.steps as f64;
        steady * (steps / (steps - 1.0))
    };

    // Modelled coupling transfer volume (C+B only): one E,B + one ρ,J
    // message per pair per step.
    let coupling_comm = if mode == Mode::ClusterBooster {
        let sys = launcher.system();
        let (cn, bn) = (sys.cluster_nodes()[0], sys.booster_nodes()[0]);
        let p2p = |from, to, bytes| sys.fabric().p2p_time(from, to, bytes).expect("CN-BN path");
        let per_step = p2p(cn, bn, config.wire_fields()) + p2p(bn, cn, config.wire_moments());
        per_step * config.steps as f64
    } else {
        SimTime::ZERO
    };

    let a = acc.lock();
    XpicReport {
        mode,
        steps: config.steps,
        total,
        field_time: slowest(FIELD),
        particle_time: slowest(PARTICLE),
        coupling_comm,
        field_energy: a.fe,
        kinetic_energy: a.ke,
        total_charge: a.charge,
        cg_iters: a.cg,
        energy_history: a.history.clone(),
    }
}
