//! Checkpoint/restart integration for xPic — the paper's resiliency stack
//! (§III-C/D) applied to its co-design application.
//!
//! Each rank's slab state (particles of every species + fields) serializes
//! into one blob; the SCR manager stores the blobs at the configured level
//! every `checkpoint_every` steps. A run interrupted by a (simulated) node
//! failure restarts from the newest recoverable checkpoint and must end in
//! exactly the state of an uninterrupted run — which the tests verify.
//!
//! Two drivers are provided, and both step the same loop
//! (`resilient_steps`):
//!
//! * [`run_checkpointed`] — the cooperative variant: the job stops itself
//!   after a chosen step and a second launch resumes from SCR;
//! * [`run_resilient`] — the full recovery loop: a supervisor rank on the
//!   Cluster spawns the solver world onto the Booster through
//!   `MPI_Comm_spawn`, a [`FaultPlan`] kills nodes at virtual times, the
//!   typed `MpiError` surface aborts the step cleanly, and the supervisor
//!   restarts the lost world from the newest checkpoint. Because the fault
//!   schedule is static and the physics is a pure function of the
//!   checkpointed state, a recovered run finishes **bit-identical** to an
//!   uninterrupted one.

use crate::config::XpicConfig;
use crate::diagnostics::{field_energy, kinetic_energy};
use crate::fields::FieldSolver;
use crate::grid::{Fields, Grid, Moments};
use crate::moments::deposit_threads;
use crate::mover::boris_push_threads;
use crate::particles::Species;
use crate::solver::{try_halo_add_moments, try_migrate_particles, MpiFieldComm};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use cluster_booster::{JobSpec, Launcher, ModuleKind};
use hwmodel::{NodeId, SimTime};
use parking_lot::Mutex;
use psmpi::datatype::CodecError;
use psmpi::universe::RankFn;
use psmpi::{
    Communicator, MpiDatatype, MpiRequest, PsmpiError, Rank, RecvRequest, ReduceOp, SendRequest,
    Tag,
};
pub use scr::CkptMode;
use scr::{delta, CheckpointLevel, Payload, PendingDrain, ScrError, ScrManager};
use simnet::FaultPlan;
use std::sync::Arc;

/// Tag of the completion report a child world sends its supervisor.
pub const TAG_STATUS: Tag = 120;

/// Tag of the buddy-copy drain transfers of asynchronous checkpoints.
pub const TAG_DRAIN: Tag = 121;

fn put_f64s(buf: &mut BytesMut, v: &[f64]) {
    buf.put_u64_le(v.len() as u64);
    f64::encode_slice(v, buf);
}

fn get_f64s(buf: &mut Bytes) -> Vec<f64> {
    let n = buf.get_u64_le() as usize;
    f64::decode_vec(n, buf).expect("checkpoint blob framing")
}

/// Exact encoded size of one rank's state blob.
fn state_size(species: &[Species], fields: &Fields) -> usize {
    let vec_size = |n: usize| 8 + 8 * n;
    8 + species
        .iter()
        .map(|s| 16 + 5 * vec_size(s.len()))
        .sum::<usize>()
        + fields
            .components()
            .iter()
            .map(|c| vec_size(c.len()))
            .sum::<usize>()
}

fn encode_state(buf: &mut BytesMut, species: &[Species], fields: &Fields) {
    buf.put_u64_le(species.len() as u64);
    for s in species {
        buf.put_f64_le(s.qom);
        buf.put_f64_le(s.q_per_particle);
        put_f64s(buf, &s.x);
        put_f64s(buf, &s.y);
        put_f64s(buf, &s.vx);
        put_f64s(buf, &s.vy);
        put_f64s(buf, &s.vz);
    }
    for comp in fields.components() {
        put_f64s(buf, comp);
    }
}

/// One rank's state blob with [`delta::TAG_FULL`] in front: the buffer is
/// the blob's keyframe as it stands, and `slice(1..)` the blob. It is the
/// only allocation a checkpoint makes for the blob — gather, `scr` entries,
/// delta base and restart hold views of it. Not a [`psmpi::BufferPool`]
/// buffer: `scr` retains it, it would never go back.
fn pack_keyframe(species: &[Species], fields: &Fields) -> Bytes {
    let mut buf = BytesMut::with_capacity(1 + state_size(species, fields));
    buf.put_u8(delta::TAG_FULL);
    encode_state(&mut buf, species, fields);
    buf.freeze()
}

/// Serialize one rank's simulation state (all species + fields) to bytes.
pub fn pack_state(species: &[Species], fields: &Fields) -> Bytes {
    pack_keyframe(species, fields).slice(1..)
}

/// Inverse of [`pack_state`]; reads `data` in place.
pub fn unpack_state(data: &Bytes, grid: &Grid) -> (Vec<Species>, Fields) {
    let mut buf = data.clone();
    let nspec = buf.get_u64_le() as usize;
    let mut species = Vec::with_capacity(nspec);
    for _ in 0..nspec {
        let qom = buf.get_f64_le();
        let q_per_particle = buf.get_f64_le();
        let x = get_f64s(&mut buf);
        let y = get_f64s(&mut buf);
        let vx = get_f64s(&mut buf);
        let vy = get_f64s(&mut buf);
        let vz = get_f64s(&mut buf);
        species.push(Species {
            qom,
            q_per_particle,
            x,
            y,
            vx,
            vy,
            vz,
        });
    }
    let mut fields = Fields::zeros(grid);
    for comp in fields.components_mut() {
        *comp = get_f64s(&mut buf);
    }
    (species, fields)
}

/// Per-rank state of the checkpoint engine, one per world incarnation.
///
/// Every mode takes a checkpoint the same way: pack, frame, gather on rank
/// 0, stage there ([`ScrManager::checkpoint_async`]), barrier. What differs
/// is how rank 0 pays. In [`CkptMode::Sync`] it charges the full level cost
/// and promotes on the spot. In the async modes it charges the local NVMe
/// stage only; the buddy copy then drains through *real* fabric transfers
/// posted with the nonblocking request engine — a peer-to-peer
/// `isend`/`irecv` pair to the rank's buddy, or a one-sided
/// [`Rank::inam_put_sized`] RDMA put when the manager's buddy level is
/// NAM-backed — so the next steps' compute hides the drain in virtual
/// time. The drain is realized at the next synchronization point
/// (`drain_wait`), after which rank 0 promotes the checkpoint to its full
/// level ([`ScrManager::finish_drain`]). A node death while a drain is in
/// flight aborts it ([`ScrManager::fail_nodes`]), promotion is refused, and
/// recovery falls back to the newest *promoted* checkpoint — exactly as
/// [`scr::simulate_run`] models.
///
/// [`CkptMode::AsyncDelta`] additionally encodes each checkpoint as a
/// dirty-range delta against the previous checkpoint's blob
/// ([`scr::delta`]), with a full keyframe every `keyframe_every`-th
/// checkpoint (and always on the first checkpoint of an incarnation, since
/// a restored world cannot trust any earlier base), shrinking the bytes
/// the gather and the drain push.
struct CkptEngine<'a> {
    scr: &'a ScrManager,
    level: CheckpointLevel,
    mode: CkptMode,
    keyframe_every: u32,
    /// Checkpoints taken by this incarnation (drives the keyframe cadence).
    taken: u32,
    /// Delta base: the previous checkpoint's id and full blob on this rank.
    base: Option<(u64, Bytes)>,
    /// This rank's outstanding drain transfers.
    send: Option<SendRequest>,
    recv: Option<RecvRequest>,
    /// Modeled completion time of a drain with no request surface (the
    /// Global level drains to the PFS; each rank prices it locally).
    due: Option<SimTime>,
    /// Rank 0's promotion handle for the in-flight drain.
    pending: Option<PendingDrain>,
    /// Blocking virtual time this rank spent checkpointing: local stages
    /// (full level cost in sync mode) plus drain spill the compute could
    /// not hide.
    block: SimTime,
}

impl<'a> CkptEngine<'a> {
    fn new(
        scr: &'a ScrManager,
        level: CheckpointLevel,
        mode: CkptMode,
        keyframe_every: u32,
    ) -> Self {
        assert!(keyframe_every >= 1);
        CkptEngine {
            scr,
            level,
            mode,
            keyframe_every,
            taken: 0,
            base: None,
            send: None,
            recv: None,
            due: None,
            pending: None,
            block: SimTime::ZERO,
        }
    }

    /// Realize the in-flight drain on this rank's clock: whatever of it
    /// the compute since the post already hid costs nothing here, only
    /// the spill blocks (emitted as a `ckpt_drain` span).
    fn drain_wait(&mut self, rank: &mut Rank) -> Result<(), PsmpiError> {
        if self.send.is_none() && self.recv.is_none() && self.due.is_none() {
            return Ok(());
        }
        let t0 = rank.now();
        let span = rank.obs_open(obs::Category::CkptDrain, "drain-wait");
        let send = self.send.take();
        let recv = self.recv.take();
        let due = self.due.take();
        let res = (|| -> Result<(), PsmpiError> {
            if let Some(s) = send {
                s.wait(rank)?;
            }
            if let Some(r) = recv {
                let (bytes, _) = r.wait(rank)?;
                rank.buffer_pool().recycle(bytes);
            }
            Ok(())
        })();
        if res.is_ok() {
            if let Some(at) = due {
                rank.advance(at.saturating_sub(rank.now()));
            }
        }
        rank.obs_close(span);
        self.block += rank.now() - t0;
        res
    }

    /// This rank's wire frame in delta mode (`None` in the plain modes: the
    /// full blob itself rides the wire): a delta against the base where one
    /// is due and smaller, else `keyframe`, the buffer the blob sits in.
    fn encode_frame(&self, id: u64, keyframe: &Bytes) -> Option<Bytes> {
        if self.mode != CkptMode::AsyncDelta {
            return None;
        }
        let due = self.taken.is_multiple_of(self.keyframe_every);
        let delta = match &self.base {
            Some((base_id, base)) if !due && *base_id != id => {
                delta::try_encode_delta(base, &keyframe[1..], *base_id)
            }
            _ => None,
        };
        Some(delta.map_or_else(|| keyframe.clone(), Bytes::from))
    }

    /// Post this rank's share of the new checkpoint's drain.
    fn post_drain(
        &mut self,
        rank: &mut Rank,
        world: &Communicator,
        id: u64,
        wire: &Bytes,
        full: &[u8],
    ) -> Result<(), PsmpiError> {
        match self.level {
            // Nothing above the local stage to drain.
            CheckpointLevel::Local => {}
            CheckpointLevel::Buddy => {
                if let Some(nam) = self.scr.nam() {
                    // NAM-backed buddy level: a one-sided RDMA put into
                    // the device region this checkpoint promotes into —
                    // no active component on the far side (paper §II-B).
                    // The full blob lands in the region; the wire charge
                    // is the encoded frame.
                    let region = self
                        .scr
                        .nam_region(id, rank.rank(), full.len() as u64)
                        .expect("NAM region for drain");
                    self.send =
                        Some(rank.inam_put_sized(nam.index, region, 0, full, Some(wire.len()))?);
                } else {
                    // Peer-to-peer buddy copy through the request engine:
                    // the frame rides a real fabric transfer to this
                    // rank's buddy, and the matching receive realizes the
                    // arrival time on the buddy's clock.
                    let n = world.size();
                    let me = rank.rank();
                    let buddy = self.scr.buddy_of(me);
                    let from = (me + n - self.scr.buddy_of(0)) % n;
                    self.send =
                        Some(rank.isend_bytes_comm(world, buddy, TAG_DRAIN, wire.clone())?);
                    self.recv = Some(rank.irecv_bytes_comm(world, Some(from), Some(TAG_DRAIN))?);
                }
            }
            CheckpointLevel::Global => {
                // The PFS has no request surface; model the drain's
                // completion time and charge any unhidden remainder at
                // the next wait.
                let wire_bytes = wire.len() as u64;
                let cost = |level| self.scr.checkpoint_cost(level, wire_bytes);
                let drain =
                    cost(CheckpointLevel::Global).saturating_sub(cost(CheckpointLevel::Local));
                self.due = Some(rank.now() + drain);
            }
        }
        Ok(())
    }

    /// The collective checkpoint of `step` (called on every rank).
    fn checkpoint_step(
        &mut self,
        rank: &mut Rank,
        world: &Communicator,
        step: u32,
        species: &[Species],
        fields: &Fields,
    ) -> Result<(), PsmpiError> {
        // Realize the previous drain first: the compute since its post
        // already hid (part of) it. Blocking checkpoints leave none.
        self.drain_wait(rank)?;

        let keyframe = pack_keyframe(species, fields);
        let full = keyframe.slice(1..);
        let id = step as u64;
        let frame = self.encode_frame(id, &keyframe);
        let wire = frame.as_ref().unwrap_or(&full);
        let gathered = rank.gather_bytes(world, 0, wire.clone())?;
        if let Some(sent) = gathered {
            // Every rank's payload arrived, so every rank finished its
            // drain_wait: promote the previous checkpoint to its full
            // level before the new one is staged.
            self.finish_promote();
            let payload = match frame {
                Some(_) => Payload::Frames(&sent),
                None => Payload::Blobs(&sent),
            };
            let staged = self
                .scr
                .checkpoint_async(id, self.level, payload)
                .expect("checkpoint");
            if self.mode == CkptMode::Sync {
                // Blocking: the whole level cost in one advance (`SimTime`
                // is an `f64`, so local + drain could land one ulp away),
                // promoted on the spot.
                let now = rank.now();
                if let Some(t) = rank.obs() {
                    let end = now + staged.full_cost;
                    t.span(obs::Category::Checkpoint, "scr_checkpoint", now, end);
                    t.add("ckpt_bytes", sent.iter().map(|d| d.len() as u64).sum());
                }
                rank.advance(staged.full_cost);
                self.block += staged.full_cost;
                self.scr.finish_drain(staged).expect("promotion");
            } else {
                let span = rank.obs_open(obs::Category::CkptLocal, "local-stage");
                rank.advance(staged.local_cost);
                rank.obs_close(span);
                self.block += staged.local_cost;
                self.pending = Some(staged);
            }
        }
        rank.barrier(world)?;
        if self.mode != CkptMode::Sync {
            self.post_drain(rank, world, id, wire, &full)?;
        }
        if self.mode == CkptMode::AsyncDelta {
            self.base = Some((id, full));
        }
        self.taken += 1;
        Ok(())
    }

    /// Promote the staged checkpoint, if this rank holds one (rank 0,
    /// once every rank is known to have realized its share of the drain).
    fn finish_promote(&mut self) {
        if let Some(p) = self.pending.take() {
            self.scr.finish_drain(p).expect("drain promotion");
        }
    }
}

/// Outcome of a checkpointed (possibly interrupted) run.
#[derive(Debug, Clone)]
pub struct ResilientOutcome {
    /// Steps actually completed in this launch.
    pub steps_done: u32,
    /// Whether the run hit the injected failure and aborted.
    pub interrupted: bool,
    /// Final global field energy (valid when not interrupted).
    pub field_energy: f64,
    /// Final global kinetic energy.
    pub kinetic_energy: f64,
    /// Virtual makespan of the launch.
    pub makespan: SimTime,
    /// Rank 0's blocking virtual time spent checkpointing (local stages
    /// plus unhidden drain spill; the full level cost in sync mode).
    pub ckpt_block: SimTime,
    /// Checkpoints taken by this launch.
    pub ckpts_taken: u32,
}

/// Run xPic on `nodes` Cluster nodes with SCR checkpoints as `recovery`
/// describes (level, interval, mode). If `stop_after` is set, the job
/// stops right after that step completes (before its checkpoint),
/// simulating a crash; call again with `resume = true` to restart from SCR
/// and finish.
pub fn run_checkpointed(
    launcher: &Launcher,
    nodes: usize,
    config: &XpicConfig,
    scr: &ScrManager,
    recovery: &RecoveryConfig,
    stop_after: Option<u32>,
    resume: bool,
) -> ResilientOutcome {
    assert!(recovery.checkpoint_every >= 1);
    assert_eq!(scr.ranks(), nodes, "one SCR slot per rank");
    let (config_in, scr_in, recovery_in) = (config.clone(), scr.clone(), recovery.clone());
    // lock-order: 10
    let out = Arc::new(Mutex::new(None));
    let out_in = out.clone();
    let report = launcher
        .launch(
            &JobSpec::cluster_only("xpic-ckpt", nodes).boot_on(ModuleKind::Cluster),
            move |rank, _| {
                let world = rank.world();
                let restored = resume.then(|| restore(rank, &scr_in).expect("restartable state"));
                let inc = Incarnation {
                    restored: restored
                        .as_ref()
                        .map(|(step, blobs)| (*step, blobs.as_slice())),
                    fresh: true,
                    stop_after,
                };
                let status = resilient_steps(rank, &world, &config_in, &scr_in, &recovery_in, &inc)
                    .expect("no fault plan is installed");
                if let Some(status) = status {
                    *out_in.lock() = Some(status);
                }
            },
        )
        .expect("launch checkpointed run");

    let status: StatusMsg = out.lock().expect("rank 0 reports");
    ResilientOutcome {
        steps_done: status.steps_done,
        interrupted: status.steps_done < config.steps,
        field_energy: status.field_energy,
        kinetic_energy: status.kinetic_energy,
        makespan: report.makespan(),
        ckpt_block: SimTime::from_secs(status.ckpt_block_s),
        ckpts_taken: status.ckpts_taken,
    }
}

/// Restore the newest recoverable checkpoint on `rank`'s clock: the
/// restore cost is charged and shown as one `scr_restart` span. Returns
/// the step the state belongs to and every rank's blob.
fn restore(rank: &mut Rank, scr: &ScrManager) -> Result<(u32, Vec<Bytes>), ScrError> {
    let (id, _level, blobs, cost) = scr.restart()?;
    let now = rank.now();
    if let Some(track) = rank.obs() {
        track.span(obs::Category::Checkpoint, "scr_restart", now, now + cost);
    }
    rank.advance(cost);
    Ok((id as u32, blobs))
}

// ---------------------------------------------------------------------------
// Automatic recovery: supervisor + respawned solver worlds
// ---------------------------------------------------------------------------

/// Default keyframe cadence of [`CkptMode::AsyncDelta`]: every 4th
/// checkpoint is a full frame.
pub const KEYFRAME_EVERY_DEFAULT: u32 = 4;

/// Knobs of the automatic recovery loop.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// SCR storage level for the periodic checkpoints.
    pub level: CheckpointLevel,
    /// Checkpoint every this many steps (the final step never checkpoints).
    pub checkpoint_every: u32,
    /// Restart budget: exceeding it panics, as a real job would abort.
    pub max_recoveries: u32,
    /// Fixed respawn overhead charged per recovery (node replacement,
    /// process manager round-trip) on top of the SCR restore cost.
    pub recovery_latency: SimTime,
    /// How checkpoints are taken: blocking, async drain, or async drain
    /// with delta frames (see [`CkptMode`]).
    pub ckpt_mode: CkptMode,
    /// In [`CkptMode::AsyncDelta`], force a full keyframe every this many
    /// checkpoints.
    pub keyframe_every: u32,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            level: CheckpointLevel::Buddy,
            checkpoint_every: 2,
            max_recoveries: 8,
            recovery_latency: SimTime::from_millis(50.0),
            ckpt_mode: CkptMode::Sync,
            keyframe_every: KEYFRAME_EVERY_DEFAULT,
        }
    }
}

/// Outcome of a [`run_resilient`] job.
#[derive(Debug, Clone)]
pub struct ResilientReport {
    /// Final global field energy.
    pub field_energy: f64,
    /// Final global kinetic energy.
    pub kinetic_energy: f64,
    /// Steps completed (always `config.steps` on success).
    pub steps: u32,
    /// Every node death the supervisor observed, as `(node, death time)`.
    pub failures: Vec<(NodeId, SimTime)>,
    /// Restarts performed.
    pub recoveries: u32,
    /// The step each recovery resumed from (`0` = no recoverable
    /// checkpoint survived, replayed from scratch).
    pub resume_steps: Vec<u32>,
    /// Virtual makespan of the whole job, recoveries included.
    pub makespan: SimTime,
    /// Rank 0's blocking checkpoint time in the *final* (completing)
    /// incarnation: local stages plus unhidden drain spill in the async
    /// modes, the full level cost in sync mode.
    pub ckpt_block: SimTime,
    /// Checkpoints the final incarnation took.
    pub ckpts_taken: u32,
}

/// Completion report the child world's rank 0 sends to the supervisor.
#[derive(Debug, Clone, Copy, PartialEq)]
struct StatusMsg {
    steps_done: u32,
    field_energy: f64,
    kinetic_energy: f64,
    /// Rank 0's blocking checkpoint time, seconds.
    ckpt_block_s: f64,
    ckpts_taken: u32,
}

impl MpiDatatype for StatusMsg {
    const FIXED_WIDTH: Option<usize> = Some(32);

    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.steps_done);
        buf.put_f64_le(self.field_energy);
        buf.put_f64_le(self.kinetic_energy);
        buf.put_f64_le(self.ckpt_block_s);
        buf.put_u32_le(self.ckpts_taken);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        if buf.remaining() < 32 {
            return Err(CodecError("short StatusMsg".into()));
        }
        Ok(StatusMsg {
            steps_done: buf.get_u32_le(),
            field_energy: buf.get_f64_le(),
            kinetic_energy: buf.get_f64_le(),
            ckpt_block_s: buf.get_f64_le(),
            ckpts_taken: buf.get_u32_le(),
        })
    }
}

/// The node a communication error blames, with its death time. Local
/// errors (which should not occur under a node-fault plan) blame the
/// reporting rank itself.
fn failure_identity(rank: &Rank, err: &PsmpiError) -> (NodeId, SimTime) {
    match err {
        PsmpiError::NodeFailed { node, at } => (*node, *at),
        PsmpiError::LinkDown { dst, at, .. } => (*dst, *at),
        _ => (rank.node_id(), rank.now()),
    }
}

/// Run xPic under a fault schedule with automatic checkpoint-restart.
///
/// One supervisor rank boots on the Cluster and spawns the solver world
/// onto `booster_nodes` Booster nodes via `comm_spawn`. The children step
/// the PIC loop, checkpointing to `scr` every `recovery.checkpoint_every`
/// steps. When `plan` kills a node, the victim's world aborts through the
/// typed [`MpiError`](PsmpiError) surface (every survivor revokes its
/// communicators so no rank stays blocked), the supervisor restores the
/// newest SCR checkpoint, heals the fabric, and respawns a fresh child
/// world that resumes from the restored step.
///
/// Determinism: the schedule is data (virtual times in an immutable plan),
/// recovery replays from a bit-exact state snapshot, and the physics is a
/// pure function of that state — so the recovered run's final energies are
/// bit-identical to an uninterrupted run's, at any host thread count.
pub fn run_resilient(
    launcher: &Launcher,
    booster_nodes: usize,
    config: &XpicConfig,
    scr: &ScrManager,
    recovery: &RecoveryConfig,
    plan: Option<FaultPlan>,
) -> ResilientReport {
    assert!(recovery.checkpoint_every >= 1);
    assert_eq!(scr.ranks(), booster_nodes, "one SCR slot per solver rank");
    if let Some(p) = &plan {
        // The protocol replaces solver ranks; a death of the lone
        // supervisor is outside the model.
        let boosters = launcher.system().booster_nodes();
        for f in p.node_faults() {
            assert!(
                boosters.contains(&f.node),
                "fault plan may only target Booster nodes, got {:?}",
                f.node
            );
        }
        launcher.system().fabric().set_fault_plan(p.clone());
    }

    let config = Arc::new(config.clone());
    let scr_in = scr.clone();
    let recovery_in = recovery.clone();
    // lock-order: 10
    let out = Arc::new(Mutex::new(ResilientReport {
        field_energy: 0.0,
        kinetic_energy: 0.0,
        steps: 0,
        failures: Vec::new(),
        recoveries: 0,
        resume_steps: Vec::new(),
        makespan: SimTime::ZERO,
        ckpt_block: SimTime::ZERO,
        ckpts_taken: 0,
    }));

    let out_in = out.clone();
    let report = launcher
        .launch(
            &JobSpec::partitioned("xpic-resilient", 1, booster_nodes).boot_on(ModuleKind::Cluster),
            move |rank, alloc| {
                supervise(
                    rank,
                    &alloc.booster,
                    &config,
                    &scr_in,
                    &recovery_in,
                    &out_in,
                );
            },
        )
        .expect("launch resilient run");

    let mut o = out.lock().clone();
    o.makespan = report.makespan();
    o
}

/// The supervisor loop: spawn the solver world, wait for its report, and
/// on a failure restore + heal + respawn until the job completes.
fn supervise(
    rank: &mut Rank,
    booster: &[NodeId],
    config: &Arc<XpicConfig>,
    scr: &ScrManager,
    recovery: &RecoveryConfig,
    out: &Arc<Mutex<ResilientReport>>, // lock-order: 10
) {
    let world = rank.world();
    // The restored step and its blobs; `None` starts from the seed.
    let mut restored: Option<(u32, Arc<Vec<Bytes>>)> = None;
    let mut failures: Vec<(NodeId, SimTime)> = Vec::new();
    let mut recoveries = 0u32;
    let mut resume_steps: Vec<u32> = Vec::new();

    loop {
        let (cfg, scr_c, rec, restored_c) = (
            config.clone(),
            scr.clone(),
            recovery.clone(),
            restored.clone(),
        );
        let fresh = recoveries == 0;
        let entry: Arc<RankFn> = Arc::new(move |child: &mut Rank| {
            let inc = Incarnation {
                restored: restored_c
                    .as_ref()
                    .map(|(step, blobs)| (*step, blobs.as_slice())),
                fresh,
                stop_after: None,
            };
            resilient_child(child, &cfg, &scr_c, &rec, &inc);
        });
        let ic = rank
            .spawn(&world, booster, entry)
            .expect("spawn solver world");

        match rank.recv_comm::<StatusMsg>(&ic, Some(0), Some(TAG_STATUS)) {
            Ok((status, _)) => {
                let mut o = out.lock();
                o.field_energy = status.field_energy;
                o.kinetic_energy = status.kinetic_energy;
                o.steps = status.steps_done;
                o.failures = std::mem::take(&mut failures);
                o.recoveries = recoveries;
                o.resume_steps = std::mem::take(&mut resume_steps);
                o.ckpt_block = SimTime::from_secs(status.ckpt_block_s);
                o.ckpts_taken = status.ckpts_taken;
                return;
            }
            Err(PsmpiError::NodeFailed { node, at }) => {
                failures.push((node, at));
                assert!(
                    recoveries < recovery.max_recoveries,
                    "recovery budget exhausted after {recoveries} restarts"
                );
                recoveries += 1;
                let t0 = rank.now();
                scr.fail_nodes(&[node]);
                // Nothing recoverable may have survived the death (failure
                // before the first checkpoint, or the level could not
                // tolerate it): then replay from the start.
                restored = restore(rank, scr)
                    .ok()
                    .map(|(step, blobs)| (step, Arc::new(blobs)));
                resume_steps.push(restored.as_ref().map_or(0, |(step, _)| *step));
                scr.heal();
                rank.repair_node(node, rank.now().max(at));
                rank.advance(recovery.recovery_latency);
                if let Some(track) = rank.obs() {
                    track.span(obs::Category::Recovery, "restore-respawn", t0, rank.now());
                }
            }
            Err(other) => panic!("supervisor lost the solver world: {other}"),
        }
    }
}

/// Child-world entry: step the PIC loop and report to the supervisor; on
/// a communication failure, revoke both communicators so every blocked
/// peer (and the supervisor) unblocks with the victim's identity, then
/// bail out.
fn resilient_child(
    rank: &mut Rank,
    config: &XpicConfig,
    scr: &ScrManager,
    recovery: &RecoveryConfig,
    inc: &Incarnation<'_>,
) {
    let world = rank.world();
    let parent = rank.parent().expect("resilient child has a supervisor");
    let run = |rank: &mut Rank| -> Result<(), PsmpiError> {
        if let Some(status) = resilient_steps(rank, &world, config, scr, recovery, inc)? {
            rank.send_comm(&parent, 0, TAG_STATUS, &status)?;
        }
        Ok(())
    };
    if let Err(err) = run(rank) {
        let (node, at) = failure_identity(rank, &err);
        rank.revoke_comm(&world, node, at);
        rank.revoke_comm(&parent, node, at);
    }
}

/// One launch of the PIC loop: the state it starts from and where it is
/// cut short.
struct Incarnation<'a> {
    /// The restored step and every rank's blob of it; `None` seeds the
    /// initial population at step 0.
    restored: Option<(u32, &'a [Bytes])>,
    /// Whether this is the job's first world. It watches the fault plan
    /// from t = 0; a respawned world only from its own start (the
    /// supervisor's clock passed the death it just repaired, so spent
    /// faults are never re-discovered).
    fresh: bool,
    /// Stop right after this step completes, before its checkpoint.
    stop_after: Option<u32>,
}

/// The PIC stepping loop of one incarnation — the only one in this module.
/// Rank 0 returns the status to report; a rank that dies to the fault plan
/// returns nothing.
///
/// Moments are rebuilt at the *top* of every step, so the `(species,
/// fields)` pair at a step boundary fully determines the forward
/// evolution and a checkpoint taken there replays bit-identically.
fn resilient_steps(
    rank: &mut Rank,
    world: &Communicator,
    config: &XpicConfig,
    scr: &ScrManager,
    recovery: &RecoveryConfig,
    inc: &Incarnation<'_>,
) -> Result<Option<StatusMsg>, PsmpiError> {
    let me = rank.rank();
    let grid = Grid::slab(config.nx, config.ny, me, world.size());
    let solver = FieldSolver::new(grid, config);

    let (mut step, (mut species, mut fields)) = match inc.restored {
        Some((step, blobs)) => (step, unpack_state(&blobs[me], &grid)),
        None => (
            0,
            (Species::from_config(config, &grid), Fields::zeros(&grid)),
        ),
    };
    let mut win_start = if inc.fresh { SimTime::ZERO } else { rank.now() };

    let mut engine = CkptEngine::new(
        scr,
        recovery.level,
        recovery.ckpt_mode,
        recovery.keyframe_every,
    );
    let status = |engine: &CkptEngine, steps_done, energies: [f64; 2]| StatusMsg {
        steps_done,
        field_energy: energies[0],
        kinetic_energy: energies[1],
        ckpt_block_s: engine.block.as_secs(),
        ckpts_taken: engine.taken,
    };
    let mut moments = Moments::zeros(&grid);
    while step < config.steps {
        moments.clear();
        for s in &species {
            deposit_threads(&grid, s, &mut moments, config.threads);
        }
        try_halo_add_moments(rank, world, &grid, &mut moments, config)?;
        {
            let mut fc = MpiFieldComm::new(rank, world.clone(), config);
            solver.calculate_e(&mut fields, &moments, &mut fc);
            if let Some(err) = fc.take_failure() {
                return Err(err);
            }
        }
        for s in species.iter_mut() {
            boris_push_threads(&grid, &fields, s, config.dt, config.threads);
        }
        for s in species.iter_mut() {
            try_migrate_particles(rank, world, &grid, s, config)?;
        }
        {
            let mut fc = MpiFieldComm::new(rank, world.clone(), config);
            solver.calculate_b(&mut fields, &mut fc);
            if let Some(err) = fc.take_failure() {
                return Err(err);
            }
        }
        step += 1;

        // Planned death check at the step boundary, *before* the
        // checkpoint: the victim's sends for this step are already
        // deposited (survivors still match them), and the step it was
        // about to checkpoint is genuinely lost.
        let now = rank.now();
        if let Some(at) = rank.planned_fault_in(win_start, now) {
            rank.fail_here(at);
            return Ok(None);
        }
        win_start = now;
        if inc.stop_after == Some(step) {
            return Ok((me == 0).then(|| status(&engine, step, [0.0; 2])));
        }

        if step.is_multiple_of(recovery.checkpoint_every) && step < config.steps {
            engine.checkpoint_step(rank, world, step, &species, &fields)?;
        }
    }

    // Realize any outstanding drain, then reduce; the completed allreduce
    // proves every rank drained, so rank 0 may promote.
    engine.drain_wait(rank)?;
    let fe = field_energy(&grid, &fields);
    let ke: f64 = species.iter().map(kinetic_energy).sum();
    let sums = rank.allreduce(world, &[fe, ke], ReduceOp::Sum)?;
    if me != 0 {
        return Ok(None);
    }
    engine.finish_promote();
    Ok(Some(status(&engine, config.steps, [sums[0], sums[1]])))
}
