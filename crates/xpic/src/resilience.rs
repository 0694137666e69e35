//! Checkpoint/restart integration for xPic — the paper's resiliency stack
//! (§III-C/D) applied to its co-design application.
//!
//! Each rank's slab state (particles of every species + fields) serializes
//! into one blob; the SCR manager stores the blobs at the configured level
//! every `checkpoint_every` steps. A run interrupted by a (simulated) node
//! failure restarts from the newest recoverable checkpoint and must end in
//! exactly the state of an uninterrupted run — which the tests verify.
//!
//! One driver, [`run_resilient`], runs the full recovery loop. A
//! supervisor rank on the Cluster spawns the solver world onto the Booster
//! through `MPI_Comm_spawn`; the solver world steps Listing 1's loop of
//! [`crate::app`], the one `run_mode`'s Booster-only mode steps, and
//! checks the fault plan and checkpoints at each step boundary. A
//! [`FaultPlan`] kills nodes at virtual times, the typed `MpiError` surface
//! aborts the step cleanly, and the supervisor restarts the lost world
//! from the newest checkpoint. With no plan it is a plain checkpointed
//! run, which ends on `run_mode`'s bits. Because the fault schedule is
//! static and the physics is a pure function of the checkpointed state, a
//! recovered run finishes **bit-identical** to an uninterrupted one.

use crate::app::combined_loop;
use crate::config::XpicConfig;
use crate::grid::{Fields, Grid};
use crate::particles::Species;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use cluster_booster::{JobSpec, Launcher, ModuleKind};
use hwmodel::{NodeId, SimTime};
use lockrank::Mutex;
use psmpi::datatype::CodecError;
use psmpi::universe::RankFn;
use psmpi::{
    Communicator, FixedWidth, MpiDatatype, MpiRequest, PsmpiError, Rank, RecvRequest, ReduceOp,
    SendRequest, Tag,
};
pub use scr::CkptMode;
use scr::{delta, CheckpointLevel, Payload, PendingDrain, ScrError, ScrManager};
use simnet::FaultPlan;
use std::ops::ControlFlow;
use std::sync::Arc;

/// Tag of the completion report a child world sends its supervisor.
pub const TAG_STATUS: Tag = 120;

/// Tag of the buddy-copy drain transfers of asynchronous checkpoints.
pub const TAG_DRAIN: Tag = 121;

/// In [`CkptMode::AsyncDelta`], every this many checkpoints is a full
/// keyframe.
const KEYFRAME_EVERY: u32 = 4;

/// Fixed respawn overhead charged per recovery (node replacement, process
/// manager round-trip) on top of the SCR restore cost, in milliseconds.
const RECOVERY_LATENCY_MS: f64 = 50.0;

/// Why a state blob could not be decoded: it is not a blob that
/// [`pack_state`] wrote for this grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// `what` needs `need` more bytes, and only `have` are left (a
    /// truncated blob, or a count that claims more than the blob holds).
    Truncated {
        /// The item being read.
        what: &'static str,
        /// Bytes it needs.
        need: u64,
        /// Bytes left.
        have: usize,
    },
    /// A field component holds `got` values; the grid's holds `want`.
    FieldShape {
        /// Values in the blob's component.
        got: usize,
        /// Values in the grid's component.
        want: usize,
    },
    /// Bytes left over after the last field component.
    Trailing(usize),
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::Truncated { what, need, have } => {
                write!(f, "state blob: {what} needs {need} bytes, {have} left")
            }
            StateError::FieldShape { got, want } => {
                write!(
                    f,
                    "state blob: field component of {got} values, grid has {want}"
                )
            }
            StateError::Trailing(n) => write!(f, "state blob: {n} bytes after the fields"),
        }
    }
}

impl std::error::Error for StateError {}

/// Reads a state blob front to back, checking each length against the
/// bytes left before it reads or allocates anything.
struct StateReader(Bytes);

impl StateReader {
    /// Fail unless `need` bytes are left for `what`.
    fn need(&self, what: &'static str, need: u64) -> Result<(), StateError> {
        let have = self.0.remaining();
        if need > have as u64 {
            return Err(StateError::Truncated { what, need, have });
        }
        Ok(())
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, StateError> {
        self.need(what, 8)?;
        Ok(self.0.get_u64_le())
    }

    fn f64(&mut self, what: &'static str) -> Result<f64, StateError> {
        self.need(what, 8)?;
        Ok(self.0.get_f64_le())
    }

    /// A `u64` length, then that many `f64`s. The codec checks the run's
    /// length against the bytes left before it allocates.
    fn f64s(&mut self, what: &'static str) -> Result<Vec<f64>, StateError> {
        let n = self.u64(what)?;
        let have = self.0.remaining();
        f64::decode_vec(n as usize, &mut self.0).map_err(|_| StateError::Truncated {
            what,
            need: n.saturating_mul(8),
            have,
        })
    }
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

/// Writes a blob front to back over a buffer of exactly its length, each
/// byte once: nothing is zeroed ahead of the write, and every stale byte of
/// a recycled buffer is overwritten.
struct BlobWriter<'a>(&'a mut [u8]);

impl<'a> BlobWriter<'a> {
    /// The next `n` bytes of the buffer.
    fn next(&mut self, n: usize) -> &'a mut [u8] {
        let (head, tail) = std::mem::take(&mut self.0).split_at_mut(n);
        self.0 = tail;
        head
    }

    fn put(&mut self, bytes: &[u8]) {
        self.next(bytes.len()).copy_from_slice(bytes);
    }

    /// A `u64` little-endian length, then the `f64`s' wire image.
    fn put_f64s(&mut self, v: &[f64]) {
        self.put(&(v.len() as u64).to_le_bytes());
        f64::write_slice_le(v, self.next(8 * v.len()));
    }
}

fn encode_state(out: &mut BlobWriter, species: &[Species], fields: &Fields) {
    out.put(&(species.len() as u64).to_le_bytes());
    for s in species {
        out.put(&s.qom.to_le_bytes());
        out.put(&s.q_per_particle.to_le_bytes());
        for v in [&s.x, &s.y, &s.vx, &s.vy, &s.vz] {
            out.put_f64s(v);
        }
    }
    for comp in fields.components() {
        out.put_f64s(comp);
    }
}

/// One rank's state blob with [`delta::TAG_FULL`] in front, written over
/// `buf`, which must be exactly `1 + state_size` bytes: the buffer is the
/// blob's keyframe as it stands, and `slice(1..)` the blob. Gather, `scr`
/// entries, delta base and restart hold views of it, and `scr` hands it
/// back once a newer checkpoint dominates it.
fn pack_keyframe(mut buf: BytesMut, species: &[Species], fields: &Fields) -> Bytes {
    let mut out = BlobWriter(&mut buf);
    out.put(&[delta::TAG_FULL]);
    encode_state(&mut out, species, fields);
    assert!(out.0.is_empty(), "state_size is the blob's exact length");
    buf.freeze()
}

/// Serialize one rank's simulation state (all species + fields) to bytes.
pub fn pack_state(species: &[Species], fields: &Fields) -> Bytes {
    let buf = BytesMut::zeroed(1 + state_size(species, fields));
    pack_keyframe(buf, species, fields).slice(1..)
}

/// Inverse of [`pack_state`]; reads `data` in place. Panics where
/// [`try_unpack_state`] returns an error.
pub fn unpack_state(data: &Bytes, grid: &Grid) -> (Vec<Species>, Fields) {
    try_unpack_state(data, grid).expect("a state blob that pack_state wrote")
}

/// Inverse of [`pack_state`] over untrusted bytes: every count is checked
/// against the bytes left before anything is allocated for it, so no byte
/// sequence makes it panic or ask for more memory than the blob's size.
pub fn try_unpack_state(data: &Bytes, grid: &Grid) -> Result<(Vec<Species>, Fields), StateError> {
    /// The fewest bytes a species takes: its two charges and five lengths.
    const MIN_SPECIES_BYTES: u64 = 16 + 5 * 8;
    let mut buf = StateReader(data.clone());
    let nspec = buf.u64("species count")?;
    buf.need("species", nspec.saturating_mul(MIN_SPECIES_BYTES))?;
    let mut species = Vec::with_capacity(nspec as usize);
    for _ in 0..nspec {
        species.push(Species {
            qom: buf.f64("species qom")?,
            q_per_particle: buf.f64("species charge")?,
            x: buf.f64s("particle x")?,
            y: buf.f64s("particle y")?,
            vx: buf.f64s("particle vx")?,
            vy: buf.f64s("particle vy")?,
            vz: buf.f64s("particle vz")?,
        });
    }
    let mut fields = Fields::zeros(grid);
    for comp in fields.components_mut() {
        let read = buf.f64s("field component")?;
        if read.len() != comp.len() {
            return Err(StateError::FieldShape {
                got: read.len(),
                want: comp.len(),
            });
        }
        *comp = read;
    }
    match buf.0.remaining() {
        0 => Ok((species, fields)),
        n => Err(StateError::Trailing(n)),
    }
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
/// recovery falls back to the newest *promoted* checkpoint.
///
/// No xPic run takes a delta in [`CkptMode::AsyncDelta`]: every frame
/// falls back to a keyframe, because migration changes the blob's length
/// or one step rewrites every double (ROADMAP item 19). The mode tries
/// each checkpoint as a dirty-range delta against the previous
/// checkpoint's blob
/// ([`scr::delta`]), with a full keyframe every [`KEYFRAME_EVERY`]-th
/// checkpoint (and always on the first checkpoint of an incarnation, since
/// a restored world cannot trust any earlier base). A delta shrinks the
/// bytes the gather and the drain push only when the blob kept its length
/// and changed sparsely; a blob whose particles migrated changes length
/// and goes as a keyframe.
struct CkptEngine<'a> {
    scr: &'a ScrManager,
    level: CheckpointLevel,
    mode: CkptMode,
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
    fn new(scr: &'a ScrManager, level: CheckpointLevel, mode: CkptMode) -> Self {
        CkptEngine {
            scr,
            level,
            mode,
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
        let due = self.taken.is_multiple_of(KEYFRAME_EVERY);
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
                    // is the encoded frame. A take the supervisor's
                    // `fail_nodes` already aborted has no region: this
                    // world is lost, and its drain with it.
                    let len = full.len() as u64;
                    if let Ok(region) = self.scr.nam_region(id, rank.rank(), len) {
                        let sized = Some(wire.len());
                        self.send = Some(rank.inam_put_sized(nam.index, region, 0, full, sized)?);
                    }
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

        // A buffer of the blob's exact length, whose every byte the pack
        // writes: a recycled one keeps its stale bytes until overwritten.
        let len = 1 + state_size(species, fields);
        let keyframe = pack_keyframe(rank.buffer_pool().get_sized(len), species, fields);
        let full = keyframe.slice(1..);
        let id = step as u64;
        let frame = self.encode_frame(id, &keyframe);
        let wire = frame.as_ref().unwrap_or(&full);
        let gathered = rank.gather_bytes(world, 0, wire.clone())?;
        if let Some(sent) = gathered {
            // Every rank's payload arrived, so every rank finished its
            // drain_wait: promote the previous checkpoint to its full
            // level before the new one is staged.
            self.finish_promote(rank);
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
                self.promote(rank, staged);
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
    fn finish_promote(&mut self, rank: &Rank) {
        if let Some(p) = self.pending.take() {
            self.promote(rank, p);
        }
    }

    /// Promote `staged` and hand the blobs of the checkpoints it dominates
    /// to the buffer pool, which keeps those no one else still holds.
    fn promote(&self, rank: &Rank, staged: PendingDrain) {
        let pool = rank.buffer_pool();
        for blob in self.scr.finish_drain(staged).expect("drain promotion") {
            pool.recycle(blob);
        }
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

/// Knobs of the automatic recovery loop.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// SCR storage level for the periodic checkpoints.
    pub level: CheckpointLevel,
    /// Checkpoint every this many steps (the final step never checkpoints).
    pub checkpoint_every: u32,
    /// Restart budget: exceeding it panics, as a real job would abort.
    pub max_recoveries: u32,
    /// How checkpoints are taken: blocking, async drain, or async drain
    /// with delta frames (see [`CkptMode`]).
    pub ckpt_mode: CkptMode,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            level: CheckpointLevel::Buddy,
            checkpoint_every: 2,
            max_recoveries: 8,
            ckpt_mode: CkptMode::Sync,
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
    out: &Arc<Mutex<ResilientReport, 100>>,
) {
    let world = rank.world();
    // The restored step and its blobs; `None` starts from the seed.
    let mut restored: Option<(u32, Vec<Bytes>)> = None;
    let mut failures: Vec<(NodeId, SimTime)> = Vec::new();
    let mut recoveries = 0u32;
    let mut resume_steps: Vec<u32> = Vec::new();

    loop {
        // The new world owns the blobs, one take-once slot per rank: each
        // rank retires its blob once it has unpacked it.
        let restored_c = restored.take().map(|(step, blobs)| {
            (
                step,
                blobs
                    .into_iter()
                    .map(|b| Mutex::new(Some(b)))
                    .collect::<Vec<_>>(),
            )
        });
        let (cfg, scr_c, rec) = (config.clone(), scr.clone(), recovery.clone());
        let fresh = recoveries == 0;
        let entry: Arc<RankFn> = Arc::new(move |child: &mut Rank| {
            let inc = Incarnation {
                restored: restored_c
                    .as_ref()
                    .map(|(step, blobs)| (*step, blobs.as_slice())),
                fresh,
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
                let pool = rank.buffer_pool();
                // The copies the death took, and the blobs of every record
                // it left unrestorable.
                for lost in scr.fail_nodes(&[node]) {
                    pool.recycle(lost);
                }
                // Nothing recoverable may have survived the death (failure
                // before the first checkpoint, or the level could not
                // tolerate it): then replay from the start.
                restored = restore(rank, scr).ok();
                resume_steps.push(restored.as_ref().map_or(0, |(step, _)| *step));
                scr.heal();
                rank.repair_node(node, rank.now().max(at));
                rank.advance(SimTime::from_millis(RECOVERY_LATENCY_MS));
                if let Some(track) = rank.obs() {
                    track.span(obs::Category::Recovery, "restore-respawn", t0, rank.now());
                }
            }
            Err(other) => panic!("supervisor lost the solver world: {other}"),
        }
    }
}

/// Child-world entry: step Listing 1's loop ([`combined_loop`]) from the
/// incarnation's state, checking the fault plan and checkpointing at its
/// boundaries, and report to the supervisor. The last boundary realizes
/// the outstanding drain; the one final reduction, of the energies the
/// report carries, then proves every rank drained, so rank 0 may promote.
/// On a communication failure the rank revokes both communicators, so
/// every blocked peer (and the supervisor) unblocks with the victim's
/// identity, then bails out.
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
        let me = rank.rank();
        let restored = inc.restored.map(|(step, blobs)| {
            let grid = Grid::slab(config.nx, config.ny, me, world.size());
            let blob = blobs[me].lock().take().expect("a rank takes its blob once");
            let state = unpack_state(&blob, &grid);
            // Retired, not dropped: whichever of this handle and `scr`'s
            // copy goes last gives the buffer to the pool.
            rank.buffer_pool().recycle(blob);
            (step, state)
        });
        let mut win_start = if inc.fresh { SimTime::ZERO } else { rank.now() };
        let mut engine = CkptEngine::new(scr, recovery.level, recovery.ckpt_mode);
        let ran = combined_loop(rank, config, restored, |rank, step, st| {
            // Planned death check *before* the checkpoint: the victim's
            // sends of this step are already deposited (survivors still
            // match them), and the step it was about to checkpoint is
            // genuinely lost.
            let now = rank.now();
            if let Some(at) = rank.planned_fault_in(win_start, now) {
                rank.fail_here(at);
                return Ok(ControlFlow::Break(()));
            }
            win_start = now;
            if step == config.steps {
                engine.drain_wait(rank)?;
            } else if step.is_multiple_of(recovery.checkpoint_every) {
                engine.checkpoint_step(rank, &st.world, step, &st.species, &st.fields)?;
            }
            Ok(ControlFlow::Continue(()))
        })?;
        let Some((st, _)) = ran else {
            return Ok(());
        };
        let energies = [st.field_energy(), st.kinetic_energy()];
        let sums = rank.allreduce(&world, &energies, ReduceOp::Sum)?;
        if me == 0 {
            engine.finish_promote(rank);
            let status = StatusMsg {
                steps_done: config.steps,
                field_energy: sums[0],
                kinetic_energy: sums[1],
                ckpt_block_s: engine.block.as_secs(),
                ckpts_taken: engine.taken,
            };
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

/// One launch of the PIC loop: the state it starts from.
struct Incarnation<'a> {
    /// The restored step and every rank's blob of it, each taken by its
    /// rank; `None` seeds the initial population at step 0.
    restored: Option<(u32, &'a [Mutex<Option<Bytes>, 100>])>,
    /// Whether this is the job's first world. It watches the fault plan
    /// from t = 0; a respawned world only from its own start (the
    /// supervisor's clock passed the death it just repaired, so spent
    /// faults are never re-discovered).
    fresh: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The blob encoder `pack_keyframe` replaced: appends each field
    /// through `BufMut`, so every `f64` run grows (zero-fills) the buffer
    /// before it is written. The reference the offset writer must match.
    fn appended_keyframe(species: &[Species], fields: &Fields) -> Vec<u8> {
        let put_f64s = |buf: &mut BytesMut, v: &[f64]| {
            buf.put_u64_le(v.len() as u64);
            f64::encode_slice(v, buf);
        };
        let mut buf = BytesMut::new();
        buf.put_u8(delta::TAG_FULL);
        buf.put_u64_le(species.len() as u64);
        for s in species {
            buf.put_f64_le(s.qom);
            buf.put_f64_le(s.q_per_particle);
            for v in [&s.x, &s.y, &s.vx, &s.vy, &s.vz] {
                put_f64s(&mut buf, v);
            }
        }
        for comp in fields.components() {
            put_f64s(&mut buf, comp);
        }
        buf.freeze().to_vec()
    }

    #[test]
    fn the_keyframe_is_the_appending_encoders_bytes_over_a_stale_buffer() {
        let grid = Grid::slab(8, 6, 1, 2);
        let mut fields = Fields::zeros(&grid);
        for (c, comp) in fields.components_mut().into_iter().enumerate() {
            comp.iter_mut()
                .enumerate()
                .for_each(|(i, x)| *x = c as f64 - 0.25 * i as f64);
        }
        let electrons = Species::maxwellian_charged(&grid, 3, 0.1, -1.0, -1.0, 7);
        let ions = Species::maxwellian_charged(&grid, 2, 0.01, 1.0 / 64.0, -1.0, 8);
        let pool = psmpi::BufferPool::new();
        for species in [vec![], vec![electrons.clone()], vec![electrons, ions]] {
            let want = appended_keyframe(&species, &fields);
            let len = 1 + state_size(&species, &fields);
            assert_eq!(want.len(), len, "state_size is the old encoder's length");
            // A recycled buffer of this length full of stale bytes.
            let mut stale = pool.get(len);
            stale.extend_from_slice(&vec![0xa5; len]);
            pool.recycle(stale.freeze());
            let keyframe = pack_keyframe(pool.get_sized(len), &species, &fields);
            assert_eq!(&keyframe[..], &want[..], "{} species", species.len());
            assert_eq!(&pack_state(&species, &fields)[..], &want[1..]);
            pool.recycle(keyframe);
        }
    }
}
