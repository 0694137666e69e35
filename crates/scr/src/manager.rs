//! The checkpoint manager: levels, database, and the one checkpoint path.
//!
//! Every checkpoint is a *stage* followed by a *promote*. The stage
//! resolves the payloads, writes the node-local copies and the database
//! record, and prices the checkpoint; the promote writes the buddy / NAM /
//! SION copies and raises the record to its level. The blocking
//! [`ScrManager::checkpoint`] promotes on the spot and costs the full
//! level; [`ScrManager::checkpoint_async`] returns after the stage with a
//! [`PendingDrain`], and [`ScrManager::finish_drain`] promotes once the
//! caller has realized the drain — so a failure in between falls back to
//! an older, fully promoted checkpoint.
//!
//! The manager keeps only what [`ScrManager::restart`] could still choose.
//! Promoting a record to level L drops every older record that is not in
//! flight and protects no more than L (Local ≤ Buddy ≤ Global, a
//! NAM-backed Buddy ranking with Global), and hands their blobs back. That
//! is exact: [`ScrManager::fail_nodes`] takes copies by node, the same way
//! for every record, and [`ScrManager::heal`] brings none back, so a newer
//! record at the same or a higher level is recoverable whenever an older
//! one is, and `restart` scans newest first. Ids repeat when a resumed run
//! re-reaches a step; every take is a record with copies of its own, and
//! an id names its newest take.

use crate::delta::{self, DeltaError};
use bytes::Bytes;
use hwmodel::{MemoryLevel, NodeId, SimTime};
use lockrank::Mutex;
use simnet::nam::{NamDevice, NamError, NamRegion};
use simnet::LogGpModel;
use sionio::{ParallelFs, SionContainer};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Where a checkpoint lives — SCR's storage hierarchy on the prototype.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CheckpointLevel {
    /// The rank's node-local NVMe. Cheapest; lost if the node fails.
    Local,
    /// A redundant copy on a companion (buddy) node's NVMe, made through
    /// the fabric with SIONlib (§III-C). Survives any single-node failure.
    Buddy,
    /// A SION container on the global parallel file system. Survives
    /// arbitrary failures.
    Global,
}

/// How the live resilient run takes its checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CkptMode {
    /// Block for the full level cost and promote on the spot.
    #[default]
    Sync,
    /// Block for the local NVMe stage only; the buddy/global copy drains
    /// through the fabric while the next steps compute.
    Async,
    /// [`CkptMode::Async`] with dirty-range delta frames between periodic
    /// full keyframes. A delta is sent only against an equal-length base
    /// and only when smaller than the blob. xPic's blobs change length as
    /// particles migrate, or keep it and change almost every byte, so on
    /// its state this mode sends keyframes.
    AsyncDelta,
}

/// One payload per rank, in one of the two forms a checkpoint arrives in.
/// The manager keeps clones of the [`Bytes`] handles (or views into them),
/// never copies of their contents.
#[derive(Debug, Clone, Copy)]
pub enum Payload<'a> {
    /// The ranks' full state blobs.
    Blobs(&'a [Bytes]),
    /// Encoded frames (see [`crate::delta`]): full keyframes, or
    /// dirty-range deltas against a checkpoint the rank still holds
    /// locally. The manager stores the reconstructed full blobs, so a
    /// restart never decodes; the frame bytes are what the NVMe and the
    /// wire are charged for.
    Frames(&'a [Bytes]),
}

/// A staged checkpoint: its local copies are written and recorded, its
/// higher-level copies are not yet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PendingDrain {
    /// The checkpoint id.
    pub id: u64,
    /// The level it is draining towards.
    pub level: CheckpointLevel,
    /// Blocking time of the local NVMe stage.
    pub local_cost: SimTime,
    /// Time of the whole checkpoint at `level`, local stage included. A
    /// blocking caller charges this in one piece: `SimTime` is an `f64`,
    /// so `local_cost` plus the drain left need not equal it to the bit.
    pub full_cost: SimTime,
    /// Modelled bytes per rank on the NVMe and the wire (the largest
    /// encoded frame, or the largest blob).
    pub wire_bytes: u64,
}

/// Errors from checkpoint operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScrError {
    /// Rank data count didn't match the job size.
    WrongRankCount {
        /// Provided blobs.
        got: usize,
        /// Expected ranks.
        want: usize,
    },
    /// No restartable checkpoint available.
    NothingToRestart,
    /// An asynchronous drain was aborted (explicitly, or by a node death
    /// mid-drain) before it could be promoted; the checkpoint never
    /// reached its target level.
    DrainAborted {
        /// The checkpoint whose drain was lost.
        id: u64,
    },
    /// A delta frame references a base checkpoint that is no longer held
    /// locally (dropped, or lost with a node) — the sender must fall back
    /// to a full keyframe.
    DeltaBaseMissing {
        /// The missing base checkpoint id.
        base: u64,
    },
    /// A rank's frame is truncated, carries an unknown tag, or describes
    /// runs outside its blob.
    BadFrame {
        /// The rank whose frame was rejected.
        rank: usize,
    },
    /// The NAM device backing the buddy level rejected an operation.
    Nam(NamError),
}

impl std::fmt::Display for ScrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScrError::WrongRankCount { got, want } => {
                write!(
                    f,
                    "checkpoint carries {got} rank blobs, job has {want} ranks"
                )
            }
            ScrError::NothingToRestart => write!(f, "no restartable checkpoint"),
            ScrError::DrainAborted { id } => {
                write!(f, "drain of checkpoint {id} was aborted before promotion")
            }
            ScrError::DeltaBaseMissing { base } => {
                write!(f, "delta frame references missing base checkpoint {base}")
            }
            ScrError::BadFrame { rank } => write!(f, "rank {rank} sent a malformed frame"),
            ScrError::Nam(e) => write!(f, "NAM buddy store: {e}"),
        }
    }
}

impl std::error::Error for ScrError {}

impl From<NamError> for ScrError {
    fn from(e: NamError) -> Self {
        ScrError::Nam(e)
    }
}

/// NAM backing for the buddy level (paper §II-B): instead of a copy on
/// the buddy node's NVMe, the drain RDMA-puts each rank's blob into a
/// Network Attached Memory region. The device has no active remote
/// component and sits on the fabric, so its copies survive *any* set of
/// node failures — the buddy level then protects against more than
/// single-node loss, at the same drain cost shape.
#[derive(Clone)]
pub struct NamBuddy {
    /// Index of the device on the fabric (for
    /// [`simnet::Fabric::nam_rdma_time`] at the live call sites).
    pub index: usize,
    /// The device; shared handle with real backing storage.
    pub device: NamDevice,
}

/// Buddy partner: rank `i` copies to the node of rank `(i + 1) % n`.
const BUDDY_OFFSET: usize = 1;

/// Configuration of the checkpoint stack. The node-local level is the
/// prototype's NVMe ([`hwmodel::presets::nvme_p3700`]) and buddy copies
/// cross the default fabric model ([`LogGpModel::default`]).
#[derive(Clone, Default)]
pub struct ScrConfig {
    /// When set, the buddy level drains into this NAM device instead of
    /// the buddy node's NVMe.
    pub nam: Option<NamBuddy>,
}

/// One rank's copies of one checkpoint.
#[derive(Default)]
struct RankCopies {
    /// The blob on the rank's own node.
    local: Option<Bytes>,
    /// The blob on the buddy node: the same buffer as `local`, which node
    /// it is lost with is bookkeeping.
    buddy: Option<Bytes>,
    /// The NAM region, when the buddy level is NAM-backed. Allocated right
    /// after the local stage so the live drain can RDMA-put straight into
    /// it.
    nam_region: Option<NamRegion>,
    /// Whether the NAM copy is authoritative (promotion completed). Never
    /// touched by `fail_nodes` — the device survives node deaths.
    nam_done: bool,
}

/// One taken checkpoint with its copies. Ids repeat when a resumed run
/// re-reaches a step; each take is a record of its own.
struct CheckpointRecord {
    id: u64,
    /// Position among every record the manager staged: names the SION
    /// container, which must not be shared with an earlier take of `id`.
    seq: u64,
    level: CheckpointLevel,
    /// Staged, with its drain neither promoted nor aborted.
    in_flight: bool,
    bytes_per_rank: Vec<u64>,
    ranks: Vec<RankCopies>,
}

impl CheckpointRecord {
    /// The SION container of the record's global copy.
    fn sion_path(&self) -> String {
        format!("/scr/ckpt-{}.{}.sion", self.id, self.seq)
    }
}

#[derive(Default)]
struct ScrState {
    /// The checkpoints a restart could still choose, newest last.
    db: Vec<CheckpointRecord>,
    /// Records staged so far.
    staged: u64,
    /// Nodes currently failed (ordered: `clippy.toml` bans the hash
    /// containers).
    dead: BTreeSet<NodeId>,
}

impl ScrState {
    /// The newest record of `id`: the one its [`PendingDrain`] names.
    fn newest(&mut self, id: u64) -> Option<&mut CheckpointRecord> {
        self.db.iter_mut().rev().find(|r| r.id == id)
    }
}

/// The checkpoint manager for one job.
#[derive(Clone)]
pub struct ScrManager {
    config: ScrConfig,
    /// NVMe device model of the compute nodes.
    nvme: MemoryLevel,
    /// Fabric model for buddy transfers.
    link: LogGpModel,
    /// Node of each rank.
    nodes: Vec<NodeId>,
    /// Node specs of each rank (for buddy-transfer cost).
    specs: Vec<Arc<hwmodel::NodeSpec>>,
    pfs: ParallelFs,
    state: Arc<Mutex<ScrState, 300>>,
}

/// The region `held`, allocated on first use and re-allocated when the
/// blob length changed.
fn nam_region_for(
    nam: &NamBuddy,
    held: &mut Option<NamRegion>,
    len: u64,
) -> Result<NamRegion, ScrError> {
    if let Some(region) = *held {
        if region.len == len {
            return Ok(region);
        }
        let _ = nam.device.dealloc(region);
        *held = None;
    }
    Ok(*held.insert(nam.device.alloc(len)?))
}

impl ScrManager {
    /// Manager for a job whose rank `i` runs on `nodes[i]` (spec
    /// `specs[i]`), writing global checkpoints to `pfs`.
    pub fn new(
        config: ScrConfig,
        nodes: Vec<NodeId>,
        specs: Vec<Arc<hwmodel::NodeSpec>>,
        pfs: ParallelFs,
    ) -> Self {
        assert_eq!(nodes.len(), specs.len());
        assert!(!nodes.is_empty());
        ScrManager {
            config,
            nvme: hwmodel::presets::nvme_p3700(),
            link: LogGpModel::default(),
            nodes,
            specs,
            pfs,
            state: Arc::new(Mutex::new(ScrState::default())),
        }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.nodes.len()
    }

    /// Buddy rank of `rank`.
    pub fn buddy_of(&self, rank: usize) -> usize {
        (rank + BUDDY_OFFSET) % self.ranks()
    }

    /// The NAM backing of the buddy level, if configured.
    pub fn nam(&self) -> Option<&NamBuddy> {
        self.config.nam.as_ref()
    }

    /// Time for one buddy-level copy of `bytes` per rank, bounded by the
    /// slowest path. Heterogeneous jobs (Cluster + Booster ranks in one
    /// world) have genuinely different per-pair costs, so every
    /// `(rank, buddy_of(rank))` pair is priced; with a NAM backing the
    /// copy is instead an RDMA-put whose wire and device streams overlap
    /// (same shape as [`simnet::Fabric::nam_rdma_time`]).
    pub fn buddy_copy_time(&self, bytes: u64) -> SimTime {
        match &self.config.nam {
            Some(nam) => {
                let stream = SimTime::from_secs(bytes as f64 / self.link.payload_bw)
                    .max(SimTime::from_secs(bytes as f64 / nam.device.bandwidth()));
                (0..self.ranks())
                    .map(|r| {
                        self.specs[r].nic_send_overhead
                            + self.link.wire_latency
                            + stream
                            + nam.device.access_latency()
                    })
                    .max()
                    .unwrap_or(SimTime::ZERO)
            }
            None => (0..self.ranks())
                .map(|r| {
                    self.link.transfer_time(
                        &self.specs[r],
                        &self.specs[self.buddy_of(r)],
                        bytes as usize,
                        1,
                    )
                })
                .max()
                .unwrap_or(SimTime::ZERO),
        }
    }

    /// Virtual-time cost of one checkpoint of `bytes` per rank at `level`
    /// (ranks write in parallel; the slowest path bounds).
    pub fn checkpoint_cost(&self, level: CheckpointLevel, bytes_per_rank: u64) -> SimTime {
        match level {
            CheckpointLevel::Local => self.nvme.write_time(bytes_per_rank),
            CheckpointLevel::Buddy => {
                // Local write, then read-back + copy to the buddy store,
                // bounded by the slowest (rank, buddy) pair. A NAM target
                // needs no far-side NVMe write — the HMC stream is already
                // inside the copy term.
                let local = self.nvme.write_time(bytes_per_rank);
                let copy = self.buddy_copy_time(bytes_per_rank);
                let far_write = if self.config.nam.is_some() {
                    SimTime::ZERO
                } else {
                    self.nvme.write_time(bytes_per_rank)
                };
                local + self.nvme.read_time(bytes_per_rank).max(copy) + far_write
            }
            CheckpointLevel::Global => {
                // All ranks' chunks funnel into the striped PFS; staging
                // from NVMe overlaps the slower disk path.
                let total = bytes_per_rank * self.ranks() as u64;
                self.nvme
                    .read_time(bytes_per_rank)
                    .max(self.pfs.transfer_time(total))
            }
        }
    }

    /// Take checkpoint `id` at `level` with one blob per rank (`Vec<u8>`s,
    /// copied once, or [`Bytes`], shared), blocking until it holds at that
    /// level. Returns the virtual cost; the blobs of the checkpoints it
    /// dominates are dropped.
    pub fn checkpoint<B: Clone + Into<Bytes>>(
        &self,
        id: u64,
        level: CheckpointLevel,
        rank_data: &[B],
    ) -> Result<SimTime, ScrError> {
        let blobs: Vec<Bytes> = rank_data.iter().map(|b| b.clone().into()).collect();
        let staged = self.checkpoint_async(id, level, Payload::Blobs(&blobs))?;
        self.promote(id, level)?;
        Ok(staged.full_cost)
    }

    /// Promote a staged checkpoint to its level, once its drain time has
    /// been realized (by waiting on the transfers, or by charging
    /// `full_cost - local_cost`), and return one handle per rank blob of
    /// the older checkpoints it dominates, which the manager no longer
    /// holds (see the module docs). Promoting twice is a no-op while the
    /// checkpoint is held. A drain that was aborted — by
    /// [`ScrManager::fail_nodes`] losing one of the job's nodes while it
    /// was in flight — is refused with [`ScrError::DrainAborted`] and the
    /// checkpoint stays at `Local` level, so a restart falls back to the
    /// newest *promoted* checkpoint.
    pub fn finish_drain(&self, pending: PendingDrain) -> Result<Vec<Bytes>, ScrError> {
        let in_flight = self
            .state
            .lock()
            .newest(pending.id)
            .is_some_and(|r| r.in_flight);
        if in_flight {
            self.promote(pending.id, pending.level)
        } else if self.level_of(pending.id) == Some(pending.level) {
            Ok(Vec::new())
        } else {
            Err(ScrError::DrainAborted { id: pending.id })
        }
    }

    /// Take checkpoint `id` asynchronously — the *stage* every checkpoint
    /// starts with: validate, resolve the payloads to full blobs, write
    /// them as the `Local` copies with their database record, and price
    /// the checkpoint from the bytes that hit the NVMe and the wire. The
    /// caller blocks for `local_cost`; the data holds at `Local` level and
    /// reaches `level` once the caller has realized the drain and calls
    /// [`ScrManager::finish_drain`].
    pub fn checkpoint_async(
        &self,
        id: u64,
        level: CheckpointLevel,
        payload: Payload<'_>,
    ) -> Result<PendingDrain, ScrError> {
        let (Payload::Blobs(sent) | Payload::Frames(sent)) = payload;
        if sent.len() != self.ranks() {
            return Err(ScrError::WrongRankCount {
                got: sent.len(),
                want: self.ranks(),
            });
        }
        let blobs = match payload {
            Payload::Blobs(blobs) => blobs.to_vec(),
            Payload::Frames(frames) => frames
                .iter()
                .enumerate()
                .map(|(rank, frame)| self.decode_frame(rank, frame))
                .collect::<Result<_, _>>()?,
        };
        let wire_bytes = sent.iter().map(|d| d.len() as u64).max().unwrap_or(0);
        let mut st = self.state.lock();
        // A re-taken id's handle names the new record from here on, so an
        // earlier take of it can no longer finish its drain.
        if let Some(earlier) = st.newest(id) {
            earlier.in_flight = false;
        }
        let seq = st.staged;
        st.staged += 1;
        st.db.push(CheckpointRecord {
            id,
            seq,
            level: CheckpointLevel::Local,
            in_flight: true,
            bytes_per_rank: blobs.iter().map(|d| d.len() as u64).collect(),
            ranks: blobs
                .into_iter()
                .map(|blob| RankCopies {
                    local: Some(blob),
                    ..RankCopies::default()
                })
                .collect(),
        });
        Ok(PendingDrain {
            id,
            level,
            local_cost: self.checkpoint_cost(CheckpointLevel::Local, wire_bytes),
            full_cost: self.checkpoint_cost(level, wire_bytes),
            wire_bytes,
        })
    }

    /// The full blob `rank`'s frame encodes, patched onto the base
    /// checkpoint's local copy when the frame is a delta.
    fn decode_frame(&self, rank: usize, frame: &Bytes) -> Result<Bytes, ScrError> {
        let mut st = self.state.lock();
        let base = match delta::frame_base(frame).map_err(|_| ScrError::BadFrame { rank })? {
            Some(base) => {
                let held = st.newest(base).and_then(|r| r.ranks[rank].local.as_ref());
                Some(&held.ok_or(ScrError::DeltaBaseMissing { base })?[..])
            }
            None => None,
        };
        delta::decode_bytes(frame, base).map_err(|e| match e {
            DeltaError::BadBase { base } => ScrError::DeltaBaseMissing { base },
            DeltaError::Malformed => ScrError::BadFrame { rank },
        })
    }

    /// Raise staged checkpoint `id` to `level`: copy each rank's local
    /// blob to the buddy node's NVMe, the NAM device or a SION container,
    /// and update the database record in place — the local copies are not
    /// rewritten and the checkpoint appears once in the database. Then drop
    /// the older records it dominates and return their blobs.
    fn promote(&self, id: u64, level: CheckpointLevel) -> Result<Vec<Bytes>, ScrError> {
        let mut st = self.state.lock();
        let lost = || ScrError::DrainAborted { id };
        let at = st.db.iter().rposition(|r| r.id == id).ok_or_else(lost)?;
        let record = &mut st.db[at];
        record.in_flight = false;
        match level {
            CheckpointLevel::Local => {}
            CheckpointLevel::Buddy => {
                for copies in &mut record.ranks {
                    let data = copies.local.as_ref().ok_or_else(lost)?;
                    match &self.config.nam {
                        // The device lock nests inside the state lock (300 → 540).
                        Some(nam) => {
                            let len = data.len() as u64;
                            let region = nam_region_for(nam, &mut copies.nam_region, len)?;
                            nam.device.put(region, 0, data)?;
                            copies.nam_done = true;
                        }
                        None => copies.buddy = Some(data.clone()),
                    }
                }
            }
            CheckpointLevel::Global => {
                let chunk = record.bytes_per_rank.iter().copied().max().unwrap_or(1);
                let (container, _) = SionContainer::create(
                    &self.pfs,
                    record.sion_path(),
                    self.ranks(),
                    chunk.max(1),
                )
                .expect("fresh container path");
                for (r, copies) in record.ranks.iter().enumerate() {
                    container
                        .write_task(r, copies.local.as_ref().ok_or_else(lost)?)
                        .expect("chunk sized for the largest blob");
                }
            }
        }
        record.level = level;
        // Older records at most this well protected can never be chosen
        // again; one still in flight could yet rise above it.
        let shield = self.shield(level);
        let dominated = |r: &mut CheckpointRecord| !r.in_flight && self.shield(r.level) <= shield;
        let dropped: Vec<_> = st.db.extract_if(..at, dominated).collect();
        Ok(dropped.into_iter().flat_map(|r| self.forget(r)).collect())
    }

    /// What a record at `level` survives, as a level: a NAM-backed buddy
    /// copy outlives any node loss, as a global one does.
    fn shield(&self, level: CheckpointLevel) -> CheckpointLevel {
        match level {
            CheckpointLevel::Buddy if self.config.nam.is_some() => CheckpointLevel::Global,
            level => level,
        }
    }

    /// Delete a dropped record's copies on every level, returning one
    /// handle per rank blob that was still held (the local and buddy
    /// copies share one buffer).
    fn forget(&self, record: CheckpointRecord) -> impl Iterator<Item = Bytes> + '_ {
        // A global promotion cut short by a lost copy leaves a container
        // too, under a record still at a lower level.
        let _ = self.pfs.delete(&record.sion_path());
        record.ranks.into_iter().filter_map(|copies| {
            if let (Some(region), Some(nam)) = (copies.nam_region, self.nam()) {
                let _ = nam.device.dealloc(region);
            }
            copies.local.or(copies.buddy)
        })
    }

    /// A rank's blob from the first of its copies still held: the local
    /// one, the buddy one, the authoritative NAM one.
    fn fetch(&self, copies: &RankCopies) -> Option<Bytes> {
        if let Some(blob) = copies.local.as_ref().or(copies.buddy.as_ref()) {
            return Some(blob.clone());
        }
        if !copies.nam_done {
            return None;
        }
        let (nam, region) = (self.nam()?, copies.nam_region?);
        nam.device.get(region, 0, region.len).ok().map(Bytes::from)
    }

    /// The NAM region rank `rank` should RDMA-put checkpoint `id` into
    /// (allocating it on first use). Live drains call this right after the
    /// local stage so the put lands in the region the restart will read;
    /// a checkpoint the manager no longer holds is
    /// [`ScrError::DrainAborted`].
    pub fn nam_region(&self, id: u64, rank: usize, len: u64) -> Result<NamRegion, ScrError> {
        let nam = self
            .config
            .nam
            .as_ref()
            .expect("nam_region requires a NAM-backed buddy level");
        let mut st = self.state.lock();
        let record = st.newest(id).ok_or(ScrError::DrainAborted { id })?;
        nam_region_for(nam, &mut record.ranks[rank].nam_region, len)
    }

    /// Mark nodes as failed: their local checkpoint copies (and the buddy
    /// copies *stored on* them) become unavailable, and every in-flight
    /// asynchronous drain of this job is aborted — each rank participates
    /// in each drain, so a lost node means the checkpoint can no longer
    /// reach its full level ([`ScrError::DrainAborted`] from
    /// `finish_drain`; restart falls back to the newest promoted
    /// checkpoint). NAM copies survive: the device has no host node.
    /// Returns the handles of the copies lost, which the manager no longer
    /// holds, so the caller can retire them (a blob whose other copy
    /// survives is still held by it).
    pub fn fail_nodes(&self, nodes: &[NodeId]) -> Vec<Bytes> {
        let mut st = self.state.lock();
        let st = &mut *st;
        st.dead.extend(nodes.iter().copied());
        let ours = nodes.iter().any(|n| self.nodes.contains(n));
        // Local copies live on the rank's node; buddy copies on the buddy's.
        let gone = |r: usize| st.dead.contains(&self.nodes[r]);
        let mut lost = Vec::new();
        for record in &mut st.db {
            record.in_flight &= !ours;
            for (r, copies) in record.ranks.iter_mut().enumerate() {
                if gone(r) {
                    lost.extend(copies.local.take());
                }
                if gone(self.buddy_of(r)) {
                    lost.extend(copies.buddy.take());
                }
            }
        }
        lost
    }

    /// Repair failed nodes (replacement hardware / reboot).
    pub fn heal(&self) {
        self.state.lock().dead.clear();
    }

    /// Whether checkpoint `id` is fully recoverable right now.
    pub fn recoverable(&self, id: u64) -> bool {
        let mut st = self.state.lock();
        let Some(rec) = st.newest(id) else {
            return false;
        };
        match rec.level {
            CheckpointLevel::Global => true,
            CheckpointLevel::Local => rec.ranks.iter().all(|c| c.local.is_some()),
            CheckpointLevel::Buddy => rec
                .ranks
                .iter()
                .all(|c| c.local.is_some() || c.buddy.is_some() || c.nam_done),
        }
    }

    /// Number of records in the checkpoint database (a held checkpoint
    /// appears exactly once; promotion updates the record's level in place
    /// rather than appending).
    pub fn record_count(&self) -> usize {
        self.state.lock().db.len()
    }

    /// Number of staged checkpoints whose drain is still in flight.
    pub fn drains_in_flight(&self) -> usize {
        self.state.lock().db.iter().filter(|r| r.in_flight).count()
    }

    /// The level checkpoint `id` currently holds at, per the database.
    pub fn level_of(&self, id: u64) -> Option<CheckpointLevel> {
        self.state.lock().newest(id).map(|r| r.level)
    }

    /// Restart from the newest recoverable checkpoint: returns
    /// `(id, level, per-rank blobs, virtual cost)`.
    pub fn restart(&self) -> Result<(u64, CheckpointLevel, Vec<Bytes>, SimTime), ScrError> {
        let st = self.state.lock();
        for rec in st.db.iter().rev() {
            let id = rec.id;
            let max_bytes = rec.bytes_per_rank.iter().copied().max().unwrap_or(0);
            let read = self.nvme.read_time(max_bytes);
            let (blobs, cost) = match rec.level {
                CheckpointLevel::Global => {
                    let (c, _) = SionContainer::open(&self.pfs, &rec.sion_path())
                        .expect("global checkpoint container");
                    let blobs = (0..self.ranks())
                        .map(|r| Bytes::from(c.read_task(r).expect("task chunk").0))
                        .collect();
                    let total = rec.bytes_per_rank.iter().sum::<u64>();
                    let stage = self.nvme.write_time(max_bytes);
                    (blobs, self.pfs.transfer_time(total).max(stage))
                }
                level => {
                    let found: Option<Vec<Bytes>> =
                        rec.ranks.iter().map(|c| self.fetch(c)).collect();
                    let Some(blobs) = found else { continue };
                    match level {
                        // Fetch back over the same slowest-pair path the
                        // copy went out on.
                        CheckpointLevel::Buddy => (blobs, read + self.buddy_copy_time(max_bytes)),
                        _ => (blobs, read),
                    }
                }
            };
            return Ok((id, rec.level, blobs, cost));
        }
        Err(ScrError::NothingToRestart)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwmodel::presets::deep_er_booster_node;

    fn manager(ranks: usize) -> ScrManager {
        let spec = Arc::new(deep_er_booster_node());
        ScrManager::new(
            ScrConfig::default(),
            (0..ranks as u32).map(NodeId).collect(),
            vec![spec; ranks],
            ParallelFs::deep_er(),
        )
    }

    fn blobs(ranks: usize, tag: u8) -> Vec<Bytes> {
        (0..ranks)
            .map(|r| Bytes::from(vec![tag + r as u8; 1024]))
            .collect()
    }

    #[test]
    fn local_checkpoint_roundtrip() {
        let m = manager(4);
        let t = m
            .checkpoint(1, CheckpointLevel::Local, &blobs(4, 10))
            .unwrap();
        assert!(t > SimTime::ZERO);
        let (id, level, data, cost) = m.restart().unwrap();
        assert_eq!(id, 1);
        assert_eq!(level, CheckpointLevel::Local);
        assert_eq!(data, blobs(4, 10));
        assert!(cost > SimTime::ZERO);
    }

    #[test]
    fn level_costs_are_ordered() {
        let m = manager(8);
        let s = 64 << 20; // 64 MiB per rank
        let local = m.checkpoint_cost(CheckpointLevel::Local, s);
        let buddy = m.checkpoint_cost(CheckpointLevel::Buddy, s);
        let global = m.checkpoint_cost(CheckpointLevel::Global, s);
        assert!(local < buddy, "local {local} < buddy {buddy}");
        assert!(buddy < global, "buddy {buddy} < global {global}");
    }

    #[test]
    fn node_failure_kills_local_but_not_buddy() {
        let m = manager(4);
        m.checkpoint(1, CheckpointLevel::Local, &blobs(4, 0))
            .unwrap();
        m.checkpoint(2, CheckpointLevel::Buddy, &blobs(4, 50))
            .unwrap();
        // Rank 1's buddy copy lived on node 2, and rank 2's local one: both
        // come back to the caller.
        assert_eq!(m.fail_nodes(&[NodeId(2)])[..], blobs(4, 50)[1..3]);
        assert!(!m.recoverable(1), "local copy of rank 2 died with its node");
        assert!(m.recoverable(2), "buddy copy survives one node");
        let (id, level, data, _) = m.restart().unwrap();
        assert_eq!((id, level), (2, CheckpointLevel::Buddy));
        assert_eq!(data, blobs(4, 50));
    }

    #[test]
    fn adjacent_double_failure_defeats_buddy() {
        // Buddy offset 1: ranks 1 and 2 are each other's neighbours; killing
        // nodes 1 and 2 destroys rank 1's local AND its buddy copy (on 2).
        let m = manager(4);
        m.checkpoint(1, CheckpointLevel::Buddy, &blobs(4, 0))
            .unwrap();
        m.fail_nodes(&[NodeId(1), NodeId(2)]);
        assert!(!m.recoverable(1));
        assert!(matches!(m.restart(), Err(ScrError::NothingToRestart)));
    }

    #[test]
    fn global_survives_everything() {
        let m = manager(4);
        m.checkpoint(1, CheckpointLevel::Global, &blobs(4, 0))
            .unwrap();
        m.fail_nodes(&[NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        assert!(m.recoverable(1));
        let (id, level, data, _) = m.restart().unwrap();
        assert_eq!((id, level), (1, CheckpointLevel::Global));
        assert_eq!(data, blobs(4, 0));
    }

    #[test]
    fn restart_falls_back_through_levels() {
        let m = manager(4);
        m.checkpoint(1, CheckpointLevel::Global, &blobs(4, 1))
            .unwrap();
        m.checkpoint(2, CheckpointLevel::Buddy, &blobs(4, 2))
            .unwrap();
        m.checkpoint(3, CheckpointLevel::Local, &blobs(4, 3))
            .unwrap();
        // Newest first.
        assert_eq!(m.restart().unwrap().0, 3);
        // Node failure invalidates 3 (local) and leaves 2 (buddy).
        m.fail_nodes(&[NodeId(0)]);
        assert_eq!(m.restart().unwrap().0, 2);
        // Two adjacent failures leave only the global.
        m.fail_nodes(&[NodeId(1)]);
        assert_eq!(m.restart().unwrap().0, 1);
    }

    #[test]
    fn wrong_rank_count_rejected() {
        let m = manager(4);
        assert!(matches!(
            m.checkpoint(1, CheckpointLevel::Local, &blobs(3, 0)),
            Err(ScrError::WrongRankCount { got: 3, want: 4 })
        ));
    }

    #[test]
    fn heal_restores_access() {
        let m = manager(2);
        m.checkpoint(1, CheckpointLevel::Buddy, &blobs(2, 0))
            .unwrap();
        m.fail_nodes(&[NodeId(0), NodeId(1)]);
        assert!(matches!(m.restart(), Err(ScrError::NothingToRestart)));
        m.heal();
        // Copies were erased by the failure; healing alone doesn't resurrect
        // them (the data is gone) — only future checkpoints work again.
        assert!(matches!(m.restart(), Err(ScrError::NothingToRestart)));
        m.checkpoint(2, CheckpointLevel::Local, &blobs(2, 9))
            .unwrap();
        assert_eq!(m.restart().unwrap().0, 2);
    }

    #[test]
    fn promotion_drops_and_returns_what_it_dominates() {
        let m = manager(2);
        m.checkpoint(1, CheckpointLevel::Global, &blobs(2, 1))
            .unwrap();
        m.checkpoint(2, CheckpointLevel::Buddy, &blobs(2, 2))
            .unwrap();
        m.checkpoint(3, CheckpointLevel::Local, &blobs(2, 3))
            .unwrap();
        assert_eq!(
            m.record_count(),
            3,
            "each is better protected than the next"
        );
        // A drain still in flight could rise above the promotion: kept.
        let global = m
            .checkpoint_async(4, CheckpointLevel::Global, Payload::Blobs(&blobs(2, 4)))
            .unwrap();
        let buddy = m
            .checkpoint_async(5, CheckpointLevel::Buddy, Payload::Blobs(&blobs(2, 5)))
            .unwrap();
        // 2 and 3 go, one handle per rank blob each; 1 protects more.
        let dropped = m.finish_drain(buddy).unwrap();
        assert_eq!(dropped, [blobs(2, 2), blobs(2, 3)].concat());
        assert_eq!((m.level_of(2), m.level_of(3)), (None, None));
        assert_eq!(m.record_count(), 3);
        assert_eq!(m.drains_in_flight(), 1);
        // 4 reaches Global: 1 goes, and so does its container.
        assert_eq!(m.finish_drain(global).unwrap(), blobs(2, 1));
        assert_eq!(m.record_count(), 2);
        assert_eq!(m.drains_in_flight(), 0);
        assert_eq!(m.pfs.list().len(), 1, "4's container is the one left");
        assert_eq!(m.restart().unwrap().0, 5);
        m.fail_nodes(&[NodeId(0), NodeId(1)]);
        assert_eq!(m.restart().unwrap().0, 4);
    }

    /// Regression: a rolling window that deleted the `(id, rank)` copies
    /// of every record it evicted took a re-taken id's *newer* blobs with
    /// the old record, and the restart found nothing.
    #[test]
    fn a_retaken_id_keeps_its_blobs_until_a_newer_checkpoint_dominates_it() {
        let m = manager(2);
        m.checkpoint(6, CheckpointLevel::Buddy, &blobs(2, 6))
            .unwrap();
        let _lost = m
            .checkpoint_async(7, CheckpointLevel::Buddy, Payload::Blobs(&blobs(2, 7)))
            .unwrap();
        m.fail_nodes(&[NodeId(0)]);
        assert_eq!(m.restart().unwrap().0, 6);
        m.heal();
        // The resumed run re-takes 7 and promotes it, dropping 6 and the
        // lost take of 7 (its rank-1 blob was still held).
        let p7 = m
            .checkpoint_async(7, CheckpointLevel::Buddy, Payload::Blobs(&blobs(2, 70)))
            .unwrap();
        let dropped = m.finish_drain(p7).unwrap();
        assert_eq!(dropped, [&blobs(2, 6)[..], &blobs(2, 7)[1..]].concat());
        // 8's drain dies with node 1: the new 7 restores, its rank-1 blob
        // from the buddy copy.
        let _aborted = m
            .checkpoint_async(8, CheckpointLevel::Buddy, Payload::Blobs(&blobs(2, 8)))
            .unwrap();
        m.fail_nodes(&[NodeId(1)]);
        let (id, level, data, _) = m.restart().unwrap();
        assert_eq!((id, level, data), (7, CheckpointLevel::Buddy, blobs(2, 70)));
        m.heal();
        // Until a promoted 8 dominates it.
        let p8 = m
            .checkpoint_async(8, CheckpointLevel::Buddy, Payload::Blobs(&blobs(2, 80)))
            .unwrap();
        assert!(m.recoverable(7));
        let dropped = m.finish_drain(p8).unwrap();
        assert_eq!(dropped, [&blobs(2, 70)[..], &blobs(2, 8)[..1]].concat());
        assert_eq!(m.record_count(), 1);
        assert_eq!(m.restart().unwrap().2, blobs(2, 80));
    }

    #[test]
    fn buddy_of_wraps() {
        let m = manager(4);
        assert_eq!(m.buddy_of(3), 0);
        assert_eq!(m.buddy_of(0), 1);
        assert_eq!(m.ranks(), 4);
    }

    /// Regression (PR 10): the buddy cost used to price every transfer
    /// with the rank-0 pair (`specs[0]` → `specs[buddy_of(0)]`). With
    /// mixed Cluster/Booster specs the bound must come from the *slowest*
    /// `(rank, buddy_of(rank))` pair, not whichever pair rank 0 happens
    /// to form.
    #[test]
    fn buddy_cost_bounded_by_slowest_pair_with_mixed_specs() {
        use hwmodel::presets::{deep_er_booster_node, deep_er_cluster_node};
        let cn = Arc::new(deep_er_cluster_node());
        let bn = Arc::new(deep_er_booster_node());
        // Rank 0 is a Cluster node, ranks 1-3 are Boosters: the rank-0
        // pair (CN→BN) differs from e.g. (BN→BN) and (BN→CN).
        let specs = vec![cn.clone(), bn.clone(), bn.clone(), bn.clone()];
        let (link, nvme) = (LogGpModel::default(), hwmodel::presets::nvme_p3700());
        let m = ScrManager::new(
            ScrConfig::default(),
            (0..4u32).map(NodeId).collect(),
            specs.clone(),
            ParallelFs::deep_er(),
        );
        let bytes = 8u64 << 20;
        let slowest = (0..4)
            .map(|r| link.transfer_time(&specs[r], &specs[(r + 1) % 4], bytes as usize, 1))
            .max()
            .unwrap();
        assert_eq!(m.buddy_copy_time(bytes), slowest);
        let rank0_pair = link.transfer_time(&specs[0], &specs[1], bytes as usize, 1);
        assert!(
            slowest > rank0_pair,
            "the old specs[0] formula must actually differ: {slowest} vs {rank0_pair}"
        );
        // The full buddy cost embeds the slowest-pair copy.
        let expect =
            nvme.write_time(bytes) + nvme.read_time(bytes).max(slowest) + nvme.write_time(bytes);
        assert_eq!(m.checkpoint_cost(CheckpointLevel::Buddy, bytes), expect);
        // And the restart path prices the same slowest pair.
        m.checkpoint(1, CheckpointLevel::Buddy, &blobs(4, 3))
            .unwrap();
        let (_, _, _, cost) = m.restart().unwrap();
        assert_eq!(cost, nvme.read_time(1024) + m.buddy_copy_time(1024));
    }

    fn nam_manager(ranks: usize) -> (ScrManager, simnet::nam::NamDevice) {
        let device = simnet::nam::NamDevice::deep_er();
        let cfg = ScrConfig {
            nam: Some(NamBuddy {
                index: 0,
                device: device.clone(),
            }),
        };
        let spec = Arc::new(deep_er_booster_node());
        (
            ScrManager::new(
                cfg,
                (0..ranks as u32).map(NodeId).collect(),
                vec![spec; ranks],
                ParallelFs::deep_er(),
            ),
            device,
        )
    }

    #[test]
    fn nam_buddy_survives_arbitrary_node_loss() {
        let (m, device) = nam_manager(4);
        m.checkpoint(1, CheckpointLevel::Buddy, &blobs(4, 20))
            .unwrap();
        assert!(device.used() > 0, "blobs live in the device");
        // Every job node dies: NVMe copies are all gone, but the NAM has
        // no host node — the buddy level still restores.
        m.fail_nodes(&(0..4).map(NodeId).collect::<Vec<_>>());
        assert!(m.recoverable(1));
        let (id, level, data, _) = m.restart().unwrap();
        assert_eq!((id, level), (1, CheckpointLevel::Buddy));
        assert_eq!(data, blobs(4, 20));
    }

    /// Regression: regions were freed only by an explicit prune, so a run
    /// of 2 ranks × 2 MiB filled the 2 GiB device at about checkpoint 512.
    #[test]
    fn nam_regions_released_on_eviction() {
        let (m, device) = nam_manager(2);
        let len = 2 << 20;
        let data: Vec<Bytes> = (0..2).map(|r| Bytes::from(vec![r; len])).collect();
        for id in 1..=1000 {
            let staged = m
                .checkpoint_async(id, CheckpointLevel::Buddy, Payload::Blobs(&data))
                .unwrap();
            // As the live drain does: RDMA-put into the region it promotes.
            for r in 0..2 {
                m.nam_region(id, r, len as u64).unwrap();
            }
            assert!(device.used() <= 2 * 2 * len as u64, "checkpoint {id}");
            m.finish_drain(staged).unwrap();
        }
        assert_eq!(device.used(), 2 * len as u64);
        assert_eq!(m.restart().unwrap().0, 1000);
    }

    #[test]
    fn nam_buddy_cost_has_no_far_side_nvme_write() {
        let (m, _) = nam_manager(4);
        let plain = manager(4);
        let bytes = 64u64 << 20;
        // Same local stage; the NAM path replaces fabric-copy + far NVMe
        // write with the overlapped RDMA stream.
        let nam_cost = m.checkpoint_cost(CheckpointLevel::Buddy, bytes);
        let expect = m.checkpoint_cost(CheckpointLevel::Local, bytes)
            + hwmodel::presets::nvme_p3700()
                .read_time(bytes)
                .max(m.buddy_copy_time(bytes));
        assert_eq!(nam_cost, expect);
        assert!(nam_cost < plain.checkpoint_cost(CheckpointLevel::Buddy, bytes));
    }

    #[test]
    fn async_blocks_only_for_local_stage() {
        let m = manager(4);
        let pending = m
            .checkpoint_async(1, CheckpointLevel::Global, Payload::Blobs(&blobs(4, 1)))
            .unwrap();
        // The stage prices both ways of paying: what the blocking call
        // charges in one piece, and the local part an async caller blocks
        // for before the rest drains.
        assert_eq!(
            pending.full_cost,
            m.checkpoint_cost(CheckpointLevel::Global, 1024)
        );
        assert_eq!(
            pending.local_cost,
            m.checkpoint_cost(CheckpointLevel::Local, 1024)
        );
        assert!(pending.local_cost < pending.full_cost);
        m.finish_drain(pending).unwrap();
        // The checkpoint now restores at its full level.
        m.fail_nodes(&(0..4).map(NodeId).collect::<Vec<_>>());
        let (id, level, data, _) = m.restart().unwrap();
        assert_eq!((id, level), (1, CheckpointLevel::Global));
        assert_eq!(data, blobs(4, 1));
    }

    #[test]
    fn blocking_checkpoint_is_a_stage_promoted_on_the_spot() {
        let (sync, asn) = (manager(2), manager(2));
        let cost = sync
            .checkpoint(7, CheckpointLevel::Buddy, &blobs(2, 9))
            .unwrap();
        let pending = asn
            .checkpoint_async(7, CheckpointLevel::Buddy, Payload::Blobs(&blobs(2, 9)))
            .unwrap();
        // One piece, to the bit: not `local_cost` plus the drain left.
        assert_eq!(cost, pending.full_cost);
        assert_eq!(sync.level_of(7), Some(CheckpointLevel::Buddy));
        assert_eq!(asn.level_of(7), Some(CheckpointLevel::Local));
        asn.finish_drain(pending).unwrap();
        assert_eq!(asn.level_of(7), Some(CheckpointLevel::Buddy));
        assert_eq!(sync.restart().unwrap(), asn.restart().unwrap());
    }

    #[test]
    fn failure_before_drain_falls_back_to_local() {
        let m = manager(2);
        m.checkpoint(1, CheckpointLevel::Buddy, &blobs(2, 1))
            .unwrap();
        let _pending = m
            .checkpoint_async(2, CheckpointLevel::Buddy, Payload::Blobs(&blobs(2, 2)))
            .unwrap();
        // Node fails before finish_drain: checkpoint 2 exists at Local
        // only, so losing a node invalidates it; restart falls back to 1.
        m.fail_nodes(&[NodeId(0)]);
        let (id, level, _, _) = m.restart().unwrap();
        assert_eq!(id, 1);
        assert_eq!(level, CheckpointLevel::Buddy);
    }

    #[test]
    fn finish_drain_is_idempotent_and_storage_only() {
        let m = manager(3);
        let pending = m
            .checkpoint_async(4, CheckpointLevel::Buddy, Payload::Blobs(&blobs(3, 5)))
            .unwrap();
        assert_eq!(m.record_count(), 1, "local stage records once");
        assert_eq!(m.level_of(4), Some(CheckpointLevel::Local));
        m.finish_drain(pending).unwrap();
        // Promotion updated the record in place: one record, Buddy level,
        // no duplicate local clones re-inserted.
        assert_eq!(m.record_count(), 1, "promotion must not append a record");
        assert_eq!(m.level_of(4), Some(CheckpointLevel::Buddy));
        // Completing again is a free no-op, not an error.
        m.finish_drain(pending).unwrap();
        assert_eq!(m.record_count(), 1);
        // The promoted checkpoint protects against a node loss.
        m.fail_nodes(&[NodeId(1)]);
        let (id, level, data, _) = m.restart().unwrap();
        assert_eq!((id, level), (4, CheckpointLevel::Buddy));
        assert_eq!(data, blobs(3, 5));
    }

    #[test]
    fn node_death_mid_drain_aborts_promotion() {
        let m = manager(3);
        m.checkpoint(1, CheckpointLevel::Buddy, &blobs(3, 1))
            .unwrap();
        let pending = m
            .checkpoint_async(2, CheckpointLevel::Buddy, Payload::Blobs(&blobs(3, 2)))
            .unwrap();
        // A node dies while the drain is in flight: promotion must be
        // refused — falling back to the newest fully drained checkpoint
        // (id 1).
        m.fail_nodes(&[NodeId(0)]);
        assert_eq!(
            m.finish_drain(pending),
            Err(ScrError::DrainAborted { id: 2 })
        );
        assert!(!m.recoverable(2), "rank 0's local copy died with its node");
        let (id, level, data, _) = m.restart().unwrap();
        assert_eq!((id, level), (1, CheckpointLevel::Buddy));
        assert_eq!(data, blobs(3, 1));
    }

    #[test]
    fn failure_of_foreign_node_leaves_drains_alone() {
        let m = manager(2);
        let pending = m
            .checkpoint_async(1, CheckpointLevel::Buddy, Payload::Blobs(&blobs(2, 3)))
            .unwrap();
        // A node outside this job dies: the drain is unaffected.
        m.fail_nodes(&[NodeId(99)]);
        m.finish_drain(pending).unwrap();
        assert_eq!(m.level_of(1), Some(CheckpointLevel::Buddy));
    }

    #[test]
    fn recheckpointed_id_supersedes_the_promoted_incarnation() {
        let m = manager(2);
        let p1 = m
            .checkpoint_async(1, CheckpointLevel::Buddy, Payload::Blobs(&blobs(2, 1)))
            .unwrap();
        m.finish_drain(p1).unwrap();
        // A resumed run re-reaches the step and checkpoints id 1 afresh:
        // the old promotion must not make the new drain a no-op.
        let p1b = m
            .checkpoint_async(1, CheckpointLevel::Buddy, Payload::Blobs(&blobs(2, 9)))
            .unwrap();
        assert_eq!(m.level_of(1), Some(CheckpointLevel::Local));
        m.finish_drain(p1b).unwrap();
        assert_eq!(m.level_of(1), Some(CheckpointLevel::Buddy));
        m.fail_nodes(&[NodeId(0)]);
        let (_, _, data, _) = m.restart().unwrap();
        assert_eq!(data, blobs(2, 9), "the fresh incarnation restores");
    }

    #[test]
    fn encoded_checkpoint_drains_fewer_bytes_and_restores_bit_exact() {
        let m = manager(2);
        let full: Vec<Vec<u8>> = (0..2)
            .map(|r| (0..16384u32).map(|i| ((i + r) % 251) as u8).collect())
            .collect();
        let keyframes: Vec<Bytes> = full.iter().map(|b| delta::encode_full(b).into()).collect();
        let p1 = m
            .checkpoint_async(1, CheckpointLevel::Buddy, Payload::Frames(&keyframes))
            .unwrap();
        m.finish_drain(p1).unwrap();
        // Second checkpoint: touch a handful of bytes per rank.
        let mut next = full.clone();
        for b in &mut next {
            b[100] ^= 0xFF;
            b[9000] ^= 0x0F;
        }
        let frames: Vec<Bytes> = next
            .iter()
            .enumerate()
            .map(|(r, b)| delta::encode_delta(&full[r], b, 1).into())
            .collect();
        let p2 = m
            .checkpoint_async(2, CheckpointLevel::Buddy, Payload::Frames(&frames))
            .unwrap();
        assert!(
            p2.wire_bytes < p1.wire_bytes / 10,
            "delta shrinks the drain"
        );
        assert!(
            p2.local_cost < m.checkpoint_cost(CheckpointLevel::Local, 16384),
            "local stage writes the frame"
        );
        m.finish_drain(p2).unwrap();
        // Restart returns the reconstructed full state, bit-exact.
        m.fail_nodes(&[NodeId(0)]);
        let (id, _, data, _) = m.restart().unwrap();
        assert_eq!(id, 2);
        assert_eq!(data, next);
    }

    #[test]
    fn encoded_checkpoint_rejects_missing_base() {
        let m = manager(1);
        let base = vec![0u8; 1024];
        let mut cur = base.clone();
        cur[5] = 7;
        // Base id 9 was never checkpointed (or was pruned).
        let frames = [Bytes::from(delta::encode_delta(&base, &cur, 9))];
        assert_eq!(
            m.checkpoint_async(1, CheckpointLevel::Buddy, Payload::Frames(&frames)),
            Err(ScrError::DeltaBaseMissing { base: 9 })
        );
    }

    #[test]
    fn encoded_checkpoint_rejects_a_malformed_frame_by_rank() {
        let m = manager(3);
        m.checkpoint(0, CheckpointLevel::Local, &blobs(3, 0))
            .unwrap();
        let cur = blobs(3, 1);
        // Rank 1's delta names checkpoint 0 — a legal id, held locally —
        // but its one run claims u64::MAX bytes.
        let mut bad = vec![1u8];
        bad.extend_from_slice(&0u64.to_le_bytes());
        bad.extend_from_slice(&1024u64.to_le_bytes());
        bad.extend_from_slice(&1u32.to_le_bytes());
        bad.extend_from_slice(&0u64.to_le_bytes());
        bad.extend_from_slice(&u64::MAX.to_le_bytes());
        let frames: [Bytes; 3] = [
            delta::encode_full(&cur[0]).into(),
            bad.into(),
            vec![7u8, 7, 7].into(),
        ];
        assert_eq!(
            m.checkpoint_async(1, CheckpointLevel::Buddy, Payload::Frames(&frames)),
            Err(ScrError::BadFrame { rank: 1 })
        );
        // Nothing of the rejected checkpoint was staged.
        assert_eq!(m.level_of(1), None);
        assert_eq!(m.record_count(), 1);
        let frames = [frames[0].clone(), frames[0].clone(), Bytes::new()];
        assert_eq!(
            m.checkpoint_async(1, CheckpointLevel::Buddy, Payload::Frames(&frames)),
            Err(ScrError::BadFrame { rank: 2 })
        );
    }
}
