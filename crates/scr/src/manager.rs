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

use crate::delta::{self, DeltaError};
use bytes::Bytes;
use hwmodel::{MemoryLevel, NodeId, SimTime};
use parking_lot::Mutex;
use simnet::nam::{NamDevice, NamError, NamRegion};
use simnet::LogGpModel;
use sionio::{ParallelFs, SionContainer};
use std::collections::{BTreeMap, BTreeSet};
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
    /// full keyframes, shrinking the drained bytes.
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
    /// so `local_cost + drain()` need not equal it to the bit.
    pub full_cost: SimTime,
    /// Modelled bytes per rank on the NVMe and the wire (the largest
    /// encoded frame, or the largest blob).
    pub wire_bytes: u64,
}

impl PendingDrain {
    /// Drain time left once the local stage has returned.
    pub fn drain(&self) -> SimTime {
        self.full_cost.saturating_sub(self.local_cost)
    }
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
    /// locally (pruned, or lost with a node) — the sender must fall back
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

/// Configuration of the checkpoint stack.
#[derive(Clone)]
pub struct ScrConfig {
    /// NVMe device model of the compute nodes.
    pub nvme: MemoryLevel,
    /// Fabric model for buddy transfers.
    pub link: LogGpModel,
    /// Buddy partner: rank `i` copies to node of rank `(i + offset) % n`.
    pub buddy_offset: usize,
    /// When set, the buddy level drains into this NAM device instead of
    /// the buddy node's NVMe.
    pub nam: Option<NamBuddy>,
}

impl Default for ScrConfig {
    fn default() -> Self {
        ScrConfig {
            nvme: hwmodel::presets::nvme_p3700(),
            link: LogGpModel::default(),
            buddy_offset: 1,
            nam: None,
        }
    }
}

#[derive(Debug, Clone)]
struct CheckpointRecord {
    id: u64,
    level: CheckpointLevel,
    bytes_per_rank: Vec<u64>,
}

#[derive(Default)]
struct ScrState {
    // Ordered maps/sets throughout: drain, failure sweeps, and recovery
    // scans iterate these, and their virtual-time outcomes must not depend
    // on hash order (deepcheck D002).
    /// Ids staged and not yet promoted. The payloads themselves are the
    /// `local` copies, which live exactly as long.
    pending: BTreeSet<u64>,
    /// (ckpt id, rank) → blob, on the rank's own node.
    local: BTreeMap<(u64, usize), Bytes>,
    /// (ckpt id, rank) → blob, on the buddy node: the same buffer as the
    /// local entry, which node it is lost with is bookkeeping.
    buddy: BTreeMap<(u64, usize), Bytes>,
    /// Database of taken checkpoints, newest last.
    db: Vec<CheckpointRecord>,
    /// Nodes currently failed.
    dead: BTreeSet<NodeId>,
    /// (ckpt id, rank) → allocated NAM region, when the buddy level is
    /// NAM-backed. Allocation happens at the local stage so the live
    /// drain can RDMA-put straight into the region.
    nam_regions: BTreeMap<(u64, usize), NamRegion>,
    /// (ckpt id, rank) pairs whose NAM copy is authoritative (promotion
    /// completed). Never touched by `fail_nodes` — the device survives
    /// node deaths.
    nam_done: BTreeSet<(u64, usize)>,
}

/// The checkpoint manager for one job.
#[derive(Clone)]
pub struct ScrManager {
    config: ScrConfig,
    /// Node of each rank.
    nodes: Vec<NodeId>,
    /// Node specs of each rank (for buddy-transfer cost).
    specs: Vec<Arc<hwmodel::NodeSpec>>,
    pfs: ParallelFs,
    state: Arc<Mutex<ScrState>>, // lock-order: 10
}

/// The region rank `key.1` keeps checkpoint `key.0` in, allocated on first
/// use and re-allocated when the blob length changed.
fn nam_region_for(
    nam: &NamBuddy,
    regions: &mut BTreeMap<(u64, usize), NamRegion>,
    key: (u64, usize),
    len: u64,
) -> Result<NamRegion, ScrError> {
    if let Some(held) = regions.get(&key).copied() {
        if held.len == len {
            return Ok(held);
        }
        let _ = nam.device.dealloc(held);
    }
    let region = nam.device.alloc(len)?;
    regions.insert(key, region);
    Ok(region)
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
        (rank + self.config.buddy_offset) % self.ranks()
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
                let stream = SimTime::from_secs(bytes as f64 / self.config.link.payload_bw)
                    .max(SimTime::from_secs(bytes as f64 / nam.device.bandwidth()));
                (0..self.ranks())
                    .map(|r| {
                        self.specs[r].nic_send_overhead
                            + self.config.link.wire_latency
                            + stream
                            + nam.device.access_latency()
                    })
                    .max()
                    .unwrap_or(SimTime::ZERO)
            }
            None => (0..self.ranks())
                .map(|r| {
                    self.config.link.transfer_time(
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
            CheckpointLevel::Local => self.config.nvme.write_time(bytes_per_rank),
            CheckpointLevel::Buddy => {
                // Local write, then read-back + copy to the buddy store,
                // bounded by the slowest (rank, buddy) pair. A NAM target
                // needs no far-side NVMe write — the HMC stream is already
                // inside the copy term.
                let local = self.config.nvme.write_time(bytes_per_rank);
                let copy = self.buddy_copy_time(bytes_per_rank);
                let far_write = if self.config.nam.is_some() {
                    SimTime::ZERO
                } else {
                    self.config.nvme.write_time(bytes_per_rank)
                };
                local + self.config.nvme.read_time(bytes_per_rank).max(copy) + far_write
            }
            CheckpointLevel::Global => {
                // All ranks' chunks funnel into the striped PFS; staging
                // from NVMe overlaps the slower disk path.
                let total = bytes_per_rank * self.ranks() as u64;
                self.config
                    .nvme
                    .read_time(bytes_per_rank)
                    .max(self.pfs.transfer_time(total))
            }
        }
    }

    /// Take checkpoint `id` at `level` with one blob per rank (`Vec<u8>`s,
    /// copied once, or [`Bytes`], shared), blocking until it holds at that
    /// level. Returns the virtual cost.
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
    /// `drain()`). Promoting twice is a no-op. A drain that was aborted —
    /// by [`ScrManager::abort_drain`], or by [`ScrManager::fail_nodes`]
    /// losing one of the job's nodes while it was in flight — is refused
    /// with [`ScrError::DrainAborted`] and the checkpoint stays at `Local`
    /// level, so a restart falls back to the newest *promoted* checkpoint,
    /// exactly as [`crate::simulate_run`] models.
    pub fn finish_drain(&self, pending: PendingDrain) -> Result<(), ScrError> {
        if self.state.lock().pending.contains(&pending.id) {
            self.promote(pending.id, pending.level)
        } else if self.level_of(pending.id) == Some(pending.level) {
            Ok(())
        } else {
            Err(ScrError::DrainAborted { id: pending.id })
        }
    }

    /// Abort an in-flight drain. Returns whether there was one (false if
    /// already promoted or already aborted). The checkpoint keeps its
    /// `Local` protection.
    pub fn abort_drain(&self, pending: &PendingDrain) -> bool {
        self.state.lock().pending.remove(&pending.id)
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
        st.db.push(CheckpointRecord {
            id,
            level: CheckpointLevel::Local,
            bytes_per_rank: blobs.iter().map(|d| d.len() as u64).collect(),
        });
        for (r, blob) in blobs.into_iter().enumerate() {
            st.local.insert((id, r), blob);
        }
        st.pending.insert(id);
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
        let st = self.state.lock();
        let base = match delta::frame_base(frame).map_err(|_| ScrError::BadFrame { rank })? {
            Some(base) => {
                let held = st.local.get(&(base, rank));
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
    /// rewritten and the checkpoint appears once in the database.
    fn promote(&self, id: u64, level: CheckpointLevel) -> Result<(), ScrError> {
        let mut st = self.state.lock();
        let ScrState {
            pending,
            local,
            buddy,
            db,
            nam_regions,
            nam_done,
            ..
        } = &mut *st;
        pending.remove(&id);
        let lost = || ScrError::DrainAborted { id };
        let record = db.iter_mut().rev().find(|r| r.id == id).ok_or_else(lost)?;
        let blob = |r: usize| local.get(&(id, r)).ok_or_else(lost);
        match level {
            CheckpointLevel::Local => {}
            CheckpointLevel::Buddy => {
                for r in 0..self.ranks() {
                    match &self.config.nam {
                        // The device lock nests inside the state lock (10 → 40).
                        Some(nam) => {
                            let data = blob(r)?;
                            let len = data.len() as u64;
                            let region = nam_region_for(nam, nam_regions, (id, r), len)?;
                            nam.device.put(region, 0, data)?;
                            nam_done.insert((id, r));
                        }
                        None => {
                            buddy.insert((id, r), blob(r)?.clone());
                        }
                    }
                }
            }
            CheckpointLevel::Global => {
                let chunk = record.bytes_per_rank.iter().copied().max().unwrap_or(1);
                let (container, _) = SionContainer::create(
                    &self.pfs,
                    format!("/scr/ckpt-{id}.sion"),
                    self.ranks(),
                    chunk.max(1),
                )
                .expect("fresh container path");
                for r in 0..self.ranks() {
                    container
                        .write_task(r, blob(r)?)
                        .expect("chunk sized for the largest blob");
                }
            }
        }
        record.level = level;
        Ok(())
    }

    /// Rank `rank`'s authoritative NAM copy of checkpoint `id`, if any.
    fn nam_fetch(&self, st: &ScrState, id: u64, rank: usize) -> Option<Bytes> {
        let nam = self.config.nam.as_ref()?;
        if !st.nam_done.contains(&(id, rank)) {
            return None;
        }
        let region = st.nam_regions.get(&(id, rank))?;
        nam.device.get(*region, 0, region.len).ok().map(Bytes::from)
    }

    /// The NAM region rank `rank` should RDMA-put checkpoint `id` into
    /// (allocating it on first use). Live drains call this right after the
    /// local stage so the put lands in the region the restart will read.
    pub fn nam_region(&self, id: u64, rank: usize, len: u64) -> Result<NamRegion, ScrError> {
        let nam = self
            .config
            .nam
            .as_ref()
            .expect("nam_region requires a NAM-backed buddy level");
        nam_region_for(nam, &mut self.state.lock().nam_regions, (id, rank), len)
    }

    /// Mark nodes as failed: their local checkpoint copies (and the buddy
    /// copies *stored on* them) become unavailable, and every in-flight
    /// asynchronous drain of this job is aborted — each rank participates
    /// in each drain, so a lost node means the checkpoint can no longer
    /// reach its full level ([`ScrError::DrainAborted`] from
    /// `finish_drain`; restart falls back to the newest promoted
    /// checkpoint). NAM copies survive: the device has no host node.
    pub fn fail_nodes(&self, nodes: &[NodeId]) {
        let mut st = self.state.lock();
        st.dead.extend(nodes.iter().copied());
        let dead = st.dead.clone();
        if nodes.iter().any(|n| self.nodes.contains(n)) {
            st.pending.clear();
        }
        // Local copies live on the rank's node; buddy copies on the buddy's.
        st.local.retain(|(_, r), _| !dead.contains(&self.nodes[*r]));
        let buddies: Vec<usize> = (0..self.ranks()).map(|r| self.buddy_of(r)).collect();
        st.buddy
            .retain(|(_, r), _| !dead.contains(&self.nodes[buddies[*r]]));
    }

    /// Repair failed nodes (replacement hardware / reboot).
    pub fn heal(&self) {
        self.state.lock().dead.clear();
    }

    /// Whether checkpoint `id` is fully recoverable right now.
    pub fn recoverable(&self, id: u64) -> bool {
        let st = self.state.lock();
        let Some(rec) = st.db.iter().rev().find(|r| r.id == id) else {
            return false;
        };
        match rec.level {
            CheckpointLevel::Global => true,
            CheckpointLevel::Local => (0..self.ranks()).all(|r| st.local.contains_key(&(id, r))),
            CheckpointLevel::Buddy => (0..self.ranks()).all(|r| {
                st.local.contains_key(&(id, r))
                    || st.buddy.contains_key(&(id, r))
                    || st.nam_done.contains(&(id, r))
            }),
        }
    }

    /// Number of records in the checkpoint database (each taken
    /// checkpoint appears exactly once; promotion updates the record's
    /// level in place rather than appending).
    pub fn record_count(&self) -> usize {
        self.state.lock().db.len()
    }

    /// The level checkpoint `id` currently holds at, per the database.
    pub fn level_of(&self, id: u64) -> Option<CheckpointLevel> {
        let st = self.state.lock();
        st.db.iter().rev().find(|r| r.id == id).map(|r| r.level)
    }

    /// Restart from the newest recoverable checkpoint: returns
    /// `(id, level, per-rank blobs, virtual cost)`.
    #[allow(clippy::type_complexity)]
    pub fn restart(&self) -> Result<(u64, CheckpointLevel, Vec<Bytes>, SimTime), ScrError> {
        let st = self.state.lock();
        let mut seen = BTreeSet::new();
        for rec in st.db.iter().rev() {
            // Ids repeat when a resumed run re-reaches a step; only the
            // newest record of an id speaks for it.
            if !seen.insert(rec.id) {
                continue;
            }
            let id = rec.id;
            let max_bytes = rec.bytes_per_rank.iter().copied().max().unwrap_or(0);
            let read = self.config.nvme.read_time(max_bytes);
            let (blobs, cost) = match rec.level {
                CheckpointLevel::Global => {
                    let (c, _) = SionContainer::open(&self.pfs, &format!("/scr/ckpt-{id}.sion"))
                        .expect("global checkpoint container");
                    let blobs = (0..self.ranks())
                        .map(|r| Bytes::from(c.read_task(r).expect("task chunk").0))
                        .collect();
                    let total = rec.bytes_per_rank.iter().sum::<u64>();
                    let stage = self.config.nvme.write_time(max_bytes);
                    (blobs, self.pfs.transfer_time(total).max(stage))
                }
                level => {
                    let found: Option<Vec<Bytes>> = (0..self.ranks())
                        .map(|r| {
                            let held = st.local.get(&(id, r)).or_else(|| st.buddy.get(&(id, r)));
                            held.cloned().or_else(|| self.nam_fetch(&st, id, r))
                        })
                        .collect();
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

    /// Drop checkpoints older than `keep_newest` restartable ones (SCR's
    /// rolling window). Returns how many records were evicted.
    pub fn prune(&self, keep_newest: usize) -> usize {
        let mut st = self.state.lock();
        if st.db.len() <= keep_newest {
            return 0;
        }
        let cut = st.db.len() - keep_newest;
        let evicted: Vec<CheckpointRecord> = st.db.drain(..cut).collect();
        for rec in &evicted {
            st.pending.remove(&rec.id);
            for r in 0..self.nodes.len() {
                st.local.remove(&(rec.id, r));
                st.buddy.remove(&(rec.id, r));
                st.nam_done.remove(&(rec.id, r));
                if let Some(region) = st.nam_regions.remove(&(rec.id, r)) {
                    if let Some(nam) = &self.config.nam {
                        let _ = nam.device.dealloc(region);
                    }
                }
            }
            if rec.level == CheckpointLevel::Global {
                let _ = self.pfs.delete(&format!("/scr/ckpt-{}.sion", rec.id));
            }
        }
        evicted.len()
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
        m.fail_nodes(&[NodeId(2)]);
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
    fn prune_evicts_old_checkpoints() {
        let m = manager(2);
        for id in 1..=5 {
            m.checkpoint(id, CheckpointLevel::Local, &blobs(2, id as u8))
                .unwrap();
        }
        assert_eq!(m.prune(2), 3);
        assert!(!m.recoverable(3));
        assert_eq!(m.restart().unwrap().0, 5);
        assert_eq!(m.prune(2), 0);
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
        let cfg = ScrConfig::default();
        let m = ScrManager::new(
            cfg.clone(),
            (0..4u32).map(NodeId).collect(),
            specs.clone(),
            ParallelFs::deep_er(),
        );
        let bytes = 8u64 << 20;
        let slowest = (0..4)
            .map(|r| {
                cfg.link
                    .transfer_time(&specs[r], &specs[(r + 1) % 4], bytes as usize, 1)
            })
            .max()
            .unwrap();
        assert_eq!(m.buddy_copy_time(bytes), slowest);
        let rank0_pair = cfg
            .link
            .transfer_time(&specs[0], &specs[1], bytes as usize, 1);
        assert!(
            slowest > rank0_pair,
            "the old specs[0] formula must actually differ: {slowest} vs {rank0_pair}"
        );
        // The full buddy cost embeds the slowest-pair copy.
        let expect = cfg.nvme.write_time(bytes)
            + cfg.nvme.read_time(bytes).max(slowest)
            + cfg.nvme.write_time(bytes);
        assert_eq!(m.checkpoint_cost(CheckpointLevel::Buddy, bytes), expect);
        // And the restart path prices the same slowest pair.
        m.checkpoint(1, CheckpointLevel::Buddy, &blobs(4, 3))
            .unwrap();
        let (_, _, _, cost) = m.restart().unwrap();
        assert_eq!(cost, cfg.nvme.read_time(1024) + m.buddy_copy_time(1024));
    }

    fn nam_manager(ranks: usize) -> (ScrManager, simnet::nam::NamDevice) {
        let device = simnet::nam::NamDevice::deep_er();
        let cfg = ScrConfig {
            nam: Some(NamBuddy {
                index: 0,
                device: device.clone(),
            }),
            ..ScrConfig::default()
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

    #[test]
    fn nam_regions_released_on_prune() {
        let (m, device) = nam_manager(2);
        for id in 1..=4 {
            m.checkpoint(id, CheckpointLevel::Buddy, &blobs(2, id as u8))
                .unwrap();
        }
        let used = device.used();
        assert!(used > 0);
        assert_eq!(m.prune(1), 3);
        assert!(device.used() < used, "pruned regions are deallocated");
        assert_eq!(m.restart().unwrap().0, 4);
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
            + ScrConfig::default()
                .nvme
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
        assert_eq!(pending.drain(), pending.full_cost - pending.local_cost);
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
        // One piece, to the bit: not `local_cost + drain()`.
        assert_eq!(cost, pending.full_cost);
        assert_eq!(sync.level_of(7), Some(CheckpointLevel::Buddy));
        assert_eq!(asn.level_of(7), Some(CheckpointLevel::Local));
        // Nothing is left in flight behind the blocking call.
        assert!(!sync.abort_drain(&pending));
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
    fn abort_drain_refuses_promotion() {
        let m = manager(2);
        let pending = m
            .checkpoint_async(1, CheckpointLevel::Global, Payload::Blobs(&blobs(2, 1)))
            .unwrap();
        assert!(m.abort_drain(&pending), "the drain was in flight");
        assert!(!m.abort_drain(&pending), "second abort finds nothing");
        assert_eq!(
            m.finish_drain(pending),
            Err(ScrError::DrainAborted { id: 1 })
        );
        // The checkpoint keeps its Local protection.
        assert_eq!(m.level_of(1), Some(CheckpointLevel::Local));
        assert!(m.recoverable(1));
        // Aborting a *completed* drain is also a no-op.
        let p2 = m
            .checkpoint_async(2, CheckpointLevel::Buddy, Payload::Blobs(&blobs(2, 2)))
            .unwrap();
        m.finish_drain(p2).unwrap();
        assert!(!m.abort_drain(&p2));
        assert_eq!(m.level_of(2), Some(CheckpointLevel::Buddy));
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
        // (id 1), exactly as simulate_run models.
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
