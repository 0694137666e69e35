//! The matching engine: per-endpoint mailboxes and shared universe state.
//!
//! Sends never block (buffered semantics — the sender deposits the envelope
//! into the receiver's mailbox and moves on, as with small/eager messages in
//! a real MPI; this also makes naive exchange loops deadlock-free). Receives
//! wait in one loop, `Mailbox::park_until`: a short spin on the arrival
//! counter, then a sleep on a condition variable that the first deposit
//! after the receiver went to sleep signals, and no other (DESIGN.md §3.7).

use crate::comm::CommId;
use crate::envelope::{EndpointId, Envelope, Tag};
use crate::pool::{BufferPool, Slot};
use crate::rank::PsmpiError;
use bytes::Bytes;
use hwmodel::{NodeId, NodeSpec, SimTime};
use lockrank::{Condvar, Mutex, RwLock};
use simnet::{Fabric, FaultPlan};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::JoinHandle;

/// Interior of a [`Mailbox`], guarded by one mutex.
///
/// Envelopes live in `slots` in arrival order; consuming one leaves a
/// tombstone that is compacted away once it reaches the front. On top of
/// that, `index` maps each exact `(comm, src, tag)` class to its members'
/// arrival numbers, so the common fully-specified receive is an O(1)
/// lookup instead of a scan of the whole queue — under incast, a deep
/// mailbox made the old front-to-back scan quadratic in backlog depth.
///
/// The index stays exact because any envelope ever removed — even through
/// a wildcard receive — is the *earliest live* envelope of its class:
/// wildcard matching picks the earliest arrival that matches, and every
/// earlier same-class envelope would have matched too. Removal therefore
/// always pops that class's deque at the front, and deque fronts always
/// reference live slots.
///
/// A class that empties keeps its key and its deque's allocation for the
/// next message of the class, so a steady exchange allocates nothing here;
/// only while the index holds more than [`RETAINED_CLASSES`] classes does
/// an emptied one go, which bounds the empty ones a mailbox keeps.
#[derive(Default)]
struct MailboxState {
    slots: VecDeque<Option<Envelope>>,
    /// Arrival number of `slots[0]`.
    base: u64,
    /// Exact-match index; only ever *looked up* by key, never iterated,
    /// so hash order cannot influence matching (determinism contract).
    #[expect(
        clippy::disallowed_types,
        reason = "lookup only, never iterated: hash order reaches no clock or match"
    )]
    index: std::collections::HashMap<ClassKey, VecDeque<u64>, BuildHasherDefault<KeyHasher>>,
    /// Number of live (non-tombstone) envelopes.
    live: usize,
    /// Receivers inside `cv.wait` that nothing has notified since they
    /// went to sleep; while there is one, a deposit notifies (see
    /// [`Mailbox::signal`]).
    asleep: usize,
}

/// Match classes beyond which an emptied one is dropped (see
/// [`MailboxState`]).
const RETAINED_CLASSES: usize = 64;

/// An exact match class: `(comm, source rank, tag)`.
type ClassKey = (CommId, usize, Tag);

/// The mailbox index's hasher: FxHash's rotate-xor-multiply step per word.
/// A class key is three small integers chosen by the job itself, not by an
/// adversary, so SipHash's flooding resistance buys nothing here, and its
/// three runs per message cost `ring_latency` about 8 % of its throughput.
/// The final multiply carries every input bit into the high bits the table
/// reads its control bytes from.
#[derive(Default)]
struct KeyHasher(u64);

impl KeyHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.add(u64::from(b)));
    }
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
    fn write_i32(&mut self, n: i32) {
        self.add(u64::from(n as u32));
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

impl MailboxState {
    /// Arrival number of the earliest live envelope matching the triple.
    fn find(&self, comm: CommId, src: Option<usize>, tag: Option<Tag>) -> Option<u64> {
        match (src, tag) {
            (Some(s), Some(t)) => self
                .index
                .get(&(comm, s, t))
                .and_then(|class| class.front().copied()),
            _ => self.slots.iter().enumerate().find_map(|(i, slot)| {
                slot.as_ref()
                    .filter(|e| e.matches(comm, src, tag))
                    .map(|_| self.base + i as u64)
            }),
        }
    }

    fn peek(&self, arrival: u64) -> &Envelope {
        self.slots[(arrival - self.base) as usize]
            .as_ref()
            .expect("peeked slot is live")
    }

    /// What a probe reports of the earliest live match, if there is one.
    fn peek_match(&self, comm: CommId, src: Option<usize>, tag: Option<Tag>) -> Option<Probed> {
        let e = self.peek(self.find(comm, src, tag)?);
        Some((
            e.src_rank,
            e.tag,
            e.payload.len(),
            e.send_stamp,
            e.src_endpoint,
        ))
    }

    fn take(&mut self, arrival: u64) -> Envelope {
        let env = self.slots[(arrival - self.base) as usize]
            .take()
            .expect("taken slot is live");
        self.live -= 1;
        let key = (env.comm, env.src_rank, env.tag);
        let class = self.index.get_mut(&key).expect("indexed class");
        debug_assert_eq!(class.front(), Some(&arrival), "removal is class front");
        class.pop_front();
        if class.is_empty() && self.index.len() > RETAINED_CLASSES {
            self.index.remove(&key);
        }
        // Compact tombstones: always from the front, wholesale when the
        // queue drained (arrival numbers in `index` stay valid because
        // every class is empty whenever `live` is zero).
        if self.live == 0 {
            self.base += self.slots.len() as u64;
            self.slots.clear();
        } else {
            while matches!(self.slots.front(), Some(None)) {
                self.slots.pop_front();
                self.base += 1;
            }
        }
        env
    }
}

/// Why an abortable wait gave up instead of returning its match.
#[derive(Debug)]
pub enum RecvAbort {
    /// A revoke marker from the awaited sender was queued: the sender
    /// aborted after observing a node failure and will never send the
    /// awaited message. Carries the marker payload (failed node + time).
    Revoked(Bytes),
    /// The awaited sender's node itself was declared down (at the given
    /// virtual time). The victim deposits all its sends *before* declaring
    /// down on its own thread, so "no match and the node is down" means
    /// the message will never come — the abort is deterministic.
    Dead(NodeId, SimTime),
}

/// `(source rank, tag, payload bytes, send stamp, source endpoint)` of a
/// queued envelope, as the probes report it.
pub type Probed = (usize, Tag, usize, SimTime, EndpointId);

/// Times a receiver with no match re-reads the arrival counter, lock
/// released, before it sleeps. A count, not a duration: the message path
/// reads no host clock.
const SPIN_BUDGET: u32 = 1000;

/// Cores of the host, read once.
#[expect(
    clippy::disallowed_methods,
    reason = "host-side wake-up policy: the core count only decides whether a receiver that found no match spins on the arrival counter before it sleeps (and only while awake rank threads <= cores); it never reaches a clock, a match decision or any virtual-time value"
)]
fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Whether a receiver with no match spins before it sleeps: only while
/// every awake rank thread can have a core to itself — otherwise the spin
/// may keep the awaited sender, or a receiver just notified, off the CPU.
fn spin_before_sleep(awake: isize, cores: usize) -> bool {
    awake <= cores as isize
}

/// One endpoint's incoming-message queue.
#[derive(Default)]
pub struct Mailbox {
    state: Mutex<MailboxState, 410>,
    cv: Condvar,
    /// Deposits and interrupts so far; a spinning receiver watches it.
    arrivals: AtomicU64,
    /// [`Router::awake_ranks`] of the owning router (a stand-alone
    /// mailbox counts for itself).
    awake: Arc<AtomicIsize>,
}

impl Mailbox {
    /// Deposit an envelope and wake the receiver if it sleeps.
    pub fn push(&self, env: Envelope) {
        let mut s = self.state.lock();
        self.deposit(&mut s, env);
    }

    /// [`Mailbox::push`] with the lock held; returns whether it notified.
    fn deposit(&self, s: &mut MailboxState, env: Envelope) -> bool {
        let arrival = s.base + s.slots.len() as u64;
        s.index
            .entry((env.comm, env.src_rank, env.tag))
            .or_default()
            .push_back(arrival);
        s.slots.push_back(Some(env));
        s.live += 1;
        self.signal(s)
    }

    /// Make a receiver re-evaluate its abort conditions (called on every
    /// mailbox when a node is declared down).
    pub fn interrupt(&self) {
        let mut s = self.state.lock();
        self.signal(&mut s);
    }

    /// Publish a change, lock held: a spinner sees the counter move, and
    /// a receiver that went to sleep since the last notify is notified;
    /// returns whether one was. Notify once per sleep: a receiver already
    /// notified is on its way back to this lock and will see this change
    /// too, and under the `std::sync` shim every `notify` is a `futex`
    /// syscall whether or not anyone waits — in the ring a notified rank
    /// waits milliseconds for a core while its neighbour deposits a batch
    /// of rounds. The notify also counts the sleepers awake again: they
    /// want a core from now on, not from when they get one, and a spinner
    /// must not take it.
    fn signal(&self, s: &mut MailboxState) -> bool {
        self.arrivals.fetch_add(1, Ordering::Release);
        if s.asleep == 0 {
            return false;
        }
        let woken = std::mem::take(&mut s.asleep);
        self.awake.fetch_add(woken as isize, Ordering::AcqRel);
        self.cv.notify_all();
        true
    }

    /// The one wait loop: block until `hit` yields, or until the `watched`
    /// sender is known never to deliver. Every evaluation, under one lock
    /// hold, tries in order:
    /// 1. `hit` — so a sender's real messages win over its own revoke
    ///    marker (deposited earlier on its thread, hence visible whenever
    ///    the marker is);
    /// 2. a revoke marker ([`crate::envelope::TAG_REVOKED`]) from the
    ///    watched source — peeked, never consumed, so it unblocks every
    ///    later wait on that sender too;
    /// 3. `dead()` reporting the watched source's node as declared down.
    ///
    /// Both aborts are deterministic: markers and messages ride one mailbox
    /// in the sender's program order, and a victim deposits all its sends
    /// before declaring down. With nobody watched (a wildcard source) the
    /// wait cannot abort.
    ///
    /// A miss spins on `arrivals` with the lock released, if
    /// [`spin_before_sleep`] allows, re-evaluates, and only then sleeps;
    /// `asleep` rises under the lock a depositor holds, so no wake-up is
    /// lost. None of this reads or moves a virtual clock.
    fn park_until<T>(
        &self,
        comm: CommId,
        watched: Option<usize>,
        dead: impl Fn() -> Option<(NodeId, SimTime)>,
        mut hit: impl FnMut(&mut MailboxState) -> Option<T>,
    ) -> Result<T, RecvAbort> {
        // The one place a rank waits on another: no lock may be held here.
        lockrank::assert_unlocked();
        let mut spun = false;
        loop {
            let seen = {
                let mut s = self.state.lock();
                loop {
                    if let Some(found) = hit(&mut s) {
                        return Ok(found);
                    }
                    if let Some(sr) = watched {
                        let tag = Some(crate::envelope::TAG_REVOKED);
                        if let Some(arrival) = s.find(comm, Some(sr), tag) {
                            return Err(RecvAbort::Revoked(s.peek(arrival).payload.clone()));
                        }
                        if let Some((node, at)) = dead() {
                            return Err(RecvAbort::Dead(node, at));
                        }
                    }
                    let arrivals = self.arrivals.load(Ordering::Acquire);
                    if !spun && spin_before_sleep(self.awake.load(Ordering::Acquire), host_cores())
                    {
                        break arrivals;
                    }
                    s.asleep += 1;
                    self.awake.fetch_sub(1, Ordering::AcqRel);
                    self.cv.wait(&mut s);
                    if self.arrivals.load(Ordering::Acquire) == arrivals {
                        // Woken by nobody: no `signal` has counted this
                        // sleeper awake again, so it does that itself.
                        s.asleep -= 1;
                        self.awake.fetch_add(1, Ordering::AcqRel);
                    }
                    spun = false;
                }
            };
            for _ in 0..SPIN_BUDGET {
                if self.arrivals.load(Ordering::Acquire) != seen {
                    break;
                }
                std::hint::spin_loop();
            }
            spun = true;
        }
    }

    /// Block until an envelope matching `(comm, src, tag)` is queued, then
    /// remove and return it — or give up when the awaited sender is known
    /// never to deliver: a queued match first, then that sender's revoke
    /// marker, then `dead()` reporting its node declared down. Envelopes
    /// from the same sender are matched in send order (MPI non-overtaking):
    /// both the index deques and the slot queue are in arrival order, and
    /// one sender's arrivals are ordered.
    pub fn recv_match_abortable(
        &self,
        comm: CommId,
        src: Option<usize>,
        tag: Option<Tag>,
        dead: impl Fn() -> Option<(NodeId, SimTime)>,
    ) -> Result<Envelope, RecvAbort> {
        self.park_until(comm, src, dead, |s| {
            s.find(comm, src, tag).map(|arrival| s.take(arrival))
        })
    }

    /// Like [`Mailbox::recv_match_abortable`] but non-blocking: peek
    /// metadata without dequeuing.
    pub fn probe_match(
        &self,
        comm: CommId,
        src: Option<usize>,
        tag: Option<Tag>,
    ) -> Option<Probed> {
        let s = self.state.lock();
        s.peek_match(comm, src, tag)
    }

    /// Block until an envelope from `src` on `comm` carrying *either* tag
    /// is queued, and return the tag seen without dequeuing (abortable).
    /// Lets a collective receiver dispatch between two sub-protocols (e.g.
    /// a single-shot bcast payload vs. a segmented-stream header).
    pub fn probe_blocking_either(
        &self,
        comm: CommId,
        src: usize,
        tag_a: Tag,
        tag_b: Tag,
        dead: impl Fn() -> Option<(NodeId, SimTime)>,
    ) -> Result<Tag, RecvAbort> {
        self.park_until(comm, Some(src), dead, |s| {
            // Earliest arrival wins so one sender's protocol messages are
            // dispatched in send order.
            let queued = |tag| s.find(comm, Some(src), Some(tag)).map(|at| (at, tag));
            let earliest = [queued(tag_a), queued(tag_b)].into_iter().flatten().min();
            earliest.map(|(_, tag)| tag)
        })
    }

    /// Number of queued envelopes (diagnostics).
    pub fn len(&self) -> usize {
        let s = self.state.lock();
        s.live
    }

    /// Whether the mailbox is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Final record of one rank's execution, collected by the universe.
#[derive(Debug, Clone)]
pub struct RankOutcome {
    /// World the rank belonged to.
    pub world: CommId,
    /// Rank within that world.
    pub rank: usize,
    /// Node it ran on.
    pub node: NodeId,
    /// Final virtual clock.
    pub clock: SimTime,
    /// Total bytes this rank sent.
    pub bytes_sent: u64,
    /// Total messages this rank sent.
    pub msgs_sent: u64,
    /// The rank's phase ledger: `(name, seconds)` per phase span name.
    pub phases: Vec<(&'static str, SimTime)>,
}

/// Number of lock domains the endpoint table is split into. Power of two
/// so the shard of an endpoint is a mask of its id. 64 shards keep the
/// chance of two concurrently-active endpoints sharing a lock small even
/// at a few thousand ranks, while `declare_down`'s full sweep stays cheap.
const ENDPOINT_SHARDS: usize = 64;

/// Shard index of an endpoint (pure function of the id — no global state).
fn shard_of(ep: EndpointId) -> usize {
    (ep.0 as usize) & (ENDPOINT_SHARDS - 1)
}

/// One endpoint's routing record: its mailbox, host node and that node's
/// spec. Immutable after registration, so holders of an
/// `Arc<EndpointEntry>` (each [`crate::Rank`] caches the entries of its
/// frequent peers) read it without any lock, and price a message between
/// two entries without a topology lookup ([`Router::transfer_time_between`]).
pub struct EndpointEntry {
    mailbox: Arc<Mailbox>,
    node: NodeId,
    /// The topology's spec of `node`; `None` for a node off the topology,
    /// which has no route.
    spec: Option<Arc<NodeSpec>>,
    /// The last repair of `node` when the endpoint was registered: planned
    /// deaths no later than it are spent *for this endpoint*. Frozen here,
    /// not read live, because a rank of a failed world can still be running
    /// when the supervisor repairs the node for the next world; to that
    /// rank its peer on the node stays dead, whatever the host interleaving.
    repaired: Option<SimTime>,
}

impl EndpointEntry {
    /// The endpoint's mailbox.
    pub fn mailbox(&self) -> &Arc<Mailbox> {
        &self.mailbox
    }

    /// The node the endpoint runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Whether `plan` says the endpoint's node is dead as of virtual time
    /// `t` (and was not repaired before the endpoint was registered). This
    /// is the one plan query of the message path: a sender asks it of its
    /// destination's entry, and every operation of a rank asks it of the
    /// rank's own entry (the victim's check), each against the plan the
    /// rank resolved at its start and its own clock. It reads only that
    /// immutable plan and this entry, never the dynamic dead set or the
    /// live repairs map, so the verdict depends only on the asking rank's
    /// virtual clock — deterministic across thread counts.
    pub fn planned_dead(&self, plan: &FaultPlan, t: SimTime) -> Option<SimTime> {
        let tf = plan.node_fault_at(self.node, t)?;
        match self.repaired {
            Some(r) if tf <= r => None,
            _ => Some(tf),
        }
    }
}

/// Shared state of a running universe.
///
/// Hot-path message delivery never takes a router-wide lock: the endpoint
/// table is sharded into `ENDPOINT_SHARDS` read-mostly lock domains and
/// the dynamic dead set is screened by a lock-free flag that is false for
/// the whole run in the fault-free case.
pub struct Router {
    fabric: Fabric,
    /// The endpoint table, sharded by endpoint id. Each shard is a
    /// BTreeMap (not HashMap): `declare_down` iterates the shards in index
    /// order and each map in key order to interrupt blocked receivers, and
    /// iteration in a virtual-time crate must be in a deterministic order
    /// (`clippy.toml` bans the hash containers). Entries are never
    /// removed, so cached `Arc<EndpointEntry>` handles can outlive the
    /// lookup.
    endpoints: [RwLock<BTreeMap<EndpointId, Arc<EndpointEntry>>, 420>; ENDPOINT_SHARDS],
    /// Deaths declared at run time, as `(node, virtual death time)`.
    /// Written by the victim's own thread *after* it deposited all its
    /// sends; read by the abortable receive path, which keeps only the
    /// deaths after the awaited endpoint's `repaired`.
    dead_nodes: Mutex<BTreeSet<(NodeId, SimTime)>, 430>,
    /// Lock-free screen for `dead_nodes`: false means the set is empty and
    /// the per-receive dead check returns `None` without locking. Updated
    /// under the `dead_nodes` lock; the release store paired with the
    /// mailbox-interrupt handshake makes a blocked receiver re-check under
    /// a visible flag (see [`Router::declare_down`]).
    any_dead: AtomicBool,
    /// Last repair time per node, written by the supervisor before it
    /// respawns a world and copied into each endpoint registered after
    /// (`EndpointEntry::repaired`); senders never read it.
    repairs: RwLock<BTreeMap<NodeId, SimTime>, 432>,
    /// Optional span/counter recorder: when attached, every rank of every
    /// subsequent job registers an `obs` track and the runtime emits
    /// compute/send/recv/collective spans automatically.
    obs: Mutex<Option<obs::Recorder>, 442>,
    next_endpoint: AtomicU64,
    next_comm: AtomicU64,
    /// Rank threads alive (`spawn_rank_thread` counts them in and out) and
    /// not asleep in a mailbox, shared with every mailbox. Host-side only:
    /// it gates the spin before a sleep and never reaches a virtual clock.
    pub(crate) awake: Arc<AtomicIsize>,
    /// Threads spawned dynamically (via `Rank::spawn`); joined at job end.
    pub(crate) child_handles: Mutex<Vec<JoinHandle<()>>, 444>,
    /// Outcomes of completed ranks.
    pub(crate) outcomes: Mutex<Vec<RankOutcome>, 446>,
    /// Fixed virtual cost of a `spawn` operation (process launch, remote
    /// boot, connection setup).
    pub spawn_latency: SimTime,
    /// Pool of retired encode buffers (see [`BufferPool`]): the one the
    /// universes alive at this router's construction share
    /// ([`Router::new`]), or one handed in ([`Router::with_pool`]).
    pool: Arc<BufferPool>,
}

/// The pool that the routers built by [`Router::new`] share while any of
/// them is alive. Only a `Weak`: the pool dies with the last router (or
/// rank slot) that holds it, and the next `Router::new` makes a new one.
static SHARED_POOL: Mutex<Weak<BufferPool>, 448> = Mutex::new(Weak::new());

impl Router {
    /// New router over a fabric. It draws encode buffers from the pool of
    /// the universes alive right now, or from a new pool if none is: a
    /// job on one universe then starts with the buffers that jobs on the
    /// others retired (a checkpointed run's megabyte-class blobs, which a
    /// cold pool allocates zeroed and faults in page by page). Nothing
    /// outlives the last universe that holds the pool, so a process with
    /// one universe at a time keeps its pool per universe, and the pool's
    /// hit and miss counters count that universe's draws.
    pub fn new(fabric: Fabric) -> Arc<Self> {
        let pool = {
            let mut shared = SHARED_POOL.lock();
            shared.upgrade().unwrap_or_else(|| {
                let pool = Arc::new(BufferPool::new());
                *shared = Arc::downgrade(&pool);
                pool
            })
        };
        Self::with_pool(fabric, pool)
    }

    /// New router over a fabric, drawing encode buffers from `pool` alone:
    /// a pool made for it is shared with no other router, one kept by the
    /// caller can outlive it.
    pub fn with_pool(fabric: Fabric, pool: Arc<BufferPool>) -> Arc<Self> {
        Arc::new(Router {
            fabric,
            endpoints: std::array::from_fn(|_| RwLock::new(BTreeMap::new())),
            dead_nodes: Mutex::new(BTreeSet::new()),
            any_dead: AtomicBool::new(false),
            repairs: RwLock::new(BTreeMap::new()),
            obs: Mutex::new(None),
            next_endpoint: AtomicU64::new(0),
            next_comm: AtomicU64::new(0),
            awake: Arc::default(),
            child_handles: Mutex::new(Vec::new()),
            outcomes: Mutex::new(Vec::new()),
            spawn_latency: SimTime::from_millis(50.0),
            pool,
        })
    }

    /// The fabric.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The shared encode-buffer pool.
    pub fn buffer_pool(&self) -> &BufferPool {
        &self.pool
    }

    /// A new rank's [`Slot`] on the shared pool.
    pub(crate) fn buffer_slot(&self) -> Slot {
        BufferPool::slot(&self.pool)
    }

    /// Rank threads of this universe that are alive and not asleep in a
    /// mailbox; 0 whenever no job runs.
    pub fn awake_ranks(&self) -> isize {
        self.awake.load(Ordering::Acquire)
    }

    /// Allocate a fresh endpoint bound to `node`.
    pub fn register_endpoint(&self, node: NodeId) -> EndpointId {
        let id = EndpointId(self.next_endpoint.fetch_add(1, Ordering::Relaxed));
        let repaired = {
            let reps = self.repairs.read();
            reps.get(&node).copied()
        };
        let entry = Arc::new(EndpointEntry {
            mailbox: Arc::new(Mailbox {
                awake: self.awake.clone(),
                ..Mailbox::default()
            }),
            node,
            spec: self.fabric.node(node).ok().cloned(),
            repaired,
        });
        let mut shard = self.endpoints[shard_of(id)].write();
        shard.insert(id, entry);
        id
    }

    /// Allocate a fresh communicator context id.
    pub fn alloc_comm(&self) -> CommId {
        CommId(self.next_comm.fetch_add(1, Ordering::Relaxed))
    }

    /// Routing record of an endpoint. A stale/unknown endpoint is an
    /// error, not a panic: after a node failure, handles into a dead world
    /// surface as [`PsmpiError::UnknownEndpoint`] so the caller can
    /// recover. Entries are immutable and never removed — callers on hot
    /// paths should cache the `Arc` instead of looking up per message.
    pub fn entry(&self, ep: EndpointId) -> Result<Arc<EndpointEntry>, PsmpiError> {
        let shard = self.endpoints[shard_of(ep)].read();
        shard
            .get(&ep)
            .cloned()
            .ok_or(PsmpiError::UnknownEndpoint(ep.0))
    }

    /// Deliver an envelope to `dst`.
    pub fn deliver(&self, dst: EndpointId, env: Envelope) -> Result<(), PsmpiError> {
        self.entry(dst)?.mailbox.push(env);
        Ok(())
    }

    /// Fabric transfer time between the nodes of two resolved entries:
    /// `Fabric::p2p_time`'s arithmetic on the specs the entries hold, with
    /// no table lookup (the receive path prices every message from its
    /// cached entries this way).
    pub fn transfer_time_between(
        &self,
        src: &EndpointEntry,
        dst: &EndpointEntry,
        bytes: usize,
    ) -> Result<SimTime, PsmpiError> {
        match (&src.spec, &dst.spec) {
            (Some(s), Some(d)) => Ok(self
                .fabric
                .p2p_time_between(src.node, s, dst.node, d, bytes)),
            _ => Err(PsmpiError::NoRoute {
                src: src.node,
                dst: dst.node,
            }),
        }
    }

    // ---- fault state ----

    /// Declare `node` dead as of virtual time `at` and wake every blocked
    /// receiver so abortable receives re-check. Called by the victim's own
    /// rank thread *after* it deposited all its sends — that ordering is
    /// what makes match-vs-abort deterministic.
    ///
    /// A declaration at or before an endpoint's `repaired` is spent for
    /// it ([`Router::declared_death`]): a rank of a lost world may declare
    /// its death after the supervisor repaired the node for the next
    /// world, and that world's endpoints on the node are alive. Each
    /// declaration is kept, so a later death of the node still counts.
    ///
    /// The `any_dead` release store happens before any mailbox interrupt: a
    /// receiver woken by the interrupt acquires its mailbox lock after the
    /// interrupter released it, so it observes the flag (and therefore the
    /// death) when it re-evaluates its abort condition.
    pub fn declare_down(&self, node: NodeId, at: SimTime) {
        {
            let mut dead = self.dead_nodes.lock();
            dead.insert((node, at));
            self.any_dead.store(true, Ordering::Release);
        }
        // Snapshot each shard's mailboxes before interrupting: `interrupt`
        // takes a mailbox `state` lock (rank 410), which must not happen
        // under a shard guard (rank 420). Worse than the rank inversion, a
        // blocked receiver holds its `state` while its dead-check takes a
        // shard read — and std's writer-priority RwLock turns the
        // two read sides plus one queued writer into a deadlock.
        for shard in &self.endpoints {
            let mailboxes: Vec<Arc<Mailbox>> = {
                let guard = shard.read();
                guard.values().map(|entry| entry.mailbox.clone()).collect()
            };
            for mailbox in mailboxes {
                mailbox.interrupt();
            }
        }
    }

    /// Clear the death declarations of `node` (repaired at `at`). Sends to
    /// endpoints registered afterwards treat planned faults at or before
    /// `at` as spent.
    pub fn repair(&self, node: NodeId, at: SimTime) {
        {
            let mut dead = self.dead_nodes.lock();
            dead.retain(|&(n, _)| n != node);
            self.any_dead.store(!dead.is_empty(), Ordering::Release);
        }
        let mut reps = self.repairs.write();
        let r = reps.entry(node).or_insert(at);
        *r = (*r).max(at);
    }

    /// The declared death of `entry`'s endpoint: the earliest declared
    /// death of its node after the repair frozen into the entry, so a
    /// repeat or later declaration cannot move it. Lock-free `None` while
    /// no node in the universe is declared dead — the common case on every
    /// blocking receive.
    pub fn declared_death(&self, entry: &EndpointEntry) -> Option<SimTime> {
        if !self.any_dead.load(Ordering::Acquire) {
            return None;
        }
        let dead = self.dead_nodes.lock();
        dead.iter()
            .find(|&&(n, at)| n == entry.node && entry.repaired.is_none_or(|r| at > r))
            .map(|&(_, at)| at)
    }

    /// Record a finished rank.
    pub fn record_outcome(&self, outcome: RankOutcome) {
        let mut outcomes = self.outcomes.lock();
        outcomes.push(outcome);
    }

    /// Attach an observability recorder; ranks created afterwards get a
    /// track each and emit runtime spans automatically.
    pub fn attach_obs(&self, recorder: obs::Recorder) {
        let mut obs = self.obs.lock();
        *obs = Some(recorder);
    }

    /// The attached recorder, if any.
    pub fn obs_recorder(&self) -> Option<obs::Recorder> {
        let obs = self.obs.lock();
        obs.clone()
    }

    /// Node kind of an endpoint's node (labels obs tracks).
    pub fn kind_of(&self, ep: EndpointId) -> hwmodel::NodeKind {
        self.entry(ep)
            .ok()
            .and_then(|e| e.spec.as_ref().map(|s| s.kind))
            .unwrap_or(hwmodel::NodeKind::Cluster)
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the wake-up races under test need real rank threads racing a real mailbox"
)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use hwmodel::presets::deep_er_cluster_node;
    use simnet::Topology;

    fn router() -> Arc<Router> {
        let mut t = Topology::new();
        t.add_nodes(2, &deep_er_cluster_node());
        Router::new(Fabric::new(t))
    }

    impl Mailbox {
        /// A receive that watches no sender, so it cannot abort.
        fn recv_match(&self, comm: CommId, src: Option<usize>, tag: Option<Tag>) -> Envelope {
            self.park_until(
                comm,
                None,
                || None,
                |s| s.find(comm, src, tag).map(|arrival| s.take(arrival)),
            )
            .expect("a wait that watches nobody cannot abort")
        }
    }

    /// Declared death of `ep`, looked up through the endpoint table (a
    /// shard read under whatever the caller holds).
    fn dead_node_of(r: &Router, ep: EndpointId) -> Option<(NodeId, SimTime)> {
        let entry = r.entry(ep).ok()?;
        r.declared_death(&entry).map(|at| (entry.node(), at))
    }

    fn env(comm: u64, src_rank: usize, tag: Tag, seq: u64) -> Envelope {
        Envelope {
            comm: CommId(comm),
            src_rank,
            tag,
            payload: Bytes::from_static(b"x"),
            send_stamp: SimTime::ZERO,
            src_endpoint: EndpointId(0),
            seq,
            virtual_size: None,
        }
    }

    #[test]
    fn endpoint_registration() {
        let r = router();
        let a = r.register_endpoint(NodeId(0));
        let b = r.register_endpoint(NodeId(1));
        assert_ne!(a, b);
        assert_eq!(r.entry(a).unwrap().node(), NodeId(0));
        assert_eq!(r.entry(b).unwrap().node(), NodeId(1));
        assert!(r.entry(a).unwrap().mailbox().is_empty());
    }

    #[test]
    fn stale_endpoint_is_an_error_not_a_panic() {
        let r = router();
        let bogus = EndpointId(9999);
        assert!(matches!(
            r.entry(bogus),
            Err(PsmpiError::UnknownEndpoint(9999))
        ));
        assert!(matches!(
            r.deliver(bogus, env(1, 0, 0, 0)),
            Err(PsmpiError::UnknownEndpoint(9999))
        ));
        // Lookups stay usable after the error (no poisoning).
        let a = r.register_endpoint(NodeId(0));
        assert!(r.entry(a).is_ok());
    }

    #[test]
    fn declare_down_and_repair_roundtrip() {
        let r = router();
        let a = r.register_endpoint(NodeId(0));
        assert_eq!(dead_node_of(&r, a), None);
        r.declare_down(NodeId(0), SimTime::from_secs(2.0));
        assert_eq!(
            dead_node_of(&r, a),
            Some((NodeId(0), SimTime::from_secs(2.0)))
        );
        // The earliest declaration wins: a later one cannot move the death
        // time.
        r.declare_down(NodeId(0), SimTime::from_secs(9.0));
        assert_eq!(
            dead_node_of(&r, a),
            Some((NodeId(0), SimTime::from_secs(2.0)))
        );
        r.repair(NodeId(0), SimTime::from_secs(3.0));
        assert_eq!(dead_node_of(&r, a), None);
    }

    #[test]
    fn a_declaration_spent_by_the_endpoints_repair_does_not_abort_it() {
        let r = router();
        let secs = SimTime::from_secs;
        let lost = r.register_endpoint(NodeId(1));
        r.repair(NodeId(1), secs(3.0));
        let respawned = r.register_endpoint(NodeId(1));
        // The lost world's victim declares its death after the repair: its
        // own world sees it, the respawned endpoint on the node does not...
        r.declare_down(NodeId(1), secs(2.0));
        assert_eq!(dead_node_of(&r, lost), Some((NodeId(1), secs(2.0))));
        assert_eq!(dead_node_of(&r, respawned), None);
        r.declare_down(NodeId(1), secs(3.0));
        assert_eq!(dead_node_of(&r, respawned), None, "at the repair is spent");
        // ...and a death after the repair aborts it, the spent declarations
        // notwithstanding.
        r.declare_down(NodeId(1), secs(4.0));
        assert_eq!(dead_node_of(&r, respawned), Some((NodeId(1), secs(4.0))));
        assert_eq!(dead_node_of(&r, lost), Some((NodeId(1), secs(2.0))));
        let mb = r
            .entry(r.register_endpoint(NodeId(0)))
            .unwrap()
            .mailbox()
            .clone();
        let res =
            mb.recv_match_abortable(CommId(1), Some(0), Some(5), || dead_node_of(&r, respawned));
        assert!(matches!(res, Err(RecvAbort::Dead(NodeId(1), at)) if at == secs(4.0)));
    }

    #[test]
    fn planned_dead_respects_plan_and_repairs() {
        let r = router();
        let plan = FaultPlan::from_node_faults([(SimTime::from_secs(5.0), NodeId(1))]);
        let dead = |ep, t| r.entry(ep).unwrap().planned_dead(&plan, t);
        let (on0, on1) = (
            r.register_endpoint(NodeId(0)),
            r.register_endpoint(NodeId(1)),
        );
        let secs = SimTime::from_secs;
        assert_eq!(dead(on1, secs(4.9)), None);
        assert_eq!(dead(on1, secs(5.0)), Some(secs(5.0)));
        assert_eq!(dead(on0, secs(9.0)), None);
        // After a repair at/after the fault time, the fault is spent for
        // endpoints registered since...
        r.repair(NodeId(1), secs(6.0));
        let respawned = r.register_endpoint(NodeId(1));
        assert_eq!(dead(respawned, secs(7.0)), None);
        // ...but not for one of the world that lost the node: a rank still
        // running there sees its peer dead whether or not the repair has
        // happened yet on the host.
        assert_eq!(dead(on1, secs(7.0)), Some(secs(5.0)));
    }

    #[test]
    fn abortable_recv_prefers_real_message_over_marker() {
        let m = Mailbox::default();
        // Sender deposits a real message, then its revoke marker (program
        // order on the sender's thread).
        m.push(env(1, 0, 5, 0));
        let mut marker = env(1, 0, crate::envelope::TAG_REVOKED, 1);
        marker.payload = Bytes::from_static(b"m");
        m.push(marker);
        let got = m
            .recv_match_abortable(CommId(1), Some(0), Some(5), || None)
            .expect("real message wins");
        assert_eq!(got.seq, 0);
        // Next receive from the same sender aborts on the (peeked) marker…
        let aborted = m.recv_match_abortable(CommId(1), Some(0), Some(5), || None);
        assert!(matches!(aborted, Err(RecvAbort::Revoked(_))));
        // …and the marker is still there for the one after that.
        let again = m.recv_match_abortable(CommId(1), Some(0), Some(7), || None);
        assert!(matches!(again, Err(RecvAbort::Revoked(_))));
    }

    #[test]
    fn abortable_recv_aborts_on_declared_dead_sender() {
        let m = Mailbox::default();
        let dead = || Some((NodeId(3), SimTime::from_secs(1.5)));
        let aborted = m.recv_match_abortable(CommId(1), Some(0), Some(5), dead);
        match aborted {
            Err(RecvAbort::Dead(node, at)) => {
                assert_eq!(node, NodeId(3));
                assert_eq!(at, SimTime::from_secs(1.5));
            }
            other => panic!("expected dead abort, got {other:?}"),
        }
        // A queued matching envelope still wins over the dead flag.
        m.push(env(1, 0, 5, 0));
        let got = m.recv_match_abortable(CommId(1), Some(0), Some(5), dead);
        assert!(got.is_ok());
    }

    #[test]
    fn declared_dead_wakes_blocked_receiver() {
        let r = router();
        let a = r.register_endpoint(NodeId(0));
        let b = r.register_endpoint(NodeId(1));
        let mb = r.entry(a).unwrap().mailbox().clone();
        let r2 = r.clone();
        let h = std::thread::spawn(move || {
            mb.recv_match_abortable(CommId(1), Some(0), Some(5), || dead_node_of(&r2, b))
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        r.declare_down(NodeId(1), SimTime::from_secs(1.0));
        let res = h.join().unwrap();
        assert!(matches!(res, Err(RecvAbort::Dead(_, _))));
    }

    /// The message of `f`'s panic.
    #[cfg(debug_assertions)]
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("expected a lock-order panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default()
    }

    /// A receiver's dead-check takes an `endpoints` shard (rank 420) and
    /// `dead_nodes` (430) under its mailbox `state` (410): that ascends.
    /// The reverse shape, a mailbox interrupted under a shard guard (the
    /// deadlock of DESIGN.md §3.8), panics naming both sites.
    #[cfg(debug_assertions)]
    #[test]
    fn receiver_side_order_passes_and_interrupt_under_a_shard_panics() {
        let r = router();
        let a = r.register_endpoint(NodeId(0));
        let b = r.register_endpoint(NodeId(1));
        r.declare_down(NodeId(1), SimTime::from_secs(1.0));
        let mb = r.entry(a).unwrap().mailbox().clone();
        let res = mb.recv_match_abortable(CommId(1), Some(0), Some(5), || dead_node_of(&r, b));
        assert!(matches!(res, Err(RecvAbort::Dead(_, _))));

        let (shard, shard_at) = (r.endpoints[shard_of(a)].read(), line!());
        let msg = panic_message(|| shard[&a].mailbox().interrupt());
        assert!(msg.contains(&format!("{}:{shard_at}:", file!())), "{msg}");
        assert!(msg.contains("MailboxState (rank 410)"), "{msg}");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn a_receive_under_a_ranked_guard_panics() {
        let m = Mailbox::default();
        m.push(env(1, 0, 5, 0));
        let seen = lockrank::Mutex::<Vec<u64>, 900>::new(Vec::new());
        let mut seen = seen.lock();
        let msg = panic_message(|| seen.push(m.recv_match(CommId(1), Some(0), Some(5)).seq));
        assert!(msg.contains("blocking wait"), "{msg}");
    }

    #[test]
    fn comm_ids_unique() {
        let r = router();
        assert_ne!(r.alloc_comm(), r.alloc_comm());
    }

    #[test]
    fn mailbox_fifo_per_sender() {
        let m = Mailbox::default();
        m.push(env(1, 0, 5, 0));
        m.push(env(1, 0, 5, 1));
        let first = m.recv_match(CommId(1), Some(0), Some(5));
        let second = m.recv_match(CommId(1), Some(0), Some(5));
        assert_eq!(first.seq, 0);
        assert_eq!(second.seq, 1);
    }

    #[test]
    fn mailbox_matching_skips_nonmatching() {
        let m = Mailbox::default();
        m.push(env(1, 0, 5, 0));
        m.push(env(1, 1, 9, 1));
        let got = m.recv_match(CommId(1), Some(1), Some(9));
        assert_eq!(got.src_rank, 1);
        assert_eq!(m.len(), 1, "the non-matching envelope stays queued");
    }

    #[test]
    fn probe_does_not_dequeue() {
        let m = Mailbox::default();
        m.push(env(2, 3, 4, 0));
        let p = m.probe_match(CommId(2), None, None).unwrap();
        assert_eq!(p.0, 3);
        assert_eq!(p.1, 4);
        assert_eq!(m.len(), 1);
        assert!(m.probe_match(CommId(3), None, None).is_none());
    }

    #[test]
    fn recv_blocks_until_push() {
        let m = Arc::new(Mailbox::default());
        let m2 = m.clone();
        let h = std::thread::spawn(move || m2.recv_match(CommId(1), None, None));
        std::thread::sleep(std::time::Duration::from_millis(20));
        m.push(env(1, 0, 0, 0));
        let got = h.join().unwrap();
        assert_eq!(got.comm, CommId(1));
    }

    #[test]
    fn exact_match_stays_fifo_in_deep_mailbox() {
        // Interleave three (src, tag) classes deeply, then drain one class
        // through the exact-match index: arrivals must come back in send
        // order even with thousands of non-matching envelopes queued.
        let m = Mailbox::default();
        for i in 0..3000u64 {
            m.push(env(1, (i % 3) as usize, 5, i));
        }
        for i in 0..1000u64 {
            let got = m.recv_match(CommId(1), Some(1), Some(5));
            assert_eq!(got.seq, 3 * i + 1);
        }
        assert_eq!(m.len(), 2000, "other classes stay queued");
    }

    #[test]
    fn wildcard_after_exact_removal_sees_arrival_order() {
        let m = Mailbox::default();
        m.push(env(1, 0, 5, 0));
        m.push(env(1, 1, 6, 1));
        m.push(env(1, 0, 5, 2));
        // Exact-match removal from the middle of the queue…
        let got = m.recv_match(CommId(1), Some(1), Some(6));
        assert_eq!(got.seq, 1);
        // …must not disturb wildcard arrival order across the tombstone.
        assert_eq!(m.recv_match(CommId(1), None, None).seq, 0);
        assert_eq!(m.recv_match(CommId(1), None, None).seq, 2);
        assert!(m.is_empty());
    }

    #[test]
    fn wildcard_removal_keeps_index_exact() {
        let m = Mailbox::default();
        m.push(env(1, 0, 5, 0));
        m.push(env(1, 0, 5, 1));
        // A wildcard receive consumes the earliest of the (0, 5) class…
        assert_eq!(m.recv_match(CommId(1), None, None).seq, 0);
        // …so the exact-match index must now resolve to the next one.
        assert_eq!(m.recv_match(CommId(1), Some(0), Some(5)).seq, 1);
    }

    #[test]
    fn emptied_classes_stay_indexed_up_to_a_bound() {
        let m = Mailbox::default();
        for seq in 0..3 {
            m.push(env(1, 0, 5, seq));
            assert_eq!(m.recv_match(CommId(1), Some(0), Some(5)).seq, seq);
            assert_eq!(
                m.state.lock().index.len(),
                1,
                "the class outlives its message"
            );
        }
        let tags = 0..=RETAINED_CLASSES as Tag;
        for tag in tags.clone() {
            m.push(env(1, 0, tag, 0));
        }
        for tag in tags {
            assert_eq!(m.recv_match(CommId(1), Some(0), Some(tag)).tag, tag);
        }
        assert!(m.is_empty());
        let kept = m.state.lock().index.len();
        assert_eq!(kept, RETAINED_CLASSES, "the one class over the bound went");
    }

    #[test]
    fn probe_blocking_either_picks_earliest_arrival() {
        let m = Mailbox::default();
        m.push(env(1, 0, 8, 0));
        m.push(env(1, 0, 7, 1));
        let either = || {
            m.probe_blocking_either(CommId(1), 0, 7, 8, || None)
                .unwrap()
        };
        assert_eq!(either(), 8);
        m.recv_match(CommId(1), Some(0), Some(8));
        assert_eq!(either(), 7);
    }

    #[test]
    fn probes_abort_like_receives() {
        let m = Mailbox::default();
        let dead = || Some((NodeId(3), SimTime::from_secs(1.5)));
        // Nothing queued and the sender's node is down: the probe gives up.
        let either = m.probe_blocking_either(CommId(1), 0, 7, 8, dead);
        assert!(matches!(either, Err(RecvAbort::Dead(NodeId(3), _))));
        // A revoke marker from the sender ranks before the dead check…
        m.push(env(1, 0, crate::envelope::TAG_REVOKED, 0));
        let either = m.probe_blocking_either(CommId(1), 0, 7, 8, dead);
        assert!(matches!(either, Err(RecvAbort::Revoked(_))));
        // …and a queued match before both.
        m.push(env(1, 0, 7, 1));
        assert_eq!(
            m.probe_blocking_either(CommId(1), 0, 7, 8, dead).unwrap(),
            7
        );
        assert_eq!(m.len(), 2, "probes dequeue nothing");
    }

    #[test]
    fn spin_only_while_every_awake_rank_can_have_a_core() {
        assert!(spin_before_sleep(2, 2));
        assert!(!spin_before_sleep(3, 2));
        assert!(spin_before_sleep(1, 1));
        assert!(!spin_before_sleep(2, 1));
        assert!(!spin_before_sleep(1000, 2));
        // A stand-alone mailbox parked on by a non-rank thread counts below
        // zero; that is "nobody competes".
        assert!(spin_before_sleep(0, 1));
        assert!(spin_before_sleep(-1, 1));
    }

    #[test]
    fn a_sleeper_leaves_the_awake_count_until_it_is_notified() {
        let r = router();
        let mb = r
            .entry(r.register_endpoint(NodeId(0)))
            .unwrap()
            .mailbox()
            .clone();
        let m2 = mb.clone();
        let h = std::thread::spawn(move || m2.recv_match(CommId(1), Some(0), Some(5)));
        // Spin budget spent, the receiver (no rank thread: it counts from
        // zero) goes to sleep and leaves the count.
        let asleep = || r.awake_ranks() == -1 && mb.state.lock().asleep == 1;
        while !asleep() {
            std::thread::yield_now();
        }
        // Whoever notifies it first counts it awake on the spot, once: it
        // cannot have run yet, for that it needs the lock held here.
        {
            let mut s = mb.state.lock();
            assert!(mb.signal(&mut s));
            assert!(!mb.signal(&mut s));
            assert_eq!(r.awake_ranks(), 0);
            assert_eq!(s.asleep, 0);
        }
        while !asleep() {
            std::thread::yield_now();
        }
        // A deposit it cannot match wakes it all the same; it misses, sleeps
        // again (the queue now holds one), and the match wakes it for good.
        mb.push(env(1, 0, 6, 0));
        while !(asleep() && mb.len() == 1) {
            std::thread::yield_now();
        }
        mb.push(env(1, 0, 5, 1));
        assert_eq!(h.join().unwrap().seq, 1);
        assert_eq!(r.awake_ranks(), 0);
        assert_eq!(mb.state.lock().asleep, 0);
    }

    #[test]
    fn deposits_notify_a_sleeper_once_until_it_sleeps_again() {
        const K: u64 = 5;
        let r = router();
        let mb = r
            .entry(r.register_endpoint(NodeId(0)))
            .unwrap()
            .mailbox()
            .clone();
        let m2 = mb.clone();
        let h = std::thread::spawn(move || m2.recv_match(CommId(1), Some(0), Some(5)));
        while !(r.awake_ranks() == -1 && mb.state.lock().asleep == 1) {
            std::thread::yield_now();
        }
        // K deposits land before the sleeper can run (it needs the lock held
        // here): the first notifies and counts it awake, the rest do neither.
        // Only the last one matches.
        {
            let mut s = mb.state.lock();
            let notified: Vec<bool> = (0..K)
                .map(|i| {
                    let tag = if i == K - 1 { 5 } else { 6 };
                    mb.deposit(&mut s, env(1, 0, tag, i))
                })
                .collect();
            assert_eq!(notified, [true, false, false, false, false]);
            assert_eq!(r.awake_ranks(), 0, "counted awake exactly once");
            assert_eq!(s.asleep, 0);
        }
        // The last deposit was the match: one wake-up served the batch.
        assert_eq!(h.join().unwrap().seq, K - 1);
        assert_eq!(r.awake_ranks(), 0);
        assert_eq!(mb.len(), K as usize - 1);
    }

    #[test]
    fn transfer_time_positive() {
        let r = router();
        let a = r.register_endpoint(NodeId(0));
        let b = r.register_endpoint(NodeId(1));
        let (a, b) = (r.entry(a).unwrap(), r.entry(b).unwrap());
        assert!(r.transfer_time_between(&a, &b, 1024).unwrap() > SimTime::ZERO);
    }

    #[test]
    fn entry_handles_are_stable_and_cacheable() {
        let r = router();
        let a = r.register_endpoint(NodeId(0));
        let e1 = r.entry(a).unwrap();
        let e2 = r.entry(a).unwrap();
        assert!(Arc::ptr_eq(&e1, &e2), "repeated lookups hit the same entry");
        assert_eq!(e1.node(), NodeId(0));
        assert!(e1.mailbox().is_empty());
        assert!(matches!(
            r.entry(EndpointId(424242)),
            Err(PsmpiError::UnknownEndpoint(424242))
        ));
    }

    #[test]
    fn endpoints_spread_across_shards_and_stay_reachable() {
        // More endpoints than shards: every one must keep resolving, and
        // declare_down must reach (interrupt) all of them without panicking.
        let mut t = Topology::new();
        t.add_nodes(4, &deep_er_cluster_node());
        let r = Router::new(Fabric::new(t));
        let eps: Vec<EndpointId> = (0..(ENDPOINT_SHARDS as u32 * 3))
            .map(|i| r.register_endpoint(NodeId(i % 4)))
            .collect();
        for &ep in &eps {
            assert!(r.entry(ep).is_ok());
        }
        r.declare_down(NodeId(2), SimTime::from_secs(1.0));
        for &ep in &eps {
            let entry = r.entry(ep).unwrap();
            let dead = r.declared_death(&entry);
            assert_eq!(dead.is_some(), entry.node() == NodeId(2));
        }
    }

    #[test]
    fn dead_check_is_lock_free_when_nothing_is_dead() {
        let r = router();
        let a = r.register_endpoint(NodeId(0));
        // No declaration yet: the fast flag short-circuits.
        assert_eq!(dead_node_of(&r, a), None);
        r.declare_down(NodeId(0), SimTime::from_secs(1.0));
        assert_eq!(
            dead_node_of(&r, a),
            Some((NodeId(0), SimTime::from_secs(1.0)))
        );
        r.repair(NodeId(0), SimTime::from_secs(2.0));
        // Repairing the only dead node re-arms the fast path.
        assert!(!r.any_dead.load(Ordering::Acquire));
        assert_eq!(dead_node_of(&r, a), None);
    }
}
