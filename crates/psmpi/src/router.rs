//! The matching engine: per-endpoint mailboxes and shared universe state.
//!
//! Sends never block (buffered semantics — the sender deposits the envelope
//! into the receiver's mailbox and moves on, as with small/eager messages in
//! a real MPI; this also makes naive exchange loops deadlock-free). Receives
//! wait in one loop, `Mailbox::park_until`: a short spin on the arrival
//! counter, then a sleep on a condition variable that depositors signal only
//! while someone sleeps (DESIGN.md §3.7).

use crate::comm::CommId;
use crate::envelope::{EndpointId, Envelope, Tag};
use crate::pool::BufferPool;
use crate::rank::PsmpiError;
use bytes::Bytes;
use hwmodel::{NodeId, SimTime};
use parking_lot::{Condvar, Mutex, RwLock};
use simnet::Fabric;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
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
#[derive(Default)]
struct MailboxState {
    slots: VecDeque<Option<Envelope>>,
    /// Arrival number of `slots[0]`.
    base: u64,
    /// Exact-match index; only ever *looked up* by key, never iterated,
    /// so hash order cannot influence matching (determinism contract).
    index: HashMap<(CommId, usize, Tag), VecDeque<u64>>,
    /// Number of live (non-tombstone) envelopes.
    live: usize,
    /// Receivers inside `cv.wait`; while there is one, a deposit notifies.
    parked: usize,
    /// Those of them nothing has notified since they went to sleep; the
    /// others count as awake again (see [`Mailbox::signal`]).
    asleep: usize,
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
        if class.is_empty() {
            self.index.remove(&key);
        }
        // Compact tombstones: always from the front, wholesale when the
        // queue drained (arrival numbers in `index` stay valid because the
        // map is empty whenever `live` is zero).
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
    state: Mutex<MailboxState>, // lock-order: 10
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
        crate::lock_witness!("psmpi.state");
        let arrival = s.base + s.slots.len() as u64;
        s.index
            .entry((env.comm, env.src_rank, env.tag))
            .or_default()
            .push_back(arrival);
        s.slots.push_back(Some(env));
        s.live += 1;
        self.signal(&mut s);
    }

    /// Make a receiver re-evaluate its abort conditions (called on every
    /// mailbox when a node is declared down).
    pub fn interrupt(&self) {
        let mut s = self.state.lock();
        crate::lock_witness!("psmpi.state");
        self.signal(&mut s);
    }

    /// Publish a change, lock held: a spinner sees the counter move, and
    /// a receiver inside `cv.wait` is notified. Nobody in there, no
    /// `notify`: under the `std::sync` shim that is a `futex` syscall
    /// whether or not anyone waits. The first notify after a receiver went
    /// to sleep also counts it awake again: it wants a core from now on,
    /// not from when it gets one, and a spinner must not take it. (Later
    /// deposits notify it again until it has run; skipping those is
    /// ROADMAP item 2's ring leg.)
    fn signal(&self, s: &mut MailboxState) {
        self.arrivals.fetch_add(1, Ordering::Release);
        if s.parked > 0 {
            let woken = std::mem::take(&mut s.asleep);
            self.awake.fetch_add(woken as isize, Ordering::AcqRel);
            self.cv.notify_all();
        }
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
    /// `parked` rises under the lock a depositor holds, so no wake-up is
    /// lost. None of this reads or moves a virtual clock.
    fn park_until<T>(
        &self,
        comm: CommId,
        watched: Option<usize>,
        dead: impl Fn() -> Option<(NodeId, SimTime)>,
        mut hit: impl FnMut(&mut MailboxState) -> Option<T>,
    ) -> Result<T, RecvAbort> {
        let mut spun = false;
        loop {
            let seen = {
                let mut s = self.state.lock();
                crate::lock_witness!("psmpi.state");
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
                    s.parked += 1;
                    s.asleep += 1;
                    self.awake.fetch_sub(1, Ordering::AcqRel);
                    self.cv.wait(&mut s);
                    s.parked -= 1;
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
    /// remove and return it. Envelopes from the same sender are matched in
    /// send order (MPI non-overtaking): both the index deques and the slot
    /// queue are in arrival order, and one sender's arrivals are ordered.
    pub fn recv_match(&self, comm: CommId, src: Option<usize>, tag: Option<Tag>) -> Envelope {
        self.park_until(
            comm,
            None,
            || None,
            |s| s.find(comm, src, tag).map(|arrival| s.take(arrival)),
        )
        .expect("a wait that watches nobody cannot abort")
    }

    /// Like [`Mailbox::recv_match`], but gives up when the awaited sender
    /// is known never to deliver: a queued match first, then that sender's
    /// revoke marker, then `dead()` reporting its node declared down.
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

    /// Like [`Mailbox::recv_match`] but non-blocking: peek metadata without
    /// dequeuing.
    pub fn probe_match(
        &self,
        comm: CommId,
        src: Option<usize>,
        tag: Option<Tag>,
    ) -> Option<Probed> {
        let s = self.state.lock();
        crate::lock_witness!("psmpi.state");
        s.peek_match(comm, src, tag)
    }

    /// Blocking probe: wait until a matching envelope is queued and return
    /// its metadata without dequeuing (abortable).
    pub fn probe_blocking(
        &self,
        comm: CommId,
        src: Option<usize>,
        tag: Option<Tag>,
        dead: impl Fn() -> Option<(NodeId, SimTime)>,
    ) -> Result<Probed, RecvAbort> {
        self.park_until(comm, src, dead, |s| s.peek_match(comm, src, tag))
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
        crate::lock_witness!("psmpi.state");
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
    /// Virtual time the rank spent computing (vs communicating/waiting).
    pub compute_time: SimTime,
    /// Virtual time attributable to communication (clock advances in
    /// send/recv/collective calls).
    pub comm_time: SimTime,
    /// Energy-to-solution of this rank in Joules (two-state power model:
    /// compute at active power, everything else at idle power).
    pub energy_joules: f64,
}

/// Retry/backoff policy applied by senders to transient link faults: the
/// sender's virtual clock advances by a doubling backoff until the link
/// heals, the retry budget is spent ([`PsmpiError::LinkDown`]) or the total
/// wait exceeds the give-up bound ([`PsmpiError::Timeout`]).
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries before reporting the link dead.
    pub max_retries: u32,
    /// First backoff; doubles on each retry.
    pub base_backoff: SimTime,
    /// Total virtual wait after which the sender times out.
    pub give_up_after: SimTime,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 8,
            base_backoff: SimTime::from_micros(100.0),
            give_up_after: SimTime::from_secs(1.0),
        }
    }
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

/// One endpoint's routing record: its mailbox, host node, and private NIC
/// drain state. Everything except `nic_free` is immutable after
/// registration, so holders of an `Arc<EndpointEntry>` (each [`crate::Rank`]
/// caches the entries of its frequent peers) read it without any lock, and
/// NIC-timestamp bookkeeping contends only with senders targeting the *same*
/// endpoint — never with the other 999 ranks.
pub struct EndpointEntry {
    mailbox: Arc<Mailbox>,
    node: NodeId,
    /// Virtual time until which this endpoint's receive pipe is busy
    /// (opt-in incast model). Per-endpoint lock domain.
    nic_free: Mutex<SimTime>, // lock-order: 60
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
}

/// Shared state of a running universe.
///
/// Hot-path message delivery never takes a router-wide lock: the endpoint
/// table is sharded into [`ENDPOINT_SHARDS`] read-mostly lock domains,
/// NIC-drain bookkeeping lives on each [`EndpointEntry`], the dynamic dead
/// set is screened by a lock-free flag that is false for the whole run in
/// the fault-free case, and trace recording is screened the same way.
pub struct Router {
    fabric: Fabric,
    /// The endpoint table, sharded by endpoint id. Each shard is a
    /// BTreeMap (not HashMap): `declare_down` iterates the shards in index
    /// order and each map in key order to interrupt blocked receivers, and
    /// iteration in a virtual-time crate must be in a deterministic order
    /// (deepcheck D002). Entries are never removed, so cached
    /// `Arc<EndpointEntry>` handles can outlive the lookup.
    endpoints: [RwLock<BTreeMap<EndpointId, Arc<EndpointEntry>>>; ENDPOINT_SHARDS], // lock-order: 20
    /// Nodes declared down at run time, with their virtual death times.
    /// Written by the victim's own thread *after* it deposited all its
    /// sends; read by the abortable receive path.
    dead_nodes: Mutex<BTreeMap<NodeId, SimTime>>, // lock-order: 30
    /// Lock-free screen for `dead_nodes`: false means the set is empty and
    /// the per-receive dead check returns `None` without locking. Updated
    /// under the `dead_nodes` lock; the release store paired with the
    /// mailbox-interrupt handshake makes a blocked receiver re-check under
    /// a visible flag (see [`Router::declare_down`]).
    any_dead: AtomicBool,
    /// Last repair time per node. Consulted together with the static fault
    /// plan by senders: a planned death no later than the last repair is
    /// spent. Only ever written between child worlds (by the supervisor,
    /// before respawning), so the read lock senders take is uncontended.
    repairs: RwLock<BTreeMap<NodeId, SimTime>>, // lock-order: 32
    /// Sender-side retry/backoff configuration for transient link faults.
    retry: RwLock<RetryPolicy>, // lock-order: 34
    /// Optional message-trace sink (performance-analysis hook).
    trace: Mutex<Option<simnet::TraceCollector>>, // lock-order: 40
    /// Lock-free screen for `trace`: deliveries skip the trace lock
    /// entirely unless a collector was attached.
    trace_attached: AtomicBool,
    /// Optional span/counter recorder: when attached, every rank of every
    /// subsequent job registers an `obs` track and the runtime emits
    /// compute/send/recv/collective spans automatically.
    obs: Mutex<Option<obs::Recorder>>, // lock-order: 42
    next_endpoint: AtomicU64,
    next_comm: AtomicU64,
    /// Rank threads alive (`spawn_rank_thread` counts them in and out) and
    /// not asleep in a mailbox, shared with every mailbox. Host-side only:
    /// it gates the spin before a sleep and never reaches a virtual clock.
    pub(crate) awake: Arc<AtomicIsize>,
    /// Threads spawned dynamically (via `Rank::spawn`); joined at job end.
    pub(crate) child_handles: Mutex<Vec<JoinHandle<()>>>, // lock-order: 44
    /// Outcomes of completed ranks.
    pub(crate) outcomes: Mutex<Vec<RankOutcome>>, // lock-order: 46
    /// Fixed virtual cost of a `spawn` operation (process launch, remote
    /// boot, connection setup).
    pub spawn_latency: SimTime,
    /// Shared pool of retired encode buffers (see [`BufferPool`]).
    ///
    /// Behind an `Arc` so an embedding can keep one pool alive across
    /// router lifetimes ([`Router::with_pool`]): a long-running host that
    /// builds a universe per job would otherwise restart every job with a
    /// cold pool and re-fault megabyte-class staging buffers in.
    pool: Arc<BufferPool>,
}

impl Router {
    /// New router over a fabric, with a private buffer pool.
    pub fn new(fabric: Fabric) -> Arc<Self> {
        Self::with_pool(fabric, Arc::new(BufferPool::new()))
    }

    /// New router over a fabric, drawing encode buffers from `pool` (which
    /// may be shared with other routers or outlive this one).
    pub fn with_pool(fabric: Fabric, pool: Arc<BufferPool>) -> Arc<Self> {
        Arc::new(Router {
            fabric,
            endpoints: std::array::from_fn(|_| RwLock::new(BTreeMap::new())),
            dead_nodes: Mutex::new(BTreeMap::new()),
            any_dead: AtomicBool::new(false),
            repairs: RwLock::new(BTreeMap::new()),
            retry: RwLock::new(RetryPolicy::default()),
            trace: Mutex::new(None),
            trace_attached: AtomicBool::new(false),
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

    /// Rank threads of this universe that are alive and not asleep in a
    /// mailbox; 0 whenever no job runs.
    pub fn awake_ranks(&self) -> isize {
        self.awake.load(Ordering::Acquire)
    }

    /// Allocate a fresh endpoint bound to `node`.
    pub fn register_endpoint(&self, node: NodeId) -> EndpointId {
        let id = EndpointId(self.next_endpoint.fetch_add(1, Ordering::Relaxed));
        let entry = Arc::new(EndpointEntry {
            mailbox: Arc::new(Mailbox {
                awake: self.awake.clone(),
                ..Mailbox::default()
            }),
            node,
            nic_free: Mutex::new(SimTime::ZERO),
        });
        let mut shard = self.endpoints[shard_of(id)].write();
        crate::lock_witness!("psmpi.endpoints");
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
        crate::lock_witness!("psmpi.endpoints");
        shard
            .get(&ep)
            .cloned()
            .ok_or(PsmpiError::UnknownEndpoint(ep.0))
    }

    /// Mailbox of an endpoint (see [`Router::entry`]).
    pub fn mailbox(&self, ep: EndpointId) -> Result<Arc<Mailbox>, PsmpiError> {
        Ok(self.entry(ep)?.mailbox.clone())
    }

    /// Node an endpoint runs on.
    pub fn node_of(&self, ep: EndpointId) -> Result<NodeId, PsmpiError> {
        Ok(self.entry(ep)?.node)
    }

    /// Deliver an envelope to `dst`.
    pub fn deliver(&self, dst: EndpointId, env: Envelope) -> Result<(), PsmpiError> {
        self.entry(dst)?.mailbox.push(env);
        Ok(())
    }

    /// Fabric transfer time between the nodes of two endpoints.
    pub fn transfer_time(
        &self,
        src: EndpointId,
        dst: EndpointId,
        bytes: usize,
    ) -> Result<SimTime, PsmpiError> {
        let sn = self.node_of(src)?;
        let dn = self.node_of(dst)?;
        self.transfer_time_nodes(sn, dn, bytes)
    }

    /// [`Router::transfer_time`] with the nodes already resolved (the hot
    /// receive path caches endpoint entries and skips the table lookups).
    pub fn transfer_time_nodes(
        &self,
        sn: NodeId,
        dn: NodeId,
        bytes: usize,
    ) -> Result<SimTime, PsmpiError> {
        self.fabric
            .p2p_time(sn, dn, bytes)
            .map_err(|_| PsmpiError::NoRoute { src: sn, dst: dn })
    }

    // ---- fault state ----

    /// The sender-side retry/backoff policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        let retry = self.retry.read();
        crate::lock_witness!("psmpi.retry");
        *retry
    }

    /// Replace the retry/backoff policy (call before launching ranks).
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        let mut retry = self.retry.write();
        crate::lock_witness!("psmpi.retry");
        *retry = policy;
    }

    /// Declare `node` dead as of virtual time `at` and wake every blocked
    /// receiver so abortable receives re-check. Called by the victim's own
    /// rank thread *after* it deposited all its sends — that ordering is
    /// what makes match-vs-abort deterministic.
    ///
    /// The `any_dead` release store happens before any mailbox interrupt: a
    /// receiver woken by the interrupt acquires its mailbox lock after the
    /// interrupter released it, so it observes the flag (and therefore the
    /// death) when it re-evaluates its abort condition.
    pub fn declare_down(&self, node: NodeId, at: SimTime) {
        {
            let mut dead = self.dead_nodes.lock();
            crate::lock_witness!("psmpi.dead_nodes");
            dead.entry(node).or_insert(at);
            self.any_dead.store(true, Ordering::Release);
        }
        // Snapshot each shard's mailboxes before interrupting: `interrupt`
        // takes a mailbox `state` lock (rank 10), which must not happen
        // under a shard guard (rank 20). Worse than the rank inversion, a
        // blocked receiver holds its `state` while its dead-check takes a
        // shard read — and parking_lot's writer-priority RwLock turns the
        // two read sides plus one queued writer into a deadlock.
        for shard in &self.endpoints {
            let mailboxes: Vec<Arc<Mailbox>> = {
                let guard = shard.read();
                crate::lock_witness!("psmpi.endpoints");
                guard.values().map(|entry| entry.mailbox.clone()).collect()
            };
            for mailbox in mailboxes {
                mailbox.interrupt();
            }
        }
    }

    /// Clear a death declaration (node repaired at `at`). Subsequent sends
    /// treat planned faults at or before `at` as spent.
    pub fn repair(&self, node: NodeId, at: SimTime) {
        {
            let mut dead = self.dead_nodes.lock();
            crate::lock_witness!("psmpi.dead_nodes");
            dead.remove(&node);
            self.any_dead.store(!dead.is_empty(), Ordering::Release);
        }
        let mut reps = self.repairs.write();
        crate::lock_witness!("psmpi.repairs");
        let r = reps.entry(node).or_insert(at);
        *r = (*r).max(at);
    }

    /// Death time of `node`, if it is currently declared down. Lock-free
    /// `None` while no node in the universe is dead — the common case on
    /// every blocking receive.
    pub fn dead_time_of(&self, node: NodeId) -> Option<SimTime> {
        if !self.any_dead.load(Ordering::Acquire) {
            return None;
        }
        let dead = self.dead_nodes.lock();
        crate::lock_witness!("psmpi.dead_nodes");
        dead.get(&node).copied()
    }

    /// Whether the static fault plan says `node` is dead as of virtual time
    /// `t` (and not repaired since). This is the *sender's* check: it reads
    /// only the immutable plan plus the repairs map (quiescent while ranks
    /// run), never the dynamic dead set, so the verdict depends only on the
    /// sender's virtual clock — deterministic across thread counts.
    pub fn planned_dead(&self, node: NodeId, t: SimTime) -> Option<SimTime> {
        let plan = self.fabric.fault_plan()?;
        let tf = plan.node_fault_at(node, t)?;
        let repaired = {
            let reps = self.repairs.read();
            crate::lock_witness!("psmpi.repairs");
            reps.get(&node).copied()
        };
        match repaired {
            Some(r) if tf <= r => None,
            _ => Some(tf),
        }
    }

    /// Record a finished rank.
    pub fn record_outcome(&self, outcome: RankOutcome) {
        let mut outcomes = self.outcomes.lock();
        crate::lock_witness!("psmpi.outcomes");
        outcomes.push(outcome);
    }

    /// Attach a trace collector; every subsequent delivery is recorded.
    pub fn attach_trace(&self, collector: simnet::TraceCollector) {
        let mut trace = self.trace.lock();
        crate::lock_witness!("psmpi.trace");
        *trace = Some(collector);
        self.trace_attached.store(true, Ordering::Release);
    }

    /// Attach an observability recorder; ranks created afterwards get a
    /// track each and emit runtime spans automatically.
    pub fn attach_obs(&self, recorder: obs::Recorder) {
        let mut obs = self.obs.lock();
        crate::lock_witness!("psmpi.obs");
        *obs = Some(recorder);
    }

    /// The attached recorder, if any.
    pub fn obs_recorder(&self) -> Option<obs::Recorder> {
        let obs = self.obs.lock();
        crate::lock_witness!("psmpi.obs");
        obs.clone()
    }

    /// Node kind of an endpoint's node (labels obs tracks).
    pub fn kind_of(&self, ep: EndpointId) -> hwmodel::NodeKind {
        self.node_of(ep)
            .ok()
            .and_then(|n| self.fabric.node(n).ok())
            .map(|n| n.kind)
            .unwrap_or(hwmodel::NodeKind::Cluster)
    }

    /// Record a delivery into the attached trace, if any. The nodes come
    /// pre-resolved from the receive path's cached endpoint entries; when
    /// no collector was ever attached this is a single relaxed-atomic read.
    pub fn trace_delivery(
        &self,
        src_node: NodeId,
        dst_node: NodeId,
        bytes: usize,
        depart: SimTime,
        arrive: SimTime,
    ) {
        if !self.trace_attached.load(Ordering::Acquire) {
            return;
        }
        let guard = self.trace.lock();
        crate::lock_witness!("psmpi.trace");
        let Some(collector) = guard.as_ref() else {
            return;
        };
        let src_kind = self
            .fabric
            .node(src_node)
            .map(|n| n.kind)
            .unwrap_or(hwmodel::NodeKind::Cluster);
        let dst_kind = self
            .fabric
            .node(dst_node)
            .map(|n| n.kind)
            .unwrap_or(hwmodel::NodeKind::Cluster);
        collector.record(simnet::TraceEvent {
            src: src_node,
            dst: dst_node,
            src_kind,
            dst_kind,
            bytes,
            depart,
            arrive,
        });
    }

    /// Apply the (opt-in) incast model to a message delivered to `dst` with
    /// network arrival time `arrival`: the receiver's NIC drains one
    /// payload at a time, so simultaneous arrivals serialize. Returns the
    /// adjusted completion time. The drain timestamp lives on the
    /// endpoint's own entry, so ranks never contend on a router-wide lock
    /// here — only concurrent senders into the *same* endpoint serialize.
    pub fn incast_adjust(&self, dst: &EndpointEntry, arrival: SimTime, bytes: usize) -> SimTime {
        if !self.fabric.model().model_incast {
            return arrival;
        }
        let drain = SimTime::from_secs(bytes as f64 / self.fabric.model().payload_bw);
        let mut free = dst.nic_free.lock();
        crate::lock_witness!("psmpi.nic_free");
        let completion = arrival.max(*free + drain);
        *free = completion;
        completion
    }
}

#[cfg(test)]
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

    /// Death time of the node hosting `ep`, looked up through the endpoint
    /// table (a shard read under whatever the caller holds).
    fn dead_node_of(r: &Router, ep: EndpointId) -> Option<(NodeId, SimTime)> {
        let node = r.node_of(ep).ok()?;
        r.dead_time_of(node).map(|at| (node, at))
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
        assert_eq!(r.node_of(a).unwrap(), NodeId(0));
        assert_eq!(r.node_of(b).unwrap(), NodeId(1));
        assert!(r.mailbox(a).unwrap().is_empty());
    }

    #[test]
    fn stale_endpoint_is_an_error_not_a_panic() {
        let r = router();
        let bogus = EndpointId(9999);
        assert!(matches!(
            r.mailbox(bogus),
            Err(PsmpiError::UnknownEndpoint(9999))
        ));
        assert!(matches!(
            r.node_of(bogus),
            Err(PsmpiError::UnknownEndpoint(9999))
        ));
        assert!(matches!(
            r.deliver(bogus, env(1, 0, 0, 0)),
            Err(PsmpiError::UnknownEndpoint(9999))
        ));
        let a = r.register_endpoint(NodeId(0));
        assert!(matches!(
            r.transfer_time(a, bogus, 64),
            Err(PsmpiError::UnknownEndpoint(9999))
        ));
        // Lookups stay usable after the error (no poisoning).
        assert!(r.mailbox(a).is_ok());
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
        // First declaration wins: a repeat cannot move the death time.
        r.declare_down(NodeId(0), SimTime::from_secs(9.0));
        assert_eq!(
            dead_node_of(&r, a),
            Some((NodeId(0), SimTime::from_secs(2.0)))
        );
        r.repair(NodeId(0), SimTime::from_secs(3.0));
        assert_eq!(dead_node_of(&r, a), None);
    }

    #[test]
    fn planned_dead_respects_plan_and_repairs() {
        let r = router();
        r.fabric()
            .set_fault_plan(simnet::FaultPlan::from_node_faults([(
                SimTime::from_secs(5.0),
                NodeId(1),
            )]));
        assert_eq!(r.planned_dead(NodeId(1), SimTime::from_secs(4.9)), None);
        assert_eq!(
            r.planned_dead(NodeId(1), SimTime::from_secs(5.0)),
            Some(SimTime::from_secs(5.0))
        );
        assert_eq!(r.planned_dead(NodeId(0), SimTime::from_secs(9.0)), None);
        // After a repair at/after the fault time, the fault is spent.
        r.repair(NodeId(1), SimTime::from_secs(6.0));
        assert_eq!(r.planned_dead(NodeId(1), SimTime::from_secs(7.0)), None);
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
        let mb = r.mailbox(a).unwrap();
        let r2 = r.clone();
        let h = std::thread::spawn(move || {
            mb.recv_match_abortable(CommId(1), Some(0), Some(5), || dead_node_of(&r2, b))
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        r.declare_down(NodeId(1), SimTime::from_secs(1.0));
        let res = h.join().unwrap();
        assert!(matches!(res, Err(RecvAbort::Dead(_, _))));
    }

    /// The runtime witness sees the cross-function order the static pass
    /// cannot: a blocked receiver holds its mailbox `state` while its
    /// dead-check takes an `endpoints` shard read. The reverse edge —
    /// `declare_down` interrupting mailboxes *under* a shard guard — was
    /// the deadlock this PR fixed; its absence keeps the graph acyclic.
    #[cfg(feature = "lockcheck")]
    #[test]
    fn witness_records_receiver_side_order_and_stays_acyclic() {
        let r = router();
        let a = r.register_endpoint(NodeId(0));
        let b = r.register_endpoint(NodeId(1));
        let mb = r.mailbox(a).unwrap();
        let r2 = r.clone();
        let h = std::thread::spawn(move || {
            mb.recv_match_abortable(CommId(1), Some(0), Some(5), || dead_node_of(&r2, b))
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        r.declare_down(NodeId(1), SimTime::from_secs(1.0));
        h.join().unwrap().expect_err("receiver aborts dead");
        let edges = crate::lockcheck::recorded_edges();
        assert!(
            edges.contains(&("psmpi.state", "psmpi.endpoints")),
            "receiver-side edge missing: {edges:?}"
        );
        assert!(
            !edges.contains(&("psmpi.endpoints", "psmpi.state")),
            "declare_down re-grew the interrupt-under-shard-guard edge: {edges:?}"
        );
        crate::lockcheck::assert_acyclic();
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
        // Nothing queued and the sender's node is down: both probes give up.
        let single = m.probe_blocking(CommId(1), Some(0), Some(5), dead);
        assert!(matches!(single, Err(RecvAbort::Dead(NodeId(3), _))));
        let either = m.probe_blocking_either(CommId(1), 0, 7, 8, dead);
        assert!(matches!(either, Err(RecvAbort::Dead(NodeId(3), _))));
        // A revoke marker from the sender ranks before the dead check…
        m.push(env(1, 0, crate::envelope::TAG_REVOKED, 0));
        let either = m.probe_blocking_either(CommId(1), 0, 7, 8, dead);
        assert!(matches!(either, Err(RecvAbort::Revoked(_))));
        // …and a queued match before both; a wildcard probe watches nobody.
        m.push(env(1, 0, 7, 1));
        assert_eq!(
            m.probe_blocking_either(CommId(1), 0, 7, 8, dead).unwrap(),
            7
        );
        let hit = m.probe_blocking(CommId(1), None, Some(7), dead).unwrap();
        assert_eq!((hit.0, hit.1), (0, 7));
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
        let mb = r.mailbox(r.register_endpoint(NodeId(0))).unwrap();
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
            mb.signal(&mut s);
            mb.signal(&mut s);
            assert_eq!(r.awake_ranks(), 0);
            assert_eq!((s.parked, s.asleep), (1, 0));
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
        assert_eq!(mb.state.lock().parked, 0);
    }

    #[test]
    fn transfer_time_positive() {
        let r = router();
        let a = r.register_endpoint(NodeId(0));
        let b = r.register_endpoint(NodeId(1));
        assert!(r.transfer_time(a, b, 1024).unwrap() > SimTime::ZERO);
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
            let dead = r.dead_time_of(entry.node());
            assert_eq!(dead.is_some(), entry.node() == NodeId(2));
        }
    }

    #[test]
    fn dead_check_is_lock_free_when_nothing_is_dead() {
        let r = router();
        // No declaration yet: the fast flag short-circuits.
        assert_eq!(r.dead_time_of(NodeId(0)), None);
        r.declare_down(NodeId(0), SimTime::from_secs(1.0));
        assert_eq!(r.dead_time_of(NodeId(0)), Some(SimTime::from_secs(1.0)));
        r.repair(NodeId(0), SimTime::from_secs(2.0));
        // Repairing the only dead node re-arms the fast path.
        assert_eq!(r.dead_time_of(NodeId(0)), None);
    }

    #[test]
    fn incast_drain_serializes_per_endpoint() {
        let mut t = Topology::new();
        t.add_nodes(2, &deep_er_cluster_node());
        let model = simnet::LogGpModel {
            model_incast: true,
            ..Default::default()
        };
        let r = Router::new(Fabric::with_model(t, model));
        let a = r.register_endpoint(NodeId(0));
        let b = r.register_endpoint(NodeId(1));
        let ea = r.entry(a).unwrap();
        let eb = r.entry(b).unwrap();
        let t0 = SimTime::from_secs(1.0);
        let first = r.incast_adjust(&ea, t0, 1 << 20);
        let second = r.incast_adjust(&ea, t0, 1 << 20);
        assert!(first >= t0);
        assert!(second > first, "same endpoint serializes");
        // A different endpoint has its own drain state.
        let other = r.incast_adjust(&eb, t0, 1 << 20);
        assert_eq!(other, first);
    }
}
