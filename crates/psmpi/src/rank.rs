//! The per-process handle: point-to-point messaging, virtual time, compute
//! charging. One [`Rank`] is owned by each rank thread.

use crate::comm::{Comm, CommId, Communicator, Intercomm};
use crate::datatype::{
    pod_to_bytes_pooled, read_pod_into_exact, CodecError, FixedWidth, MpiDatatype,
};
use crate::envelope::{EndpointId, Envelope, Status, Tag, TAG_REVOKED};
use crate::router::{EndpointEntry, Mailbox, Probed, RecvAbort, Router};
use bytes::{BufMut, Bytes, BytesMut};
use hwmodel::{CostModel, NodeId, NodeSpec, SimTime, WorkSpec};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Errors surfaced by the messaging API. `Clone` because a deferred
/// fault can be parked inside a request handle at post time and surfaced
/// (or inspected) at wait time.
#[derive(Debug, Clone)]
pub enum PsmpiError {
    /// Payload failed to decode as the requested type.
    Codec(CodecError),
    /// A rank index was out of range for the communicator.
    InvalidRank { rank: usize, size: usize },
    /// The calling endpoint is not a member of the communicator it used.
    NotInCommunicator,
    /// Spawn failed (e.g. no nodes given).
    Spawn(String),
    /// The peer's node died (at the given virtual time) before the
    /// operation could complete. Recoverable: restart the lost ranks from
    /// a checkpoint (see `xpic::resilience`).
    NodeFailed { node: NodeId, at: SimTime },
    /// The link to the peer stayed down through every retry.
    LinkDown {
        src: NodeId,
        dst: NodeId,
        at: SimTime,
    },
    /// Retry/backoff on a transient link fault exceeded the give-up bound.
    Timeout { waited: SimTime },
    /// An endpoint id with no registered mailbox/node (stale handle, or a
    /// message addressed into a torn-down world).
    UnknownEndpoint(u64),
    /// No fabric route between two nodes (unregistered in the topology).
    NoRoute { src: NodeId, dst: NodeId },
    /// A NAM RDMA operation was rejected by the device (out of capacity,
    /// out-of-bounds access, or stale region handle).
    Nam(simnet::nam::NamError),
}

impl std::fmt::Display for PsmpiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PsmpiError::Codec(e) => write!(f, "{e}"),
            PsmpiError::InvalidRank { rank, size } => {
                write!(
                    f,
                    "rank {rank} out of range for communicator of size {size}"
                )
            }
            PsmpiError::NotInCommunicator => write!(f, "caller not in communicator"),
            PsmpiError::Spawn(s) => write!(f, "spawn failed: {s}"),
            PsmpiError::NodeFailed { node, at } => {
                write!(f, "node {} failed at t={}", node.0, at)
            }
            PsmpiError::LinkDown { src, dst, at } => {
                write!(f, "link {}<->{} down at t={}", src.0, dst.0, at)
            }
            PsmpiError::Timeout { waited } => {
                write!(f, "operation timed out after waiting {waited}")
            }
            PsmpiError::UnknownEndpoint(ep) => write!(f, "endpoint {ep} not registered"),
            PsmpiError::NoRoute { src, dst } => {
                write!(f, "no fabric route between nodes {} and {}", src.0, dst.0)
            }
            PsmpiError::Nam(e) => write!(f, "NAM rdma: {e}"),
        }
    }
}

impl std::error::Error for PsmpiError {}

impl From<CodecError> for PsmpiError {
    fn from(e: CodecError) -> Self {
        PsmpiError::Codec(e)
    }
}

/// Which public face completes a posted operation. The engine is the same
/// either way — a blocking call is a post completed on the spot — and only
/// the obs labels differ: blocking calls keep the historical `Send`/"send"
/// and `Recv`/"recv" spans, request completions show up as request-scoped
/// `Wait` spans *instead* (not around them — a `Wait` span wrapping a
/// `Recv` span would get zero exclusive time under the profile's
/// innermost-cover attribution) so overlap wins are legible in the
/// per-module profile.
#[derive(Clone, Copy)]
enum Face {
    Blocking,
    Request,
}

/// Common completion surface of the request handles ([`SendRequest`],
/// [`RecvRequest`], [`RecvIntoRequest`]). `wait` completes the operation
/// on the calling rank and advances its clock to the completion
/// timestamp; `test` completes only if that can happen without blocking.
/// [`Rank::waitall`] drains a homogeneous batch in posted order.
pub trait MpiRequest: Sized {
    /// What completion yields: `()` for sends, payload + status for
    /// receives.
    type Output;
    /// Block until the operation completes. Advances the caller's clock
    /// only to the request's completion timestamp and surfaces any
    /// deferred fault error ([`PsmpiError::NodeFailed`],
    /// [`PsmpiError::LinkDown`], [`PsmpiError::Timeout`]).
    fn wait(self, rank: &mut Rank) -> Result<Self::Output, PsmpiError>;
    /// Whether [`MpiRequest::wait`] would return without blocking — with
    /// the payload *or* with the error it is bound to surface (the awaited
    /// sender's node is down, or its communicator was revoked). Never
    /// moves the clock.
    fn ready(&self, rank: &mut Rank) -> bool;
    /// Complete the operation if it is ready now, otherwise hand the
    /// request back untouched (a miss never moves the clock).
    fn test(self, rank: &mut Rank) -> Result<Result<Self::Output, Self>, PsmpiError> {
        if self.ready(rank) {
            Ok(Ok(self.wait(rank)?))
        } else {
            Ok(Err(self))
        }
    }
}

/// A posted nonblocking send (`isend_bytes*` / `isend_slice`) or NAM put.
///
/// The envelope was deposited with the receiver at post time (buffered
/// semantics: the message is matchable immediately, stamped exactly as
/// the blocking path would have stamped it), but the sender-side costs
/// were not charged — NIC serialization and link-retry backoff accrue to
/// this handle and land on the poster's clock at [`MpiRequest::wait`].
/// Dropping the handle without `wait`/`test` silently loses that charge;
/// deepcheck lint M003 flags statement-level discards.
#[must_use = "a dropped send request never charges its NIC time (deepcheck M003)"]
pub struct SendRequest {
    /// Virtual time the sender-side work finishes at — or, with a `fault`,
    /// gives up at. Computed at post time from the sender's virtual state;
    /// what is deferred is the charge.
    at: SimTime,
    /// A fault path that fired while posting, surfaced at completion.
    fault: Option<PsmpiError>,
}

impl MpiRequest for SendRequest {
    type Output = ();

    fn wait(self, rank: &mut Rank) -> Result<(), PsmpiError> {
        rank.complete_send(self, Face::Request)
    }

    /// A buffered send is complete the moment its deferred charge is
    /// applied — `test` never hands the request back.
    fn ready(&self, _rank: &mut Rank) -> bool {
        true
    }
}

/// A posted nonblocking raw-payload receive (`irecv_bytes*`).
///
/// Posting records the matching criteria only — in virtual time a post
/// is free, and the payoff comes from waiting late: completion sets the
/// clock to `max(clock at wait, arrival)`, so compute done between post
/// and wait hides the transfer. Completion emits a request-scoped `Wait`
/// span and surfaces sender death as [`PsmpiError::NodeFailed`].
#[must_use = "an irecv only matches at wait/test (deepcheck M003)"]
pub struct RecvRequest {
    comm: CommId,
    src: Option<usize>,
    tag: Option<Tag>,
    /// Awaited sender's endpoint (resolved at post time); lets the
    /// receive abort if that endpoint's node dies.
    src_ep: Option<EndpointId>,
}

impl MpiRequest for RecvRequest {
    type Output = (Bytes, Status);

    fn wait(self, rank: &mut Rank) -> Result<(Bytes, Status), PsmpiError> {
        rank.complete_recv(self, Face::Request)
    }

    /// A queued match, or either abort condition
    /// [`Mailbox::recv_match_abortable`] gives up on. Only this rank
    /// consumes from its mailbox and death declarations are not withdrawn
    /// while ranks run, so a `true` here cannot turn into a blocking wait.
    fn ready(&self, rank: &mut Rank) -> bool {
        let queued = |src, tag| rank.mailbox.probe_match(self.comm, src, tag).is_some();
        queued(self.src, self.tag)
            || self.src.is_some_and(|s| queued(Some(s), Some(TAG_REVOKED)))
            || rank
                .awaited_node(self.src_ep)
                .is_some_and(|n| rank.router.dead_time_of(n).is_some())
    }
}

/// A posted in-place typed receive ([`Rank::irecv_into`]): borrows the
/// caller's output slice for the request's lifetime and bulk-decodes
/// straight into it at [`MpiRequest::wait`] (the message's element count
/// must match the slice length exactly, as with
/// [`Rank::recv_into_comm`]).
#[must_use = "an irecv only matches at wait/test (deepcheck M003)"]
pub struct RecvIntoRequest<'a, T: FixedWidth> {
    inner: RecvRequest,
    out: &'a mut [T],
}

impl<T: FixedWidth> RecvIntoRequest<'_, T> {
    fn complete(self, rank: &mut Rank, face: Face) -> Result<Status, PsmpiError> {
        let (bytes, st) = rank.complete_recv(self.inner, face)?;
        read_pod_into_exact(&bytes, self.out)?;
        rank.router.buffer_pool().recycle(bytes);
        Ok(st)
    }
}

impl<T: FixedWidth> MpiRequest for RecvIntoRequest<'_, T> {
    type Output = Status;

    fn wait(self, rank: &mut Rank) -> Result<Status, PsmpiError> {
        self.complete(rank, Face::Request)
    }

    fn ready(&self, rank: &mut Rank) -> bool {
        self.inner.ready(rank)
    }
}

/// Endpoint of rank `rank` in the group `comm` addresses (its own group,
/// or an inter-communicator's remote group).
fn peer_endpoint(comm: &impl Comm, rank: usize) -> Result<EndpointId, PsmpiError> {
    let peers = &comm.peer_group().endpoints;
    peers.get(rank).copied().ok_or(PsmpiError::InvalidRank {
        rank,
        size: peers.len(),
    })
}

/// Post a receive: validate `src` against the peer group and record the
/// matching criteria. Free in virtual time; every receive, blocking or
/// not, starts here.
fn post_recv(
    comm: &impl Comm,
    src: Option<usize>,
    tag: Option<Tag>,
) -> Result<RecvRequest, PsmpiError> {
    Ok(RecvRequest {
        comm: comm.context(),
        src,
        tag,
        src_ep: src.map(|s| peer_endpoint(comm, s)).transpose()?,
    })
}

/// Wire form of a revoke-marker payload: failed node id (u32 LE) + virtual
/// death time in seconds (f64 LE).
fn encode_revoke_marker(node: NodeId, at: SimTime) -> Bytes {
    let mut b = BytesMut::with_capacity(12);
    b.put_u32_le(node.0);
    b.put_f64_le(at.as_secs());
    b.freeze()
}

fn decode_revoke_marker(b: &Bytes) -> Option<(NodeId, SimTime)> {
    if b.len() != 12 {
        return None;
    }
    let node = u32::from_le_bytes(b[0..4].try_into().ok()?);
    let secs = f64::from_le_bytes(b[4..12].try_into().ok()?);
    if !secs.is_finite() || secs < 0.0 {
        return None;
    }
    Some((NodeId(node), SimTime::from_secs(secs)))
}

/// The handle each rank thread owns.
pub struct Rank {
    router: Arc<Router>,
    endpoint: EndpointId,
    /// This rank's own mailbox, resolved once at construction: every
    /// receive lands here, and a self-addressed send is pushed straight in
    /// without consulting the router's endpoint table at all.
    mailbox: Arc<Mailbox>,
    /// This rank's own routing record (incast bookkeeping target).
    self_entry: Arc<EndpointEntry>,
    /// Lazily-built cache of peer routing records. Entries are immutable
    /// and never removed from the router, so a cached `Arc` stays valid for
    /// the life of the universe; after the first message to/from a peer,
    /// the hot paths never touch the router's sharded table again.
    entries: BTreeMap<EndpointId, Arc<EndpointEntry>>,
    /// This rank's index per communicator context, so repeated sends on
    /// the same communicator skip [`crate::Group::rank_of`]'s O(n)
    /// endpoint scan (quadratic per exchange step at 1000 ranks). The
    /// world is answered from `my_rank` without touching the map.
    comm_ranks: BTreeMap<CommId, usize>,
    /// The fault schedule, resolved once at construction (plans are
    /// installed before rank threads launch and immutable afterwards —
    /// see [`simnet::Fabric::set_fault_plan`]). `None` makes every
    /// sender-side fault check a single branch.
    fault_plan: Option<Arc<simnet::FaultPlan>>,
    node_id: NodeId,
    node: Arc<NodeSpec>,
    world: Communicator,
    my_rank: usize,
    parent: Option<Intercomm>,
    clock: SimTime,
    start_clock: SimTime,
    cost: CostModel,
    seq: u64,
    /// Cores of the node available to this rank (node cores divided by the
    /// ranks placed on the node).
    cores: u32,
    bytes_sent: u64,
    msgs_sent: u64,
    compute_time: SimTime,
    comm_time: SimTime,
    /// Observability track, present when a recorder is attached to the
    /// universe. All runtime spans/edges are stamped with the virtual
    /// clock, never wall time.
    obs: Option<obs::TrackHandle>,
}

impl Rank {
    /// Used by the universe/spawner; not public API.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        router: Arc<Router>,
        endpoint: EndpointId,
        node_id: NodeId,
        node: Arc<NodeSpec>,
        world: Communicator,
        my_rank: usize,
        parent: Option<Intercomm>,
        start_clock: SimTime,
        cores: u32,
        obs_origin: Option<obs::TrackKey>,
    ) -> Self {
        let self_entry = router
            .entry(endpoint)
            .expect("rank endpoint is registered at construction");
        let mailbox = self_entry.mailbox().clone();
        let fault_plan = router.fabric().fault_plan();
        let obs = router.obs_recorder().map(|rec| {
            rec.register(
                obs::TrackKey {
                    world: world.id.0,
                    rank: my_rank as u64,
                },
                router.kind_of(endpoint).label(),
                endpoint.0,
                start_clock,
                obs_origin,
            )
        });
        Rank {
            router,
            endpoint,
            mailbox,
            self_entry,
            entries: BTreeMap::new(),
            comm_ranks: BTreeMap::new(),
            fault_plan,
            node_id,
            node,
            world,
            my_rank,
            parent,
            clock: start_clock,
            start_clock,
            cost: CostModel,
            seq: 0,
            cores,
            bytes_sent: 0,
            msgs_sent: 0,
            compute_time: SimTime::ZERO,
            comm_time: SimTime::ZERO,
            obs,
        }
    }

    /// This rank's observability track, when a recorder is attached.
    /// Applications can add their own spans/counters through it; prefer
    /// [`Rank::obs_open`]/[`Rank::obs_close`], which stamp the virtual
    /// clock for you.
    pub fn obs(&self) -> Option<&obs::TrackHandle> {
        self.obs.as_ref()
    }

    /// Open an application span at the current virtual time. Returns
    /// `None` when no recorder is attached; close with [`Rank::obs_close`].
    pub fn obs_open(&self, cat: obs::Category, name: &str) -> Option<obs::SpanGuard> {
        let now = self.clock;
        self.obs.as_ref().map(|t| t.open_span(cat, name, now))
    }

    /// Close a span opened with [`Rank::obs_open`] at the current virtual
    /// time.
    pub fn obs_close(&self, guard: Option<obs::SpanGuard>) {
        if let Some(g) = guard {
            g.close(self.clock);
        }
    }

    /// This rank's index in its world (MPI_Comm_rank on MPI_COMM_WORLD).
    pub fn rank(&self) -> usize {
        self.my_rank
    }

    /// World size (MPI_Comm_size on MPI_COMM_WORLD).
    pub fn size(&self) -> usize {
        self.world.size()
    }

    /// The world communicator.
    pub fn world(&self) -> Communicator {
        self.world.clone()
    }

    /// The parent inter-communicator, if this world was spawned
    /// (MPI_Comm_get_parent).
    pub fn parent(&self) -> Option<Intercomm> {
        self.parent.clone()
    }

    /// Node this rank runs on.
    pub fn node_id(&self) -> NodeId {
        self.node_id
    }

    /// Hardware model of this rank's node.
    pub fn node(&self) -> &NodeSpec {
        &self.node
    }

    /// Cores available to this rank.
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Virtual time spent in `compute` calls so far.
    pub fn compute_time(&self) -> SimTime {
        self.compute_time
    }

    /// Virtual time spent communicating (clock advanced inside messaging
    /// calls) so far.
    pub fn comm_time(&self) -> SimTime {
        self.comm_time
    }

    /// The shared router (used by sibling modules: collectives, spawn).
    pub(crate) fn router(&self) -> &Arc<Router> {
        &self.router
    }

    /// The universe-wide encode-buffer pool. Applications encoding raw
    /// payloads for the `send_bytes_*` API can stage through it to reuse
    /// retired allocations on hot exchange paths.
    pub fn buffer_pool(&self) -> &crate::pool::BufferPool {
        self.router.buffer_pool()
    }

    /// Routing record of a peer endpoint, from this rank's private cache
    /// (filled on first use; see the `entries` field).
    fn entry_of(&mut self, ep: EndpointId) -> Result<Arc<EndpointEntry>, PsmpiError> {
        if let Some(e) = self.entries.get(&ep) {
            return Ok(e.clone());
        }
        let e = self.router.entry(ep)?;
        self.entries.insert(ep, e.clone());
        Ok(e)
    }

    /// This rank's index within the local group of `comm`, cached per
    /// communicator context (an endpoint belongs to exactly one side of an
    /// inter-comm, so the [`CommId`] keyspace shared with intra-comms is
    /// unambiguous). The world answers from `my_rank` directly; other
    /// communicators pay [`crate::Group::rank_of`]'s linear scan exactly
    /// once.
    pub(crate) fn comm_rank(&mut self, comm: &impl Comm) -> Result<usize, PsmpiError> {
        let id = comm.context();
        if id == self.world.id {
            return Ok(self.my_rank);
        }
        if let Some(&r) = self.comm_ranks.get(&id) {
            return Ok(r);
        }
        let r = comm
            .local_group()
            .rank_of(self.endpoint)
            .ok_or(PsmpiError::NotInCommunicator)?;
        self.comm_ranks.insert(id, r);
        Ok(r)
    }

    /// Advance the virtual clock unconditionally (used for modelled waits,
    /// I/O completion times from `sionio`, etc.).
    pub fn advance(&mut self, t: SimTime) {
        self.clock += t;
    }

    /// Execute (charge) a unit of computational work on this node. Returns
    /// the modelled duration. The work's core limit is additionally capped
    /// by the cores available to this rank.
    pub fn compute(&mut self, work: &WorkSpec) -> SimTime {
        let mut w = work.clone();
        w.max_cores = Some(w.max_cores.map_or(self.cores, |m| m.min(self.cores)));
        let pre = self.clock;
        let t = self.cost.time(&self.node, &w);
        self.clock += t;
        self.compute_time += t;
        if let Some(track) = &self.obs {
            track.span(obs::Category::Compute, work.name.as_str(), pre, self.clock);
        }
        t
    }

    // ---- point-to-point ----
    //
    // One engine: every send is `post_send`, every receive `post_recv`, and
    // a blocking call is the same post completed on the spot. The public
    // methods differ only in how the payload `Bytes` is produced; `comm`
    // is any [`Comm`]. The crate docs tabulate the whole surface.

    /// Blocking standard send of `value` to `dst` in `comm` with `tag`.
    /// Buffered semantics: completes locally after injection.
    pub fn send_comm<T: MpiDatatype>(
        &mut self,
        comm: &impl Comm,
        dst: usize,
        tag: Tag,
        value: &T,
    ) -> Result<(), PsmpiError> {
        let wire = value.to_wire(self.router.buffer_pool());
        self.send_bytes_comm(comm, dst, tag, wire)
    }

    /// Blocking receive from `src` (or any source) with `tag` (or any tag)
    /// on `comm`.
    pub fn recv_comm<T: MpiDatatype>(
        &mut self,
        comm: &impl Comm,
        src: Option<usize>,
        tag: Option<Tag>,
    ) -> Result<(T, Status), PsmpiError> {
        let (bytes, st) = self.recv_bytes_comm(comm, src, tag)?;
        let value = T::from_bytes(bytes.clone())?;
        // Return the payload allocation to the pool — a no-op whenever the
        // decode (e.g. `Raw`) or another rank still holds a reference.
        self.router.buffer_pool().recycle(bytes);
        Ok((value, st))
    }

    /// [`Rank::send_comm`] on the world communicator.
    pub fn send<T: MpiDatatype>(
        &mut self,
        dst: usize,
        tag: Tag,
        value: &T,
    ) -> Result<(), PsmpiError> {
        let w = self.world.clone();
        self.send_comm(&w, dst, tag, value)
    }

    /// [`Rank::recv_comm`] on the world communicator.
    pub fn recv<T: MpiDatatype>(
        &mut self,
        src: Option<usize>,
        tag: Option<Tag>,
    ) -> Result<(T, Status), PsmpiError> {
        let w = self.world.clone();
        self.recv_comm(&w, src, tag)
    }

    // ---- probes ----

    /// Blocking probe: wait until a matching message is available and
    /// return its status without receiving it. Like a receive, it gives up
    /// with [`PsmpiError::NodeFailed`] once the awaited sender is known
    /// never to deliver.
    pub fn probe(
        &mut self,
        comm: &impl Comm,
        src: Option<usize>,
        tag: Option<Tag>,
    ) -> Result<Status, PsmpiError> {
        let req = post_recv(comm, src, tag)?;
        let hit = self.await_sender(req.src_ep, |mailbox, dead| {
            mailbox.probe_blocking(req.comm, src, tag, dead)
        })?;
        Ok(self.probe_status(hit))
    }

    /// Which of two tags rank `src` of `comm` sent first, without receiving
    /// it (collectives dispatch between sub-protocols on it); abortable
    /// like [`Rank::probe`].
    pub(crate) fn probe_either(
        &mut self,
        comm: &impl Comm,
        src: usize,
        tag_a: Tag,
        tag_b: Tag,
    ) -> Result<Tag, PsmpiError> {
        self.await_sender(Some(peer_endpoint(comm, src)?), |mailbox, dead| {
            mailbox.probe_blocking_either(comm.context(), src, tag_a, tag_b, dead)
        })
    }

    /// Nonblocking probe.
    pub fn iprobe(
        &mut self,
        comm: &impl Comm,
        src: Option<usize>,
        tag: Option<Tag>,
    ) -> Option<Status> {
        let hit = self.mailbox.probe_match(comm.context(), src, tag)?;
        Some(self.probe_status(hit))
    }

    /// Status a probe reports for a queued envelope. The transfer time is
    /// zero for a self-send (which never touches the fabric), the modelled
    /// fabric time otherwise.
    fn probe_status(&self, (source, tag, bytes, stamp, src_ep): Probed) -> Status {
        let transfer = if src_ep == self.endpoint {
            SimTime::ZERO
        } else {
            // A probe of a message from a torn-down endpoint cannot time the
            // transfer; report zero rather than failing the status query.
            self.router
                .transfer_time(src_ep, self.endpoint, bytes)
                .unwrap_or(SimTime::ZERO)
        };
        Status {
            source,
            tag,
            bytes,
            arrival: stamp + transfer,
        }
    }

    // ---- zero-copy point-to-point (raw Bytes payloads) ----
    //
    // These move an already-encoded buffer without any serialization step:
    // the `Bytes` handle is refcount-cloned into the envelope, travels
    // through the matching engine, and `recv_bytes_comm` hands back the
    // very same allocation. Combined with the self-send bypass and the
    // forwarding collectives this makes large exchanges single-allocation
    // end to end. Virtual-time accounting is identical to the typed API.

    /// Zero-copy send of `payload` to `dst` in `comm` with `tag`.
    pub fn send_bytes_comm(
        &mut self,
        comm: &impl Comm,
        dst: usize,
        tag: Tag,
        payload: Bytes,
    ) -> Result<(), PsmpiError> {
        let req = self.post_send(comm, dst, tag, payload, None)?;
        self.complete_send(req, Face::Blocking)
    }

    /// Like [`Rank::send_bytes_comm`] but charging `virtual_bytes` on the
    /// wire (model-scale exchanges over reduced-scale data).
    pub fn send_bytes_comm_sized(
        &mut self,
        comm: &impl Comm,
        dst: usize,
        tag: Tag,
        payload: Bytes,
        virtual_bytes: usize,
    ) -> Result<(), PsmpiError> {
        let req = self.post_send(comm, dst, tag, payload, Some(virtual_bytes))?;
        self.complete_send(req, Face::Blocking)
    }

    /// Zero-copy receive on `comm`: the returned [`Bytes`] is the sender's
    /// buffer (shared allocation), not a copy.
    pub fn recv_bytes_comm(
        &mut self,
        comm: &impl Comm,
        src: Option<usize>,
        tag: Option<Tag>,
    ) -> Result<(Bytes, Status), PsmpiError> {
        let req = post_recv(comm, src, tag)?;
        self.complete_recv(req, Face::Blocking)
    }

    // ---- in-place typed point-to-point (POD slices) ----
    //
    // The framed `MpiDatatype` codec allocates a fresh `Vec` on every
    // decode and carries a length header; these calls instead bulk-encode
    // a POD slice straight into a pooled buffer on send
    // (`pod_to_bytes_pooled`) and decode into a caller-owned slice on
    // receive (`read_pod_into_exact`), so steady-state `&[f64]` p2p does
    // no per-message heap allocation. The wire format is the unframed POD
    // layout of `pod_to_bytes` (the xpic wire convention): the element
    // count is implied by the byte length, so both sides must agree on it.

    /// Typed send of a POD slice to `dst` in `comm`: bulk-encoded into a
    /// pooled buffer, no intermediate `Vec`.
    pub fn send_slice_comm<T: FixedWidth>(
        &mut self,
        comm: &impl Comm,
        dst: usize,
        tag: Tag,
        data: &[T],
    ) -> Result<(), PsmpiError> {
        let wire = pod_to_bytes_pooled(self.router.buffer_pool(), data);
        self.send_bytes_comm(comm, dst, tag, wire)
    }

    /// [`Rank::send_slice_comm`] on the world communicator.
    pub fn send_slice<T: FixedWidth>(
        &mut self,
        dst: usize,
        tag: Tag,
        data: &[T],
    ) -> Result<(), PsmpiError> {
        let w = self.world.clone();
        self.send_slice_comm(&w, dst, tag, data)
    }

    /// Typed in-place receive on `comm`: decodes the payload directly into
    /// `out` (whose length must match the message's element count exactly)
    /// and recycles the wire buffer. No allocation on the steady-state
    /// path.
    pub fn recv_into_comm<T: FixedWidth>(
        &mut self,
        comm: &impl Comm,
        src: Option<usize>,
        tag: Option<Tag>,
        out: &mut [T],
    ) -> Result<Status, PsmpiError> {
        let inner = post_recv(comm, src, tag)?;
        RecvIntoRequest { inner, out }.complete(self, Face::Blocking)
    }

    /// [`Rank::recv_into_comm`] on the world communicator.
    pub fn recv_into<T: FixedWidth>(
        &mut self,
        src: Option<usize>,
        tag: Option<Tag>,
        out: &mut [T],
    ) -> Result<Status, PsmpiError> {
        let w = self.world.clone();
        self.recv_into_comm(&w, src, tag, out)
    }

    // ---- nonblocking requests ----
    //
    // `isend_*` is `post_send` handed back to the caller: the envelope is
    // deposited at post time (buffered semantics: the message is matchable
    // immediately, stamped exactly as a blocking send issued at the same
    // clock) but nothing is charged — NIC serialization and link-retry
    // backoff accrue to the returned [`SendRequest`] and land on the clock
    // at `wait`. `irecv_*` is `post_recv`; the receive happens at `wait`,
    // advancing the clock only to `max(clock, arrival)`. Both give MPI's
    // overlap payoff in virtual time while keeping every timestamp a pure
    // function of virtual state, so thread-count invariance holds; the
    // fault paths surface at wait time as `NodeFailed`/`LinkDown`/`Timeout`.

    /// Nonblocking zero-copy send on `comm` (the `MPI_Issend` of the
    /// paper's Listing 4 when `comm` is the spawn inter-communicator);
    /// complete with [`MpiRequest::wait`].
    pub fn isend_bytes_comm(
        &mut self,
        comm: &impl Comm,
        dst: usize,
        tag: Tag,
        payload: Bytes,
    ) -> Result<SendRequest, PsmpiError> {
        self.post_send(comm, dst, tag, payload, None)
    }

    /// Like [`Rank::isend_bytes_comm`] but charging `virtual_bytes` on
    /// the wire.
    pub fn isend_bytes_comm_sized(
        &mut self,
        comm: &impl Comm,
        dst: usize,
        tag: Tag,
        payload: Bytes,
        virtual_bytes: usize,
    ) -> Result<SendRequest, PsmpiError> {
        self.post_send(comm, dst, tag, payload, Some(virtual_bytes))
    }

    /// [`Rank::isend_bytes_comm`] on the world communicator.
    pub fn isend_bytes(
        &mut self,
        dst: usize,
        tag: Tag,
        payload: Bytes,
    ) -> Result<SendRequest, PsmpiError> {
        let w = self.world.clone();
        self.post_send(&w, dst, tag, payload, None)
    }

    /// Nonblocking typed POD-slice send on the world communicator (the
    /// `isend` face of [`Rank::send_slice`]).
    pub fn isend_slice<T: FixedWidth>(
        &mut self,
        dst: usize,
        tag: Tag,
        data: &[T],
    ) -> Result<SendRequest, PsmpiError> {
        let wire = pod_to_bytes_pooled(self.router.buffer_pool(), data);
        self.isend_bytes(dst, tag, wire)
    }

    /// Post a nonblocking zero-copy receive on `comm` (the `MPI_Irecv` of
    /// Listing 4 when `comm` is the spawn inter-communicator); complete
    /// with [`MpiRequest::wait`]. Posting is free in virtual time — the
    /// win comes from computing between post and wait.
    pub fn irecv_bytes_comm(
        &mut self,
        comm: &impl Comm,
        src: Option<usize>,
        tag: Option<Tag>,
    ) -> Result<RecvRequest, PsmpiError> {
        post_recv(comm, src, tag)
    }

    /// [`Rank::irecv_bytes_comm`] on the world communicator.
    pub fn irecv_bytes(
        &mut self,
        src: Option<usize>,
        tag: Option<Tag>,
    ) -> Result<RecvRequest, PsmpiError> {
        post_recv(&self.world, src, tag)
    }

    /// Post a nonblocking in-place typed receive on the world
    /// communicator: `out` is borrowed until the request is waited and
    /// filled at completion (its length must match the message's element
    /// count exactly).
    pub fn irecv_into<'a, T: FixedWidth>(
        &mut self,
        src: Option<usize>,
        tag: Option<Tag>,
        out: &'a mut [T],
    ) -> Result<RecvIntoRequest<'a, T>, PsmpiError> {
        let inner = post_recv(&self.world, src, tag)?;
        Ok(RecvIntoRequest { inner, out })
    }

    /// Post a one-sided RDMA put of `data` into `region` on the fabric's
    /// NAM device `nam_index`, at byte `offset` within the region.
    ///
    /// The storage effect is immediate — the NAM has no active remote
    /// component (paper §II-B), so nothing on the far side has to
    /// schedule the write — but the initiator-side charge (NIC
    /// injection, the slower of the wire and HMC streams, the FPGA
    /// pipeline latency; see [`simnet::Fabric::nam_rdma_time`]) accrues
    /// to the returned request and lands on the poster's clock at
    /// [`MpiRequest::wait`], exactly like `isend_bytes_*`: compute done
    /// between post and wait hides the transfer in virtual time.
    ///
    /// The device has no host node, so no node-death clearance applies;
    /// an unknown `nam_index` surfaces as [`PsmpiError::Nam`] with a
    /// stale-region error.
    pub fn inam_put(
        &mut self,
        nam_index: usize,
        region: simnet::nam::NamRegion,
        offset: u64,
        data: &[u8],
    ) -> Result<SendRequest, PsmpiError> {
        self.inam_put_sized(nam_index, region, offset, data, None)
    }

    /// [`Rank::inam_put`] with an explicit modelled wire size (the
    /// `_sized` idiom): e.g. a delta checkpoint frame serializes only
    /// the frame bytes while the region holds the reconstructed blob.
    ///
    /// The NAM device has no node id, so the one routing failure — this
    /// rank's own node missing from the fabric topology — is reported as
    /// [`PsmpiError::NoRoute`] with `src == dst ==` that node.
    pub fn inam_put_sized(
        &mut self,
        nam_index: usize,
        region: simnet::nam::NamRegion,
        offset: u64,
        data: &[u8],
        virtual_size: Option<usize>,
    ) -> Result<SendRequest, PsmpiError> {
        let post = self.clock;
        let fabric = self.router.fabric().clone();
        let nam = fabric
            .nams()
            .get(nam_index)
            .ok_or(PsmpiError::Nam(simnet::nam::NamError::StaleRegion))?
            .clone();
        nam.put(region, offset, data).map_err(PsmpiError::Nam)?;
        let size = virtual_size.unwrap_or(data.len());
        // The device index was resolved above, so the timing can only fail
        // on the initiator's own node being absent from the topology.
        let rdma = fabric
            .nam_rdma_time(self.node_id, nam_index, size)
            .map_err(|_| PsmpiError::NoRoute {
                src: self.node_id,
                dst: self.node_id,
            })?;
        self.count_sent(size);
        Ok(SendRequest {
            at: post + rdma,
            fault: None,
        })
    }

    /// Complete a batch of requests in *posted order* and collect their
    /// outputs.
    ///
    /// Determinism of the completion order: each `wait` is a pure
    /// function of the rank's virtual state (clock, mailbox contents
    /// ordered by per-sender FIFO, static fault plan), so completing the
    /// vector front-to-back yields the same clocks and payloads on every
    /// host schedule. Posted order is also the order MPI guarantees
    /// non-overtaking for, so `waitall(v)` is equivalent to waiting each
    /// element in sequence — there is no reordering a "first completed"
    /// policy could exploit that would not break reproducibility.
    ///
    /// On the first error the remaining requests are dropped: unmatched
    /// receives are only matching criteria (nothing leaks), and a dropped
    /// send request only abandons its deferred charge, which the failed
    /// run no longer accounts anyway.
    pub fn waitall<R: MpiRequest>(&mut self, reqs: Vec<R>) -> Result<Vec<R::Output>, PsmpiError> {
        let mut out = Vec::with_capacity(reqs.len());
        for r in reqs {
            out.push(r.wait(self)?);
        }
        Ok(out)
    }

    // ---- the post/complete engine ----

    /// Apply a posted send's deferred charge: advance the clock to the
    /// completion timestamp (never backwards) and surface any deferred
    /// fault. A blocking send stamps its `Send` span only when it went
    /// out; a request completion stamps whatever advance it caused as a
    /// request-scoped `Wait` span.
    fn complete_send(&mut self, req: SendRequest, face: Face) -> Result<(), PsmpiError> {
        let pre = self.clock;
        let res = req.fault.map_or(Ok(()), Err);
        self.clock = self.clock.max(req.at);
        self.comm_time += self.clock - pre;
        if let Some(track) = &self.obs {
            match face {
                Face::Blocking if res.is_ok() => {
                    track.span(obs::Category::Send, "send", pre, self.clock)
                }
                Face::Request if self.clock > pre => {
                    track.span(obs::Category::Wait, "wait-send", pre, self.clock)
                }
                _ => {}
            }
        }
        res
    }

    /// Account one injected message of `size` modelled wire bytes.
    fn count_sent(&mut self, size: usize) {
        self.bytes_sent += size as u64;
        self.msgs_sent += 1;
        if let Some(track) = &self.obs {
            track.add("bytes_sent", size as u64);
            track.add("msgs_sent", 1);
        }
    }

    /// Post a send — the one place a point-to-point envelope is built.
    /// Validates `dst`, resolves routing, runs the fault clearance from
    /// the current clock *without* applying it, deposits the envelope
    /// stamped with the cleared time, and hands back the deferred charge.
    /// A usage error (`InvalidRank`, `NotInCommunicator`) is returned
    /// here; a fault is parked on the request and surfaces at completion.
    fn post_send(
        &mut self,
        comm: &impl Comm,
        dst: usize,
        tag: Tag,
        payload: Bytes,
        virtual_size: Option<usize>,
    ) -> Result<SendRequest, PsmpiError> {
        let (src_rank, dst_entry, cleared) = match self.route_send(comm, dst) {
            Ok(route) => route,
            Err((parked_at, err)) => {
                // The encode buffer never reached an envelope; reclaim it
                // (a no-op if anyone else still holds a reference).
                self.router.buffer_pool().recycle(payload);
                return match parked_at {
                    Some(at) => Ok(SendRequest {
                        at,
                        fault: Some(err),
                    }),
                    None => Err(err),
                };
            }
        };
        let size = virtual_size.unwrap_or(payload.len());
        let env = Envelope {
            comm: comm.context(),
            src_rank,
            tag,
            payload,
            send_stamp: cleared,
            src_endpoint: self.endpoint,
            seq: self.seq,
            virtual_size,
        };
        self.seq += 1;
        self.count_sent(size);
        match dst_entry {
            // Self-send: straight into our own mailbox.
            None => self.mailbox.push(env),
            Some(entry) => entry.mailbox().push(env),
        }
        Ok(SendRequest {
            // Sender-side CPU cost: message injection.
            at: cleared + self.node.nic_send_overhead,
            fault: None,
        })
    }

    /// Everything that can reject a send before an envelope exists: this
    /// rank's index in `comm`, the destination's routing record (from the
    /// private cache — the only shared lookup a steady-state send makes is
    /// the first-contact shard read; `None` for a self-send, which never
    /// consults the router) and the virtual time at which the fabric
    /// accepts the injection. The error side carries the time the sender
    /// gives up at for a fault, `None` for a usage error.
    #[allow(clippy::type_complexity)]
    fn route_send(
        &mut self,
        comm: &impl Comm,
        dst: usize,
    ) -> Result<(usize, Option<Arc<EndpointEntry>>, SimTime), (Option<SimTime>, PsmpiError)> {
        let post = self.clock;
        let dst_ep = peer_endpoint(comm, dst).map_err(|e| (None, e))?;
        let src_rank = self.comm_rank(comm).map_err(|e| (None, e))?;
        if dst_ep == self.endpoint {
            return Ok((src_rank, None, post));
        }
        let entry = self.entry_of(dst_ep).map_err(|e| (Some(post), e))?;
        match self.destination_clearance(entry.node(), post) {
            (cleared, None) => Ok((src_rank, Some(entry), cleared)),
            (gave_up, Some(err)) => Err((Some(gave_up), err)),
        }
    }

    /// Sender-side fault checks, consulted before a remote injection, as a
    /// pure clock transform: starting at `start`, walk the retry/backoff
    /// schedule against the static plan and return the virtual time at
    /// which the fabric accepts the injection — or the error plus the time
    /// at which the sender gives up. The result is charged to the posted
    /// request, never applied here.
    ///
    /// Determinism: the node check reads only the *static* fault plan (plus
    /// the repairs map, quiescent while ranks run) against the sender's own
    /// virtual clock — never the dynamic dead set, whose update timing
    /// depends on host scheduling. The retry/backoff walk is equally a
    /// pure function of the plan and the clock.
    fn destination_clearance(
        &self,
        dst_node: NodeId,
        start: SimTime,
    ) -> (SimTime, Option<PsmpiError>) {
        let Some(plan) = self.fault_plan.as_deref() else {
            return (start, None);
        };
        let mut clock = start;
        if let Some(at) = self.router.planned_dead(dst_node, clock) {
            return (clock, Some(PsmpiError::NodeFailed { node: dst_node, at }));
        }
        if plan.link_fault_at(self.node_id, dst_node, clock).is_some() {
            let policy = self.router.retry_policy();
            let mut backoff = policy.base_backoff;
            let mut tries = 0u32;
            while plan.link_fault_at(self.node_id, dst_node, clock).is_some() {
                if clock - start >= policy.give_up_after {
                    return (
                        clock,
                        Some(PsmpiError::Timeout {
                            waited: clock - start,
                        }),
                    );
                }
                if tries >= policy.max_retries {
                    return (
                        clock,
                        Some(PsmpiError::LinkDown {
                            src: self.node_id,
                            dst: dst_node,
                            at: clock,
                        }),
                    );
                }
                clock += backoff;
                backoff = backoff * 2.0;
                tries += 1;
            }
            // The destination may have died while we were backing off.
            if let Some(at) = self.router.planned_dead(dst_node, clock) {
                return (clock, Some(PsmpiError::NodeFailed { node: dst_node, at }));
            }
        }
        (clock, None)
    }

    /// Node of the sender a receive waits on, if it named one. An unknown
    /// endpoint maps to "nothing to watch".
    fn awaited_node(&mut self, src_ep: Option<EndpointId>) -> Option<NodeId> {
        src_ep.and_then(|ep| self.entry_of(ep).ok().map(|e| e.node()))
    }

    /// Block in this rank's mailbox through `wait`, which gives up once
    /// the sender at `src_ep` is known never to deliver; that surfaces as
    /// [`PsmpiError::NodeFailed`] naming the victim. The sender's node is
    /// resolved up front so `dead` only consults the lock-free `any_dead`
    /// screen, never the endpoint table.
    fn await_sender<T>(
        &mut self,
        src_ep: Option<EndpointId>,
        wait: impl FnOnce(&Mailbox, &dyn Fn() -> Option<(NodeId, SimTime)>) -> Result<T, RecvAbort>,
    ) -> Result<T, PsmpiError> {
        let node = self.awaited_node(src_ep);
        let router = &self.router;
        let dead = || node.and_then(|n| router.dead_time_of(n).map(|at| (n, at)));
        let (node, at) = match wait(&self.mailbox, &dead) {
            Ok(found) => return Ok(found),
            Err(RecvAbort::Dead(node, at)) => (node, at),
            Err(RecvAbort::Revoked(marker)) => decode_revoke_marker(&marker)
                .ok_or_else(|| PsmpiError::Codec(CodecError("malformed revoke marker".into())))?,
        };
        // The receiver learns of the death no earlier than it happened;
        // aligning the clock keeps recovery timing a function of the plan
        // alone.
        let pre = self.clock;
        self.clock = self.clock.max(at);
        self.comm_time += self.clock - pre;
        Err(PsmpiError::NodeFailed { node, at })
    }

    /// Complete a posted receive: block for the match (or the abort),
    /// advance the clock to the arrival and stamp the span `face` names.
    fn complete_recv(
        &mut self,
        req: RecvRequest,
        face: Face,
    ) -> Result<(Bytes, Status), PsmpiError> {
        let (cat, name, abort_name) = match face {
            Face::Blocking => (obs::Category::Recv, "recv", "recv-aborted"),
            Face::Request => (obs::Category::Wait, "wait-recv", "wait-aborted"),
        };
        let pre = self.clock;
        let matched = self.await_sender(req.src_ep, |mailbox, dead| {
            mailbox.recv_match_abortable(req.comm, req.src, req.tag, dead)
        });
        let env = match matched {
            Ok(env) => env,
            Err(err) => {
                if let (Some(track), PsmpiError::NodeFailed { .. }) = (&self.obs, &err) {
                    track.span(cat, abort_name, pre, self.clock);
                }
                return Err(err);
            }
        };
        if env.src_endpoint == self.endpoint {
            // Self-receive: the message never touched the fabric — no
            // loopback transfer time, no incast queueing, no trace entry,
            // no obs edge (a self-send can never block: its stamp is in
            // the receiver's past). The clock only respects causality
            // with the send.
            self.clock = self.clock.max(env.send_stamp);
        } else {
            let src_node = self.entry_of(env.src_endpoint)?.node();
            let transfer =
                self.router
                    .transfer_time_nodes(src_node, self.node_id, env.wire_size())?;
            let arrival = self.router.incast_adjust(
                &self.self_entry,
                env.send_stamp + transfer,
                env.wire_size(),
            );
            self.clock = self.clock.max(arrival);
            self.router.trace_delivery(
                src_node,
                self.node_id,
                env.wire_size(),
                env.send_stamp,
                arrival,
            );
            if let Some(track) = &self.obs {
                // The dependency edge the critical-path walk follows.
                track.edge(
                    env.src_endpoint.0,
                    env.send_stamp,
                    pre,
                    self.clock,
                    env.wire_size() as u64,
                );
            }
        }
        self.comm_time += self.clock - pre;
        if let Some(track) = &self.obs {
            track.span(cat, name, pre, self.clock);
        }
        let st = Status {
            source: env.src_rank,
            tag: env.tag,
            bytes: env.payload.len(),
            arrival: self.clock,
        };
        Ok((env.payload, st))
    }

    // ---- fault protocol ----

    /// Whether the static fault plan kills this rank's node in the window
    /// `(after, upto]`. This is the victim's own step-granularity check:
    /// call it with the step's start/end clocks, then [`Rank::fail_here`]
    /// and return from the rank function.
    pub fn planned_fault_in(&self, after: SimTime, upto: SimTime) -> Option<SimTime> {
        self.router
            .fabric()
            .fault_plan()?
            .node_fault_in(self.node_id, after, upto)
    }

    /// Die: declare this rank's node down as of virtual time `at` and wake
    /// every blocked receiver. Call *after* the last send this rank will
    /// ever make — the deposit-before-declare order on this thread is what
    /// makes every peer's match-vs-abort decision deterministic. The rank
    /// function should return immediately afterwards.
    pub fn fail_here(&mut self, at: SimTime) {
        self.clock = self.clock.max(at);
        if let Some(track) = &self.obs {
            track.span(obs::Category::Failure, "node-failure", at, self.clock);
        }
        self.router.declare_down(self.node_id, at);
    }

    /// Repair `node` at virtual time `at` (supervisor-side, between child
    /// worlds): clears the death declaration and marks planned faults up to
    /// `at` as spent so the respawned world can talk to the node again.
    pub fn repair_node(&self, node: NodeId, at: SimTime) {
        self.router.repair(node, at);
    }

    /// Deposit a revoke marker for `(node, at)` to every other rank `comm`
    /// addresses — the rest of an intra-communicator, or the remote group
    /// of an inter-communicator (e.g. a child world notifying its parent):
    /// after observing a failure, an aborting rank calls this so peers
    /// blocked on *it* (not on the victim) unblock too — the abort chain
    /// resolves transitively. Markers ride the ordinary mailbox channel,
    /// so each peer sees this rank's real messages before the marker, and
    /// are peeked rather than consumed, so one marker serves every later
    /// receive. Delivery to already-dead endpoints is a no-op.
    pub fn revoke_comm(&mut self, comm: &impl Comm, node: NodeId, at: SimTime) {
        let Ok(me) = self.comm_rank(comm) else {
            return;
        };
        for &ep in comm.peer_group().endpoints.iter() {
            if ep == self.endpoint {
                continue;
            }
            let env = Envelope {
                comm: comm.context(),
                src_rank: me,
                tag: TAG_REVOKED,
                payload: encode_revoke_marker(node, at),
                send_stamp: self.clock,
                src_endpoint: self.endpoint,
                seq: self.seq,
                virtual_size: None,
            };
            let _ = self.router.deliver(ep, env);
        }
    }

    /// Finalize: build the outcome record. Called by the runtime when the
    /// rank function returns.
    pub(crate) fn into_outcome(self) -> crate::router::RankOutcome {
        if let Some(track) = &self.obs {
            track.set_final(self.clock);
        }
        // Energy accrues only while the rank exists (a spawned child's node
        // is not part of the job before the spawn).
        let wall = self.clock - self.start_clock;
        let energy_joules = hwmodel::power::energy_joules(&self.node, wall, self.compute_time);
        crate::router::RankOutcome {
            world: self.world.id,
            rank: self.my_rank,
            node: self.node_id,
            clock: self.clock,
            bytes_sent: self.bytes_sent,
            msgs_sent: self.msgs_sent,
            compute_time: self.compute_time,
            comm_time: self.comm_time,
            energy_joules,
        }
    }
}
