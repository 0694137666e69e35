//! Collective operations, implemented as real message-passing algorithms on
//! top of point-to-point — the same way an MPI library builds them — so
//! their virtual-time behaviour (log-depth trees, synchronization) emerges
//! from the fabric model without a separate collective cost model.
//!
//! Internal messages use reserved negative tags; user code should use
//! non-negative tags.

use crate::comm::Communicator;
use crate::datatype::{CodecError, MpiDatatype, ReduceOp};
use crate::envelope::Wire;
use crate::pool::{Stage, MAX_POOLED_CAPACITY};
use crate::rank::{PsmpiError, Rank};

/// Reserved tags for internal collective traffic.
const TAG_BARRIER: i32 = -10;
const TAG_BCAST: i32 = -11;
const TAG_REDUCE: i32 = -12;
const TAG_GATHER: i32 = -13;
const TAG_ALLREDUCE: i32 = -17;
const TAG_BCAST_HDR: i32 = -18;
const TAG_BCAST_SEG: i32 = -19;

/// Broadcast payloads above this size go out as a pipelined segment
/// stream instead of one message (see [`Rank::bcast_bytes_with`]).
pub const BCAST_SEGMENT_THRESHOLD: usize = 1 << 20;

/// Default segment size of the pipelined broadcast.
pub const BCAST_SEGMENT_SIZE: usize = 256 << 10;

/// Parent and children of `rel` (rank relative to the root) in the
/// binomial broadcast tree, children in descending-distance (send) order.
fn binomial_tree(rel: usize, n: usize) -> (Option<usize>, Vec<usize>) {
    let mut mask = 1usize;
    let mut parent = None;
    while mask < n {
        if rel & mask != 0 {
            parent = Some(rel ^ mask);
            break;
        }
        mask <<= 1;
    }
    let mut children = Vec::new();
    let mut m = mask >> 1;
    while m > 0 {
        if rel + m < n {
            children.push(rel + m);
        }
        m >>= 1;
    }
    (parent, children)
}

/// A tree root must be a rank of `comm`. Every rank checks before it
/// sends anything, so a bad root is the same error on every rank instead
/// of a tree rooted nowhere.
fn check_root(comm: &Communicator, root: usize) -> Result<(), PsmpiError> {
    let size = comm.size();
    match root < size {
        true => Ok(()),
        false => Err(PsmpiError::InvalidRank { rank: root, size }),
    }
}

impl Rank {
    /// Run `f` inside an automatic `Collective` span (a no-op when no
    /// recorder is attached). The point-to-point spans of the underlying
    /// algorithm nest inside it.
    fn with_collective<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Rank) -> Result<T, PsmpiError>,
    ) -> Result<T, PsmpiError> {
        let span = self.obs_open(obs::Category::Collective, name);
        let result = f(self);
        self.obs_close(span);
        result
    }

    /// Synchronize all ranks of `comm` (dissemination algorithm, ⌈log₂ n⌉
    /// rounds of zero-byte messages).
    pub fn barrier(&mut self, comm: &Communicator) -> Result<(), PsmpiError> {
        self.with_collective("barrier", |rank| rank.barrier_impl(comm))
    }

    fn barrier_impl(&mut self, comm: &Communicator) -> Result<(), PsmpiError> {
        let n = comm.size();
        let me = self.comm_rank(comm)?;
        let mut k = 0usize;
        while (1usize << k) < n {
            let dist = 1usize << k;
            let to = (me + dist) % n;
            let from = (me + n - dist) % n;
            self.send_comm(comm, to, TAG_BARRIER, &(k as u64))?;
            let (round, _) = self.recv_comm::<u64>(comm, Some(from), Some(TAG_BARRIER))?;
            // FIFO per (src, tag) pair guarantees rounds from one source
            // arrive in order, so the match is always our own round.
            debug_assert_eq!(round as usize, k, "dissemination rounds are ordered");
            k += 1;
        }
        Ok(())
    }

    /// Broadcast `value` from `root` to all ranks (binomial tree). Non-root
    /// ranks pass `None` and receive the value; root passes `Some`.
    ///
    /// The value is encoded **once** at the root, which gets its own value
    /// back; intermediate tree nodes forward the received buffer by
    /// reference (see [`Rank::bcast_bytes`]) and every other rank decodes
    /// once. Fan-out does not re-serialize. Every rank then retires its
    /// handle on the root's encoding, and the last one brings it back to
    /// the pool (see [`crate::pool`]): the root into its slot, where its
    /// next encode looks first, a non-root into the shared stacks, where
    /// the root's next encode finds it.
    pub fn bcast<T: MpiDatatype + Clone>(
        &mut self,
        comm: &Communicator,
        root: usize,
        value: Option<T>,
    ) -> Result<T, PsmpiError> {
        let is_root = self.comm_rank(comm)? == root;
        let own = value.filter(|_| is_root); // a non-root's is ignored
        let payload = own.as_ref().map(|v| v.to_wire_via(self.stage()));
        let bytes = self.bcast_bytes(comm, root, payload)?;
        if let Some(own) = own {
            self.retire(bytes);
            return Ok(own);
        }
        let received = T::from_bytes(bytes.clone());
        // Its own slot would keep the root's buffer from the root.
        self.buffer_pool().recycle(bytes);
        Ok(received?)
    }

    /// Zero-copy broadcast of a raw buffer from `root` (binomial tree).
    /// Non-root ranks pass `None`; every rank returns the payload.
    ///
    /// Payloads up to [`BCAST_SEGMENT_THRESHOLD`] travel as one message and
    /// intermediate ranks forward the *received* [`bytes::Bytes`] handle to
    /// their children — a refcount bump per child, never a payload copy —
    /// so one allocation serves the whole tree. Larger payloads switch to a
    /// pipelined segment stream (see [`Rank::bcast_bytes_with`]).
    pub fn bcast_bytes(
        &mut self,
        comm: &Communicator,
        root: usize,
        payload: Option<bytes::Bytes>,
    ) -> Result<bytes::Bytes, PsmpiError> {
        self.bcast_bytes_with(
            comm,
            root,
            payload,
            BCAST_SEGMENT_THRESHOLD,
            BCAST_SEGMENT_SIZE,
        )
    }

    /// [`Rank::bcast_bytes`] with explicit pipelining parameters: payloads
    /// larger than `threshold` are cut into `segment`-byte slices that flow
    /// down the same binomial tree as a stream of messages. A rank forwards
    /// each segment to its subtree as soon as it arrives, so transfers down
    /// different tree levels overlap — the classic segmented-broadcast
    /// pipeline — and that overlap is *emergent* virtual-time behaviour of
    /// the per-message fabric model, not a formula.
    ///
    /// The root decides: receivers learn of the segmented protocol from a
    /// header message (`TAG_BCAST_HDR`), so `threshold`/`segment` need not
    /// match across ranks. Segments are refcount-forwarded slices of the
    /// root's single allocation, and a receiver rejoins them
    /// ([`bytes::Bytes::try_unsplit`]) into one view of it, so every rank
    /// returns the root's buffer and no byte is copied. A stream whose
    /// segments do not rejoin (they come from separate allocations) is
    /// copied into a pool-drawn buffer from the first segment that does
    /// not.
    pub fn bcast_bytes_with(
        &mut self,
        comm: &Communicator,
        root: usize,
        payload: Option<bytes::Bytes>,
        threshold: usize,
        segment: usize,
    ) -> Result<bytes::Bytes, PsmpiError> {
        self.with_collective("bcast", |rank| {
            rank.bcast_bytes_impl(comm, root, payload, threshold, segment)
        })
    }

    fn bcast_bytes_impl(
        &mut self,
        comm: &Communicator,
        root: usize,
        payload: Option<bytes::Bytes>,
        threshold: usize,
        segment: usize,
    ) -> Result<bytes::Bytes, PsmpiError> {
        check_root(comm, root)?;
        let n = comm.size();
        let me = self.comm_rank(comm)?;
        let rel = (me + n - root) % n;
        let to_abs = |r: usize| (r + root) % n;
        let (parent, children) = binomial_tree(rel, n);

        if rel == 0 {
            let payload = payload
                .ok_or_else(|| PsmpiError::Spawn("bcast root must supply a value".into()))?;
            if payload.len() > threshold && n > 1 {
                let seg = segment.max(1);
                // Encoded once, like the payload: every child gets a handle.
                let header = (payload.len() as u64, seg as u64).to_wire_via(self.stage());
                for &c in &children {
                    self.send_bytes_comm(comm, to_abs(c), TAG_BCAST_HDR, header.clone())?;
                }
                self.retire(header);
                let mut off = 0;
                while off < payload.len() {
                    let end = (off + seg).min(payload.len());
                    let slice = payload.slice(off..end);
                    for &c in &children {
                        self.send_bytes_comm(comm, to_abs(c), TAG_BCAST_SEG, slice.clone())?;
                    }
                    off = end;
                }
            } else {
                for &c in &children {
                    self.send_bytes_comm(comm, to_abs(c), TAG_BCAST, payload.clone())?;
                }
            }
            return Ok(payload);
        }

        let parent_abs = to_abs(parent.expect("non-root has a parent"));
        let first = self.probe_either(comm, parent_abs, TAG_BCAST, TAG_BCAST_HDR)?;
        if first == TAG_BCAST {
            let (v, _) = self.recv_bytes_comm(comm, Some(parent_abs), Some(TAG_BCAST))?;
            for &c in &children {
                self.send_bytes_comm(comm, to_abs(c), TAG_BCAST, v.clone())?;
            }
            return Ok(v);
        }
        // The header goes on as received, like the segments, and a rank
        // that rejects it leaves its subtree the same frame to reject.
        let (wire, _) = self.recv_bytes_comm(comm, Some(parent_abs), Some(TAG_BCAST_HDR))?;
        for &c in &children {
            self.send_bytes_comm(comm, to_abs(c), TAG_BCAST_HDR, wire.clone())?;
        }
        let header = <(u64, u64)>::from_bytes(wire.clone());
        self.buffer_pool().recycle(wire);
        // The header sizes an allocation and bounds a loop, so it is trusted
        // no further than the pool's ceiling and the segments bear it out.
        let (total, seg) = header?;
        let (total, seg) = (total as usize, seg as usize);
        let bad = |why: String| PsmpiError::Codec(CodecError(format!("segmented bcast: {why}")));
        if seg == 0 && total > 0 {
            return Err(bad(format!("{total} bytes in empty segments")));
        }
        // The segments so far: one view while they rejoin, else a copy.
        let mut view: Option<bytes::Bytes> = None;
        let mut copy: Option<bytes::BytesMut> = None;
        let mut got = 0;
        while got < total {
            let (slice, _) = self.recv_bytes_comm(comm, Some(parent_abs), Some(TAG_BCAST_SEG))?;
            let (len, left) = (slice.len(), total - got);
            if len > seg || len > left {
                return Err(bad(format!("{len}-byte segment, max {seg}, {left} left")));
            }
            for &c in &children {
                self.send_bytes_comm(comm, to_abs(c), TAG_BCAST_SEG, slice.clone())?;
            }
            got += len;
            let slice = match (view.as_mut(), copy.is_some()) {
                (None, false) => {
                    view = Some(slice); // the first segment
                    continue;
                }
                (Some(joined), _) => match joined.try_unsplit(slice) {
                    Ok(()) => continue,
                    Err(apart) => apart, // the first that does not join
                },
                (None, true) => slice, // copying already
            };
            let out = copy.get_or_insert_with(|| {
                let mut out = self.stage().get(total.min(MAX_POOLED_CAPACITY));
                let joined = view
                    .take()
                    .expect("a segment that fails to join follows one");
                out.extend_from_slice(&joined);
                self.retire(joined);
                out
            });
            out.extend_from_slice(&slice);
            self.retire(slice);
        }
        Ok(copy.map_or_else(|| view.unwrap_or_default(), bytes::BytesMut::freeze))
    }

    /// Reduce element-wise `f64` vectors to `root` (reverse binomial tree).
    /// Returns `Some(result)` on root, `None` elsewhere.
    pub fn reduce(
        &mut self,
        comm: &Communicator,
        root: usize,
        contribution: &[f64],
        op: ReduceOp,
    ) -> Result<Option<Vec<f64>>, PsmpiError> {
        self.with_collective("reduce", |rank| {
            check_root(comm, root)?;
            let n = comm.size();
            let me = rank.comm_rank(comm)?;
            let rel = (me + n - root) % n;
            let mut acc = contribution.to_vec();
            let mut mask = 1usize;
            while mask < n {
                if rel & mask != 0 {
                    let dst = (me + n - mask) % n;
                    rank.send_slice_comm(comm, dst, TAG_REDUCE, &acc)?;
                    return Ok(None);
                }
                let src_rel = rel | mask;
                if src_rel < n {
                    let src = (src_rel + root) % n;
                    rank.recv_fold(comm, src, TAG_REDUCE, op, &mut acc, true)?;
                }
                mask <<= 1;
            }
            Ok(Some(acc))
        })
    }

    /// Every rank gets the element-wise reduction of all contributions.
    /// This is the global-synchronization workhorse of the xPic field
    /// solver's CG iteration.
    ///
    /// Power-of-two communicators use recursive doubling: log₂ n rounds of
    /// pairwise exchanges (none on one rank), reducing in place, with the
    /// combine always applied lower-rank-block first. That ordering makes
    /// every rank evaluate the *same balanced association tree* — the one
    /// the reduce-to-0 + bcast fallback also evaluates — so results are
    /// bit-identical across ranks, across thread counts, and across the
    /// algorithm switch. Other sizes fall back to reduce + bcast.
    pub fn allreduce(
        &mut self,
        comm: &Communicator,
        contribution: &[f64],
        op: ReduceOp,
    ) -> Result<Vec<f64>, PsmpiError> {
        let mut acc = contribution.to_vec();
        self.allreduce_in_place(comm, &mut acc, op)?;
        Ok(acc)
    }

    /// Scalar convenience over [`Rank::allreduce`]; allocates nothing on
    /// the recursive-doubling path.
    pub fn allreduce_scalar(
        &mut self,
        comm: &Communicator,
        value: f64,
        op: ReduceOp,
    ) -> Result<f64, PsmpiError> {
        let mut acc = [value];
        self.allreduce_in_place(comm, &mut acc, op)?;
        Ok(acc[0])
    }

    /// [`Rank::allreduce`] over a caller-owned block: `acc` holds this
    /// rank's contribution on entry and the reduction on return.
    fn allreduce_in_place(
        &mut self,
        comm: &Communicator,
        acc: &mut [f64],
        op: ReduceOp,
    ) -> Result<(), PsmpiError> {
        self.with_collective("allreduce", |rank| {
            let n = comm.size();
            if !n.is_power_of_two() {
                let reduced = rank.reduce(comm, 0, acc, op)?;
                acc.copy_from_slice(&rank.bcast(comm, 0, reduced)?);
                return Ok(());
            }
            let me = rank.comm_rank(comm)?;
            let mut mask = 1usize;
            while mask < n {
                let partner = me ^ mask;
                rank.send_slice_comm(comm, partner, TAG_ALLREDUCE, acc)?;
                // Lower-rank block first, whichever side of the pair we are.
                rank.recv_fold(comm, partner, TAG_ALLREDUCE, op, acc, partner > me)?;
                mask <<= 1;
            }
            Ok(())
        })
    }

    /// Receive rank `src`'s block of a reduction and fold it into `acc` off
    /// the wire ([`ReduceOp::fold_wire`]): a blocking receive's match,
    /// arrival and `recv` span, with the combine in place of a decode. The
    /// block goes back to the pool whether the fold takes or rejects it.
    pub(crate) fn recv_fold(
        &mut self,
        comm: &Communicator,
        src: usize,
        tag: i32,
        op: ReduceOp,
        acc: &mut [f64],
        acc_first: bool,
    ) -> Result<(), PsmpiError> {
        let (theirs, _) = self.recv_bytes_comm(comm, Some(src), Some(tag))?;
        let folded = op.fold_wire(acc, &theirs, acc_first);
        self.retire(theirs);
        Ok(folded?)
    }

    /// Gather one value from every rank to `root`, in rank order. Returns
    /// `Some(vec)` on root, `None` elsewhere.
    pub fn gather<T: MpiDatatype + Clone>(
        &mut self,
        comm: &Communicator,
        root: usize,
        value: &T,
    ) -> Result<Option<Vec<T>>, PsmpiError> {
        self.with_collective("gather", |rank| rank.gather_impl(comm, root, value))
    }

    fn gather_impl<T: MpiDatatype + Clone>(
        &mut self,
        comm: &Communicator,
        root: usize,
        value: &T,
    ) -> Result<Option<Vec<T>>, PsmpiError> {
        let n = comm.size();
        let me = self.comm_rank(comm)?;
        if me != root {
            self.send_comm(comm, root, TAG_GATHER, value)?;
            return Ok(None);
        }
        let from = |src| match src == root {
            true => Ok(value.clone()),
            false => Ok(self.recv_comm::<T>(comm, Some(src), Some(TAG_GATHER))?.0),
        };
        (0..n).map(from).collect::<Result<_, _>>().map(Some)
    }

    /// [`Rank::gather`] of one raw payload per rank that moves the `Bytes`
    /// handles instead of their contents: root's vector shares storage with
    /// what each rank passed in. Charged on the wire like a gathered
    /// `Vec<u8>`: the payload plus its 8-byte length header.
    pub fn gather_bytes(
        &mut self,
        comm: &Communicator,
        root: usize,
        payload: bytes::Bytes,
    ) -> Result<Option<Vec<bytes::Bytes>>, PsmpiError> {
        self.with_collective("gather", |rank| {
            if rank.comm_rank(comm)? != root {
                let framed = payload.len() + 8;
                let wire = Wire::modelled(payload, framed);
                rank.send_bytes_comm(comm, root, TAG_GATHER, wire)?;
                return Ok(None);
            }
            let from = |src| match src == root {
                true => Ok(payload.clone()),
                false => Ok(rank.recv_bytes_comm(comm, Some(src), Some(TAG_GATHER))?.0),
            };
            (0..comm.size())
                .map(from)
                .collect::<Result<_, _>>()
                .map(Some)
        })
    }
}
