//! Collective operations, implemented as real message-passing algorithms on
//! top of point-to-point — the same way an MPI library builds them — so
//! their virtual-time behaviour (log-depth trees, synchronization) emerges
//! from the fabric model without a separate collective cost model.
//!
//! Internal messages use reserved negative tags; user code should use
//! non-negative tags.

use crate::comm::{CommId, Communicator, Group};
use crate::datatype::{CodecError, MpiDatatype, ReduceOp};
use crate::pool::MAX_POOLED_CAPACITY;
use crate::rank::{PsmpiError, Rank};
use std::sync::Arc;

/// Reserved tags for internal collective traffic.
const TAG_BARRIER: i32 = -10;
const TAG_BCAST: i32 = -11;
const TAG_REDUCE: i32 = -12;
const TAG_GATHER: i32 = -13;
const TAG_SCATTER: i32 = -14;
const TAG_ALLTOALL: i32 = -15;
const TAG_SPLIT: i32 = -16;
const TAG_ALLREDUCE: i32 = -17;
const TAG_BCAST_HDR: i32 = -18;
const TAG_BCAST_SEG: i32 = -19;
// -20..-23 are used by `collectives_ext`.
const TAG_ALLGATHER: i32 = -24;

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
    /// once and recycles the buffer. Fan-out does not re-serialize.
    pub fn bcast<T: MpiDatatype + Clone>(
        &mut self,
        comm: &Communicator,
        root: usize,
        value: Option<T>,
    ) -> Result<T, PsmpiError> {
        let is_root = self.comm_rank(comm)? == root;
        let own = value.filter(|_| is_root); // a non-root's is ignored
        let payload = own.as_ref().map(|v| v.to_wire(self.buffer_pool()));
        let bytes = self.bcast_bytes(comm, root, payload)?;
        if let Some(own) = own {
            return Ok(own);
        }
        let received = T::from_bytes(bytes.clone())?;
        self.buffer_pool().recycle(bytes);
        Ok(received)
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
    /// root's single allocation; only the final reassembly writes bytes,
    /// into a pool-drawn buffer.
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
                let header = (payload.len() as u64, seg as u64);
                for &c in &children {
                    self.send_comm(comm, to_abs(c), TAG_BCAST_HDR, &header)?;
                }
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
        let (header, _) =
            self.recv_comm::<(u64, u64)>(comm, Some(parent_abs), Some(TAG_BCAST_HDR))?;
        for &c in &children {
            self.send_comm(comm, to_abs(c), TAG_BCAST_HDR, &header)?;
        }
        // The header sizes an allocation and bounds a loop, so it is trusted
        // no further than the pool's ceiling and the segments bear it out.
        let (total, seg) = (header.0 as usize, header.1 as usize);
        let bad = |why: String| PsmpiError::Codec(CodecError(format!("segmented bcast: {why}")));
        if seg == 0 && total > 0 {
            return Err(bad(format!("{total} bytes in empty segments")));
        }
        let mut out = self.buffer_pool().get(total.min(MAX_POOLED_CAPACITY));
        while out.len() < total {
            let (slice, _) = self.recv_bytes_comm(comm, Some(parent_abs), Some(TAG_BCAST_SEG))?;
            let (len, left) = (slice.len(), total - out.len());
            if len > seg || len > left {
                return Err(bad(format!("{len}-byte segment, max {seg}, {left} left")));
            }
            for &c in &children {
                self.send_bytes_comm(comm, to_abs(c), TAG_BCAST_SEG, slice.clone())?;
            }
            out.extend_from_slice(&slice);
        }
        Ok(out.freeze())
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
    /// pairwise exchanges, reducing in place, with the combine always
    /// applied lower-rank-block first. That ordering makes every rank
    /// evaluate the *same balanced association tree* — the one the
    /// reduce-to-0 + bcast fallback also evaluates — so results are
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
            if !n.is_power_of_two() || n < 2 {
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
    /// the wire ([`ReduceOp::fold_wire`]): [`Rank::recv_into_comm`]'s match,
    /// arrival and `recv` span, with the combine in place of the decode.
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
        op.fold_wire(acc, &theirs, acc_first)?;
        self.buffer_pool().recycle(theirs);
        Ok(())
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
                rank.send_bytes_comm_sized(comm, root, TAG_GATHER, payload, framed)?;
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

    /// Every rank gets every rank's value, in rank order (ring algorithm:
    /// n−1 rounds, each rank forwarding the block it just received to its
    /// right neighbour). Bandwidth-optimal — each block crosses each link
    /// once, encoded once at its origin and refcount-forwarded around the
    /// ring — unlike the old gather-to-0 + bcast, which moved the whole
    /// assembled vector down a tree after serializing it a second time.
    pub fn allgather<T: MpiDatatype + Clone>(
        &mut self,
        comm: &Communicator,
        value: &T,
    ) -> Result<Vec<T>, PsmpiError> {
        self.with_collective("allgather", |rank| rank.allgather_impl(comm, value))
    }

    fn allgather_impl<T: MpiDatatype + Clone>(
        &mut self,
        comm: &Communicator,
        value: &T,
    ) -> Result<Vec<T>, PsmpiError> {
        let n = comm.size();
        let me = self.comm_rank(comm)?;
        if n == 1 {
            return Ok(vec![value.clone()]);
        }
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        let mut blocks: Vec<Option<bytes::Bytes>> = vec![None; n];
        let own = value.to_wire(self.router().buffer_pool());
        blocks[me] = Some(own.clone());
        let mut current = own;
        for round in 0..n - 1 {
            self.send_bytes_comm(comm, right, TAG_ALLGATHER, current)?;
            let (incoming, _) = self.recv_bytes_comm(comm, Some(left), Some(TAG_ALLGATHER))?;
            // Round r delivers the block that originated r+1 hops to the
            // left (FIFO per link keeps the stream in origin order).
            let origin = (me + n - 1 - round) % n;
            blocks[origin] = Some(incoming.clone());
            current = incoming;
        }
        let mut out = Vec::with_capacity(n);
        for b in blocks {
            out.push(T::from_bytes(b.expect("ring filled every block"))?);
        }
        Ok(out)
    }

    /// Scatter `values[i]` from `root` to rank `i`. Root passes `Some`
    /// with exactly `comm.size()` elements.
    pub fn scatter<T: MpiDatatype + Clone>(
        &mut self,
        comm: &Communicator,
        root: usize,
        values: Option<Vec<T>>,
    ) -> Result<T, PsmpiError> {
        self.with_collective("scatter", |rank| rank.scatter_impl(comm, root, values))
    }

    fn scatter_impl<T: MpiDatatype + Clone>(
        &mut self,
        comm: &Communicator,
        root: usize,
        values: Option<Vec<T>>,
    ) -> Result<T, PsmpiError> {
        let n = comm.size();
        let me = self.comm_rank(comm)?;
        if me == root {
            let vals = values
                .ok_or_else(|| PsmpiError::Spawn("scatter root must supply values".into()))?;
            if vals.len() != n {
                return Err(PsmpiError::InvalidRank {
                    rank: vals.len(),
                    size: n,
                });
            }
            let mut own: Option<T> = None;
            for (i, v) in vals.into_iter().enumerate() {
                if i == me {
                    own = Some(v);
                } else {
                    self.send_comm(comm, i, TAG_SCATTER, &v)?;
                }
            }
            Ok(own.expect("root keeps its own element"))
        } else {
            let (v, _) = self.recv_comm::<T>(comm, Some(root), Some(TAG_SCATTER))?;
            Ok(v)
        }
    }

    /// All-to-all personalized exchange: rank `i` receives `values[i]` from
    /// every rank, assembled in source order.
    pub fn alltoall<T: MpiDatatype + Clone>(
        &mut self,
        comm: &Communicator,
        values: &[T],
    ) -> Result<Vec<T>, PsmpiError> {
        self.with_collective("alltoall", |rank| rank.alltoall_impl(comm, values))
    }

    fn alltoall_impl<T: MpiDatatype + Clone>(
        &mut self,
        comm: &Communicator,
        values: &[T],
    ) -> Result<Vec<T>, PsmpiError> {
        let n = comm.size();
        let me = self.comm_rank(comm)?;
        if values.len() != n {
            return Err(PsmpiError::InvalidRank {
                rank: values.len(),
                size: n,
            });
        }
        // Buffered sends cannot deadlock; send everything, then receive.
        for (i, v) in values.iter().enumerate() {
            if i != me {
                self.send_comm(comm, i, TAG_ALLTOALL, v)?;
            }
        }
        let mut out: Vec<Option<T>> = vec![None; n];
        out[me] = Some(values[me].clone());
        for (src, slot) in out.iter_mut().enumerate() {
            if src == me {
                continue;
            }
            let (v, _) = self.recv_comm::<T>(comm, Some(src), Some(TAG_ALLTOALL))?;
            *slot = Some(v);
        }
        Ok(out.into_iter().map(|o| o.expect("all received")).collect())
    }

    /// Split `comm` into sub-communicators by `color`; ranks passing the
    /// same color end up in the same new communicator, ordered by
    /// `(key, old rank)`. Returns `None` for `color = None` (the
    /// MPI_UNDEFINED case).
    pub fn split(
        &mut self,
        comm: &Communicator,
        color: Option<u32>,
        key: i64,
    ) -> Result<Option<Communicator>, PsmpiError> {
        let n = comm.size();
        let me = self.comm_rank(comm)?;
        // Gather (has_color, color, key) to rank 0.
        let entry = (color.is_some(), color.unwrap_or(0), key);
        let gathered = self.gather(comm, 0, &entry)?;

        // Rank 0 computes the assignment: for each old rank, the members of
        // its color group (old ranks, ordered) — or empty for undefined.
        let assignment: Vec<Vec<u64>> = if let Some(entries) = gathered {
            let mut colors: Vec<u32> = entries
                .iter()
                .filter(|(has, _, _)| *has)
                .map(|(_, c, _)| *c)
                .collect();
            colors.sort_unstable();
            colors.dedup();
            let mut per_rank: Vec<Vec<u64>> = vec![Vec::new(); n];
            for &c in &colors {
                let mut members: Vec<(i64, usize)> = entries
                    .iter()
                    .enumerate()
                    .filter(|(_, (has, col, _))| *has && *col == c)
                    .map(|(r, (_, _, k))| (*k, r))
                    .collect();
                members.sort_unstable();
                let ordered: Vec<u64> = members.iter().map(|(_, r)| *r as u64).collect();
                for &(_, r) in &members {
                    per_rank[r] = ordered.clone();
                }
            }
            per_rank
        } else {
            Vec::new()
        };

        // Rank 0 allocates one context id per distinct color group and sends
        // each rank its (comm id, member list). A group is identified by its
        // ordered member list.
        let my_info: (u64, Vec<u64>) = if me == 0 {
            let mut ids: Vec<(Vec<u64>, u64)> = Vec::new();
            let mut my_own: (u64, Vec<u64>) = (u64::MAX, Vec::new());
            for (r, members) in assignment.iter().enumerate() {
                let info = if members.is_empty() {
                    (u64::MAX, Vec::new())
                } else {
                    let id = match ids.iter().find(|(m, _)| m == members) {
                        Some((_, id)) => *id,
                        None => {
                            let id = self.router().alloc_comm().0;
                            ids.push((members.clone(), id));
                            id
                        }
                    };
                    (id, members.clone())
                };
                if r == 0 {
                    my_own = info;
                } else {
                    self.send_comm(comm, r, TAG_SPLIT, &info)?;
                }
            }
            my_own
        } else {
            let (info, _) = self.recv_comm::<(u64, Vec<u64>)>(comm, Some(0), Some(TAG_SPLIT))?;
            info
        };

        let (new_id, members) = my_info;
        if new_id == u64::MAX {
            return Ok(None);
        }
        let group = Group {
            endpoints: members
                .iter()
                .map(|&r| comm.group.endpoints[r as usize])
                .collect(),
            nodes: members
                .iter()
                .map(|&r| comm.group.nodes[r as usize])
                .collect(),
        };
        Ok(Some(Communicator {
            id: CommId(new_id),
            group: Arc::new(group),
        }))
    }

    /// Duplicate a communicator (fresh context id, same group).
    pub fn dup(&mut self, comm: &Communicator) -> Result<Communicator, PsmpiError> {
        let me = self.comm_rank(comm)?;
        let id = if me == 0 {
            let id = self.router().alloc_comm().0;
            self.bcast(comm, 0, Some(id))?
        } else {
            self.bcast::<u64>(comm, 0, None)?
        };
        Ok(Communicator {
            id: CommId(id),
            group: comm.group.clone(),
        })
    }
}
