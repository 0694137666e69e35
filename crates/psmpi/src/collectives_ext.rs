//! Additional collective and point-to-point operations: `sendrecv`,
//! prefix scans, reduce-scatter, and vector gather — the parts of the MPI
//! surface applications reach for once they outgrow the basics.

use crate::comm::Communicator;
use crate::datatype::{MpiDatatype, ReduceOp};
use crate::envelope::Status;
use crate::rank::{PsmpiError, Rank};

const TAG_SENDRECV: i32 = -20;
const TAG_SCAN: i32 = -21;
const TAG_REDUCE_SCATTER: i32 = -22;
const TAG_GATHERV: i32 = -23;

impl Rank {
    /// Combined send+receive (MPI_Sendrecv): send `value` to `dst` and
    /// receive from `src` in one call, deadlock-free by construction
    /// (sends are buffered).
    pub fn sendrecv<T: MpiDatatype>(
        &mut self,
        comm: &Communicator,
        dst: usize,
        src: usize,
        value: &T,
    ) -> Result<(T, Status), PsmpiError> {
        self.send_comm(comm, dst, TAG_SENDRECV, value)?;
        self.recv_comm(comm, Some(src), Some(TAG_SENDRECV))
    }

    /// Inclusive prefix reduction (MPI_Scan): rank `i` receives the
    /// reduction of contributions from ranks `0..=i`. Linear-chain
    /// algorithm (deterministic association order, like MPICH's default
    /// for non-commutative safety).
    pub fn scan(
        &mut self,
        comm: &Communicator,
        contribution: &[f64],
        op: ReduceOp,
    ) -> Result<Vec<f64>, PsmpiError> {
        let n = comm.size();
        let me = self.comm_rank(comm)?;
        let mut acc = contribution.to_vec();
        if me > 0 {
            // Chain hop: the running prefix is the left operand.
            self.recv_fold(comm, me - 1, TAG_SCAN, op, &mut acc, false)?;
        }
        if me + 1 < n {
            self.send_slice_comm(comm, me + 1, TAG_SCAN, &acc)?;
        }
        Ok(acc)
    }

    /// Exclusive prefix reduction (MPI_Exscan): rank `i` receives the
    /// reduction over ranks `0..i`; rank 0 receives the identity.
    pub fn exscan(
        &mut self,
        comm: &Communicator,
        contribution: &[f64],
        op: ReduceOp,
    ) -> Result<Vec<f64>, PsmpiError> {
        let n = comm.size();
        let me = self.comm_rank(comm)?;
        let mut incoming = vec![op.identity(); contribution.len()];
        if me > 0 {
            self.recv_into_comm(comm, Some(me - 1), Some(TAG_SCAN), &mut incoming)?;
        }
        if me + 1 < n {
            let mut outgoing = incoming.clone();
            op.apply_slice(&mut outgoing, contribution);
            self.send_slice_comm(comm, me + 1, TAG_SCAN, &outgoing)?;
        }
        Ok(incoming)
    }

    /// Reduce-scatter with equal blocks (MPI_Reduce_scatter_block): the
    /// element-wise reduction of everyone's `n × block` vector is computed
    /// and rank `i` receives block `i`.
    ///
    /// Power-of-two communicators use recursive halving — the first half
    /// of a Rabenseifner allreduce — where each of the log₂ n rounds
    /// exchanges only the half of the working vector the rank is not going
    /// to own, so total traffic is O(vector) instead of the O(vector ·
    /// depth) a reduce-to-root funnel moves. The combine is applied
    /// lower-rank-partial first, giving every element one deterministic
    /// association tree. Other sizes keep the reduce + scatter fallback.
    pub fn reduce_scatter_block(
        &mut self,
        comm: &Communicator,
        contribution: &[f64],
        op: ReduceOp,
    ) -> Result<Vec<f64>, PsmpiError> {
        let n = comm.size();
        if !contribution.len().is_multiple_of(n) {
            return Err(PsmpiError::InvalidRank {
                rank: contribution.len(),
                size: n,
            });
        }
        let block = contribution.len() / n;
        let me = self.comm_rank(comm)?;
        if !n.is_power_of_two() || n < 2 {
            let reduced = self.reduce(comm, 0, contribution, op)?;
            let blocks: Option<Vec<Vec<f64>>> =
                reduced.map(|r| r.chunks(block).map(<[f64]>::to_vec).collect());
            return self.scatter(comm, 0, blocks);
        }
        // Recursive halving over block range [lo, lo + count): each round
        // pairs `me` with `me ^ mask`; the pair splits the range in half,
        // the lower-rank member keeps the lower half, and each sends the
        // half it gives up. After log₂ n rounds the range is exactly block
        // `me`, reduced over all ranks.
        let mut work = contribution.to_vec();
        let mut lo = 0usize;
        let mut count = n;
        let mut mask = n >> 1;
        while mask > 0 {
            let partner = me ^ mask;
            let half = count / 2;
            let (keep_lo, send_lo) = if me & mask == 0 {
                (lo, lo + half)
            } else {
                (lo + half, lo)
            };
            let outgoing = &work[send_lo * block..(send_lo + half) * block];
            self.send_slice_comm(comm, partner, TAG_REDUCE_SCATTER, outgoing)?;
            let keep = &mut work[keep_lo * block..(keep_lo + half) * block];
            self.recv_fold(comm, partner, TAG_REDUCE_SCATTER, op, keep, partner > me)?;
            lo = keep_lo;
            count = half;
            mask >>= 1;
        }
        Ok(work[lo * block..(lo + 1) * block].to_vec())
    }

    /// Variable-size gather (MPI_Gatherv): each rank contributes a vector
    /// of arbitrary length; root receives them all, in rank order.
    pub fn gatherv<T: MpiDatatype + Clone>(
        &mut self,
        comm: &Communicator,
        root: usize,
        value: &[T],
    ) -> Result<Option<Vec<Vec<T>>>, PsmpiError> {
        let n = comm.size();
        let me = self.comm_rank(comm)?;
        if me != root {
            // The `Vec<T>` frame, encoded straight from the slice.
            let pool = self.router().buffer_pool();
            let mut wire = pool.get(8 + T::FIXED_WIDTH.unwrap_or(0) * value.len());
            (value.len() as u64).encode(&mut wire);
            T::encode_slice(value, &mut wire);
            self.send_bytes_comm(comm, root, TAG_GATHERV, wire.freeze())?;
            return Ok(None);
        }
        let from = |src| match src == root {
            true => Ok(value.to_vec()),
            false => Ok(self
                .recv_comm::<Vec<T>>(comm, Some(src), Some(TAG_GATHERV))?
                .0),
        };
        (0..n).map(from).collect::<Result<_, _>>().map(Some)
    }

    /// Global minimum *and* its owning rank (MPI_MINLOC over one double).
    pub fn minloc(&mut self, comm: &Communicator, value: f64) -> Result<(f64, usize), PsmpiError> {
        let me = self.comm_rank(comm)?;
        // Encode (value, rank) pairs; reduce keeps the smaller value with
        // ties by lower rank.
        let pairs = self.allgather(comm, &(value, me as u64))?;
        let best = pairs
            .into_iter()
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
            .expect("non-empty communicator");
        Ok((best.0, best.1 as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::UniverseBuilder;
    use hwmodel::presets::deep_er_cluster_node;

    fn run(n: u32, f: impl Fn(&mut Rank) + Send + Sync + 'static) {
        UniverseBuilder::new()
            .add_nodes(n, &deep_er_cluster_node())
            .run(f);
    }

    #[test]
    fn sendrecv_ring_shift() {
        run(4, |rank| {
            let w = rank.world();
            let n = w.size();
            let me = rank.rank();
            let right = (me + 1) % n;
            let left = (me + n - 1) % n;
            let (got, st) = rank.sendrecv(&w, right, left, &(me as u64)).unwrap();
            assert_eq!(got, left as u64);
            assert_eq!(st.source, left);
        });
    }

    #[test]
    fn scan_computes_prefix_sums() {
        run(5, |rank| {
            let w = rank.world();
            let me = rank.rank() as f64;
            let s = rank.scan(&w, &[me, 1.0], ReduceOp::Sum).unwrap();
            let expect: f64 = (0..=rank.rank()).map(|i| i as f64).sum();
            assert_eq!(s, vec![expect, rank.rank() as f64 + 1.0]);
        });
    }

    #[test]
    fn exscan_excludes_self() {
        run(4, |rank| {
            let w = rank.world();
            let s = rank.exscan(&w, &[1.0], ReduceOp::Sum).unwrap();
            assert_eq!(s, vec![rank.rank() as f64]);
            let m = rank
                .exscan(&w, &[rank.rank() as f64], ReduceOp::Max)
                .unwrap();
            if rank.rank() == 0 {
                assert_eq!(m, vec![f64::NEG_INFINITY], "identity on rank 0");
            } else {
                assert_eq!(m, vec![(rank.rank() - 1) as f64]);
            }
        });
    }

    #[test]
    fn reduce_scatter_distributes_blocks() {
        run(3, |rank| {
            let w = rank.world();
            // Everyone contributes [1,2,3,4,5,6]; the sum is 3× that; rank
            // i gets block i of length 2.
            let contribution = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
            let mine = rank
                .reduce_scatter_block(&w, &contribution, ReduceOp::Sum)
                .unwrap();
            let b = rank.rank() as f64;
            assert_eq!(mine, vec![(2.0 * b + 1.0) * 3.0, (2.0 * b + 2.0) * 3.0]);
        });
    }

    #[test]
    fn reduce_scatter_recursive_halving_matches_fallback_semantics() {
        // 4 ranks exercises the power-of-two recursive-halving path; the
        // expected blocks are identical to what reduce + scatter gives.
        run(4, |rank| {
            let w = rank.world();
            let me = rank.rank() as f64;
            let contribution: Vec<f64> = (0..8).map(|i| i as f64 + me).collect();
            let mine = rank
                .reduce_scatter_block(&w, &contribution, ReduceOp::Sum)
                .unwrap();
            // Sum over ranks of (i + r) = 4i + 6 for element i.
            let b = rank.rank() * 2;
            assert_eq!(mine, vec![4.0 * b as f64 + 6.0, 4.0 * (b + 1) as f64 + 6.0]);
            let max = rank
                .reduce_scatter_block(&w, &contribution, ReduceOp::Max)
                .unwrap();
            assert_eq!(max, vec![b as f64 + 3.0, (b + 1) as f64 + 3.0]);
        });
    }

    #[test]
    fn reduce_scatter_rejects_ragged_input() {
        run(3, |rank| {
            let w = rank.world();
            let bad = vec![0.0; 4]; // not divisible by 3
            assert!(rank.reduce_scatter_block(&w, &bad, ReduceOp::Sum).is_err());
        });
    }

    #[test]
    fn gatherv_variable_lengths() {
        run(4, |rank| {
            let w = rank.world();
            let mine: Vec<u64> = (0..rank.rank() as u64).collect();
            let g = rank.gatherv(&w, 2, &mine).unwrap();
            if rank.rank() == 2 {
                let g = g.unwrap();
                assert_eq!(g.len(), 4);
                for (r, v) in g.iter().enumerate() {
                    assert_eq!(v.len(), r);
                }
            } else {
                assert!(g.is_none());
            }
        });
    }

    #[test]
    fn minloc_finds_owner() {
        run(5, |rank| {
            let w = rank.world();
            // Rank 3 has the smallest value.
            let value = if rank.rank() == 3 {
                -7.5
            } else {
                rank.rank() as f64
            };
            let (v, owner) = rank.minloc(&w, value).unwrap();
            assert_eq!(v, -7.5);
            assert_eq!(owner, 3);
        });
    }
}
