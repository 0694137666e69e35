//! `MPI_Comm_spawn` — the Cluster-Booster offload mechanism.
//!
//! Per the paper (§III-A, Fig. 4): a (sub-)set of application processes
//! running on either Cluster or Booster collectively calls spawn with the
//! binary to run and the number of processes to start. It returns an
//! inter-communicator providing a connection handle to the children; each
//! child calls `MPI_Init` as usual and finds the other end via
//! `MPI_Get_parent`. Both sides have their own `MPI_COMM_WORLD`.
//!
//! Here the "binary" is a Rust closure, the placement is an explicit node
//! list (the `cluster-booster` resource manager computes it), and the
//! children's handle is [`crate::Rank::parent`].

use crate::comm::{Communicator, Group, Intercomm};
use crate::datatype::MpiDatatype;
use crate::rank::{PsmpiError, Rank};
use crate::universe::{cores_per_rank, spawn_rank_thread, RankFn};
use bytes::{Buf, BufMut};
use hwmodel::NodeId;
use std::sync::Arc;

/// Wire form of a group (endpoint ids + node ids), broadcast from the spawn
/// root to the other parents.
#[derive(Debug, Clone, PartialEq)]
struct WireGroup {
    endpoints: Vec<u64>,
    nodes: Vec<u32>,
}

impl MpiDatatype for WireGroup {
    fn encode(&self, buf: &mut bytes::BytesMut) {
        self.endpoints.encode(buf);
        self.nodes.encode(buf);
    }
    fn decode(buf: &mut bytes::Bytes) -> Result<Self, crate::datatype::CodecError> {
        Ok(WireGroup {
            endpoints: Vec::decode(buf)?,
            nodes: Vec::decode(buf)?,
        })
    }
}

#[derive(Debug, Clone, PartialEq)]
struct SpawnInfo {
    child_world: u64,
    intercomm: u64,
    group: WireGroup,
    start_clock_ns: u64,
}

impl MpiDatatype for SpawnInfo {
    fn encode(&self, buf: &mut bytes::BytesMut) {
        buf.put_u64_le(self.child_world);
        buf.put_u64_le(self.intercomm);
        self.group.encode(buf);
        buf.put_u64_le(self.start_clock_ns);
    }
    fn decode(buf: &mut bytes::Bytes) -> Result<Self, crate::datatype::CodecError> {
        if buf.remaining() < 16 {
            return Err(crate::datatype::CodecError("short SpawnInfo".into()));
        }
        let child_world = buf.get_u64_le();
        let intercomm = buf.get_u64_le();
        let group = WireGroup::decode(buf)?;
        if buf.remaining() < 8 {
            return Err(crate::datatype::CodecError("short SpawnInfo clock".into()));
        }
        let start_clock_ns = buf.get_u64_le();
        Ok(SpawnInfo {
            child_world,
            intercomm,
            group,
            start_clock_ns,
        })
    }
}

impl Rank {
    /// Collectively spawn a child world (one rank per entry of
    /// `placements`) running `entry`, and connect to it with an
    /// inter-communicator. Every member of `comm` must call this; the
    /// `placements`/`entry` arguments of rank 0 (the spawn root) win, as
    /// with `MPI_Comm_spawn`'s root-only arguments.
    pub fn spawn(
        &mut self,
        comm: &Communicator,
        placements: &[NodeId],
        entry: Arc<RankFn>,
    ) -> Result<Intercomm, PsmpiError> {
        let me = self.comm_rank(comm)?;

        // The whole spawn — launch latency, thread start, SpawnInfo
        // broadcast — is offload machinery.
        let span = self.obs_open(obs::Category::Offload, "comm_spawn");
        let result = self.spawn_inner(comm, placements, entry, me);
        self.obs_close(span);
        result
    }

    fn spawn_inner(
        &mut self,
        comm: &Communicator,
        placements: &[NodeId],
        entry: Arc<RankFn>,
        me: usize,
    ) -> Result<Intercomm, PsmpiError> {
        let info = if me == 0 {
            if placements.is_empty() {
                return Err(PsmpiError::Spawn("empty placement list".into()));
            }
            let router = self.router().clone();
            // Charge the launch cost (process start, remote boot) to the
            // root before stamping anything, so children start no earlier.
            self.advance(router.spawn_latency);

            let child_world_id = router.alloc_comm();
            let intercomm_id = router.alloc_comm();
            let child_group = crate::universe::build_group(&router, placements);
            let child_group = Arc::new(child_group);
            let cores = cores_per_rank(&router, placements);
            let start_clock = self.now();

            let child_world = Communicator {
                id: child_world_id,
                group: child_group.clone(),
            };
            let parent_ic_for_children = Intercomm {
                id: intercomm_id,
                local: child_group.clone(),
                remote: comm.group.clone(),
            };
            // Children's tracks point back at the spawn root: the
            // critical-path walk crosses the intercommunicator through
            // this origin even before any message flows.
            let obs_origin = self.obs().map(|t| t.key());
            let mut handles = Vec::with_capacity(placements.len());
            for (i, &node) in placements.iter().enumerate() {
                handles.push(spawn_rank_thread(
                    router.clone(),
                    child_world.clone(),
                    i,
                    node,
                    Some(parent_ic_for_children.clone()),
                    start_clock,
                    cores[i],
                    obs_origin,
                    entry.clone(),
                ));
            }
            // Registered before the broadcast, which must not run under
            // `child_handles`: it takes mailbox and pool locks, and
            // `Universe::launch`'s join drain waits on this lock.
            router.child_handles.lock().extend(handles);

            let info = SpawnInfo {
                child_world: child_world_id.0,
                intercomm: intercomm_id.0,
                group: WireGroup {
                    endpoints: child_group.endpoints.iter().map(|e| e.0).collect(),
                    nodes: child_group.nodes.iter().map(|n| n.0).collect(),
                },
                start_clock_ns: start_clock.as_nanos() as u64,
            };
            self.bcast(comm, 0, Some(info))?
        } else {
            self.bcast::<SpawnInfo>(comm, 0, None)?
        };

        let remote = Arc::new(Group {
            endpoints: info
                .group
                .endpoints
                .iter()
                .map(|&e| crate::envelope::EndpointId(e))
                .collect(),
            nodes: info.group.nodes.iter().map(|&n| NodeId(n)).collect(),
        });
        Ok(Intercomm {
            id: crate::comm::CommId(info.intercomm),
            local: comm.group.clone(),
            remote,
        })
    }

    /// Convenience: spawn using this rank's world as the parent
    /// communicator, with one child per placement and one counting
    /// rank-per-node core share.
    pub fn spawn_world<F>(
        &mut self,
        placements: &[NodeId],
        entry: F,
    ) -> Result<Intercomm, PsmpiError>
    where
        F: Fn(&mut Rank) + Send + Sync + 'static,
    {
        let w = self.world();
        self.spawn(&w, placements, Arc::new(entry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    #[test]
    fn wire_group_roundtrip() {
        let g = WireGroup {
            endpoints: vec![1, 2, 3],
            nodes: vec![7, 8, 9],
        };
        let mut buf = BytesMut::new();
        g.encode(&mut buf);
        let back = WireGroup::decode(&mut buf.freeze()).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn spawn_info_roundtrip() {
        let i = SpawnInfo {
            child_world: 5,
            intercomm: 6,
            group: WireGroup {
                endpoints: vec![10],
                nodes: vec![3],
            },
            start_clock_ns: 123_456,
        };
        let mut buf = BytesMut::new();
        i.encode(&mut buf);
        let back = SpawnInfo::decode(&mut buf.freeze()).unwrap();
        assert_eq!(back, i);
    }

    #[test]
    fn spawn_info_short_buffer() {
        let raw = bytes::Bytes::from_static(&[0, 1, 2]);
        assert!(SpawnInfo::from_bytes(raw).is_err());
    }
}
