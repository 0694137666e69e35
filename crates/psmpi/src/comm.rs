//! Communicators: intra-communicators (a world or a split of one) and
//! inter-communicators (the spawn-offload connection of Fig. 4).

use crate::envelope::EndpointId;
use hwmodel::NodeId;
use std::sync::Arc;

/// Identifies a communicator. Unique within a [`crate::Universe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CommId(pub u64);

/// An ordered set of endpoints: rank *r* of the communicator is
/// `endpoints[r]` running on `nodes[r]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    /// Endpoint of each rank.
    pub endpoints: Vec<EndpointId>,
    /// Node each rank runs on.
    pub nodes: Vec<NodeId>,
}

impl Group {
    /// Number of ranks in the group.
    pub fn len(&self) -> usize {
        self.endpoints.len()
    }

    /// True if the group is empty.
    pub fn is_empty(&self) -> bool {
        self.endpoints.is_empty()
    }

    /// The rank of an endpoint within this group, if it is a member.
    pub fn rank_of(&self, ep: EndpointId) -> Option<usize> {
        self.endpoints.iter().position(|&e| e == ep)
    }
}

/// An intra-communicator: a group plus a context id. All collective
/// operations and ordinary point-to-point run on these.
#[derive(Debug, Clone)]
pub struct Communicator {
    /// Context id used for message matching.
    pub id: CommId,
    /// The member group.
    pub group: Arc<Group>,
}

impl Communicator {
    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.group.len()
    }

    /// Node of a given rank.
    pub fn node_of(&self, rank: usize) -> NodeId {
        self.group.nodes[rank]
    }
}

/// An inter-communicator: connects two disjoint groups (parent and child
/// worlds after `spawn`). Point-to-point addressing is *remote-group
/// relative*, exactly as in MPI: `send(dst, ..)` sends to rank `dst` of the
/// remote group, and a received message's `source` is the sender's rank in
/// its own (our remote) group.
#[derive(Debug, Clone)]
pub struct Intercomm {
    /// Context id used for message matching.
    pub id: CommId,
    /// Our side.
    pub local: Arc<Group>,
    /// The other side.
    pub remote: Arc<Group>,
}

impl Intercomm {
    /// Size of the local group.
    pub fn local_size(&self) -> usize {
        self.local.len()
    }

    /// Size of the remote group.
    pub fn remote_size(&self) -> usize {
        self.remote.len()
    }

    /// Sever the connection — the analogue of `MPI_Comm_disconnect`.
    ///
    /// Consumes the handle, so the borrow checker rules out use-after-
    /// disconnect through *this* handle; deepcheck's M001 lint covers the
    /// remaining lexical shapes (clones of the handle used after a
    /// `.disconnect()` in the same file). A spawned world keeps running
    /// after its parent disconnects — only the message channel goes away.
    pub fn disconnect(self) {}
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Communicator {}
    impl Sealed for super::Intercomm {}
}

/// What point-to-point needs to know of a communicator, implemented by
/// [`Communicator`] and [`Intercomm`] alike — in MPI an inter-communicator
/// *is* a communicator, so every `*_comm` method of [`crate::Rank`] takes
/// either. Sealed: the matching engine relies on context ids handed out by
/// the universe.
pub trait Comm: sealed::Sealed {
    /// Context id used for message matching.
    fn context(&self) -> CommId;
    /// The group the caller must belong to; its index there is the
    /// `source` its peers see.
    fn local_group(&self) -> &Group;
    /// The group `dst`/`src` ranks index: the communicator's own group, or
    /// an inter-communicator's remote group.
    fn peer_group(&self) -> &Group;
}

impl Comm for Communicator {
    fn context(&self) -> CommId {
        self.id
    }
    fn local_group(&self) -> &Group {
        &self.group
    }
    fn peer_group(&self) -> &Group {
        &self.group
    }
}

impl Comm for Intercomm {
    fn context(&self) -> CommId {
        self.id
    }
    fn local_group(&self) -> &Group {
        &self.local
    }
    fn peer_group(&self) -> &Group {
        &self.remote
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(ids: &[u64]) -> Group {
        Group {
            endpoints: ids.iter().map(|&i| EndpointId(i)).collect(),
            nodes: ids.iter().map(|&i| NodeId(i as u32)).collect(),
        }
    }

    #[test]
    fn group_rank_lookup() {
        let g = group(&[5, 9, 12]);
        assert_eq!(g.len(), 3);
        assert!(!g.is_empty());
        assert_eq!(g.rank_of(EndpointId(9)), Some(1));
        assert_eq!(g.rank_of(EndpointId(7)), None);
    }

    #[test]
    fn communicator_accessors() {
        let c = Communicator {
            id: CommId(3),
            group: Arc::new(group(&[1, 2])),
        };
        assert_eq!(c.size(), 2);
        assert_eq!(c.node_of(1), NodeId(2));
    }

    #[test]
    fn intercomm_sizes() {
        let ic = Intercomm {
            id: CommId(7),
            local: Arc::new(group(&[1, 2])),
            remote: Arc::new(group(&[10, 11, 12])),
        };
        assert_eq!(ic.local_size(), 2);
        assert_eq!(ic.remote_size(), 3);
        // Disconnect consumes the handle; later use of `ic` would not
        // compile (and is what deepcheck M001 flags for lingering clones).
        ic.disconnect();
    }
}
