//! Message envelopes and matching metadata.

use bytes::Bytes;
use hwmodel::SimTime;

/// Message tag. Matching follows MPI: a receive specifying a tag matches
/// only that tag; a tag of `None` (MPI_ANY_TAG) matches any.
pub type Tag = i32;

/// Reserved tag of *revoke markers*: control envelopes deposited by a rank
/// that aborts after observing a node failure, telling every peer still
/// blocked on it that no further application message will come. Markers are
/// peeked — never consumed — by the abortable receive path, so one marker
/// unblocks every subsequent receive from that sender. Application code
/// must not send on this tag, and wildcard-tag receives should not be mixed
/// with fault injection (a marker would match a `None` tag).
pub const TAG_REVOKED: Tag = -99;

/// Identifies one endpoint (a rank thread) in the universe, across all
/// worlds. Communicators translate communicator-relative ranks to this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EndpointId(pub u64);

/// A message in flight or queued at the receiver.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Communicator the message was sent on.
    pub comm: crate::comm::CommId,
    /// Sender's rank *within that communicator* (remote-group rank for
    /// inter-communicators), used for matching.
    pub src_rank: usize,
    /// Message tag.
    pub tag: Tag,
    /// Payload bytes.
    pub payload: Bytes,
    /// Sender's virtual clock at injection time.
    pub send_stamp: SimTime,
    /// Sending endpoint (for fabric timing lookup).
    pub src_endpoint: EndpointId,
    /// Monotone sequence number per (src, comm); preserves MPI's
    /// non-overtaking guarantee in the matcher.
    pub seq: u64,
    /// Wire size used for *timing*, when different from the payload size.
    ///
    /// The reproduction often runs the real computation at a reduced scale
    /// while charging virtual time for the paper-scale configuration
    /// (Table II); exchanges then carry small real payloads but declare the
    /// modelled transfer volume here. `None` = payload size.
    pub virtual_size: Option<usize>,
}

impl Envelope {
    /// The size the fabric model charges for this message.
    pub fn wire_size(&self) -> usize {
        self.virtual_size.unwrap_or(self.payload.len())
    }
}

/// A raw payload as the bytes sends take it: the [`Bytes`] that travel
/// and, for a model-scale exchange over reduced-scale data, the wire size
/// the fabric charges instead of their length (what becomes
/// [`Envelope::virtual_size`]). A plain `Bytes` converts into one that
/// charges its own length.
#[derive(Debug, Clone)]
pub struct Wire {
    pub(crate) bytes: Bytes,
    pub(crate) virtual_size: Option<usize>,
}

impl Wire {
    /// `bytes` charged on the wire as `virtual_bytes`.
    pub fn modelled(bytes: Bytes, virtual_bytes: usize) -> Self {
        Wire {
            bytes,
            virtual_size: Some(virtual_bytes),
        }
    }
}

impl From<Bytes> for Wire {
    fn from(bytes: Bytes) -> Self {
        Wire {
            bytes,
            virtual_size: None,
        }
    }
}

/// Completion information of a receive (MPI_Status).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Status {
    /// Sender's communicator-relative rank.
    pub source: usize,
    /// Message tag.
    pub tag: Tag,
    /// Payload size in bytes.
    pub bytes: usize,
    /// Receiver's virtual clock after message delivery.
    pub arrival: SimTime,
}

impl Envelope {
    /// Whether this envelope matches a receive posted for `(src, tag)`
    /// (either may be a wildcard) on communicator `comm`.
    pub fn matches(&self, comm: crate::comm::CommId, src: Option<usize>, tag: Option<Tag>) -> bool {
        self.comm == comm
            && src.is_none_or(|s| s == self.src_rank)
            && tag.is_none_or(|t| t == self.tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommId;

    fn env(comm: u64, src: usize, tag: Tag) -> Envelope {
        Envelope {
            comm: CommId(comm),
            src_rank: src,
            tag,
            payload: Bytes::new(),
            send_stamp: SimTime::ZERO,
            src_endpoint: EndpointId(0),
            seq: 0,
            virtual_size: None,
        }
    }

    #[test]
    fn exact_match() {
        let e = env(1, 2, 7);
        assert!(e.matches(CommId(1), Some(2), Some(7)));
        assert!(!e.matches(CommId(2), Some(2), Some(7)));
        assert!(!e.matches(CommId(1), Some(3), Some(7)));
        assert!(!e.matches(CommId(1), Some(2), Some(8)));
    }

    #[test]
    fn wildcards() {
        let e = env(1, 2, 7);
        assert!(e.matches(CommId(1), None, Some(7)));
        assert!(e.matches(CommId(1), Some(2), None));
        assert!(e.matches(CommId(1), None, None));
        assert!(!e.matches(CommId(9), None, None));
    }
}
