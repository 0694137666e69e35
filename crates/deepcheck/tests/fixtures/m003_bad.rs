//! M003 fixture: nonblocking requests discarded at statement level lose
//! the deferred completion charge (and any parked fault).

pub fn bad_send(rank: &mut psmpi::Rank, data: bytes::Bytes) {
    rank.isend_bytes(1, 7, data).unwrap();
}

pub fn bad_recv(rank: &mut psmpi::Rank) {
    rank.irecv_bytes(Some(0), Some(7)).expect("post");
}

pub fn bad_try(rank: &mut psmpi::Rank, v: &[f64]) -> Result<(), psmpi::MpiError> {
    rank.isend_slice(1, 9, v)?;
    Ok(())
}

pub fn bad_comm(rank: &mut psmpi::Rank, c: &psmpi::Communicator, data: bytes::Bytes) {
    rank.isend_bytes_comm(c, 1, 11, data).unwrap();
}

pub fn good_comm_recv(rank: &mut psmpi::Rank, c: &psmpi::Communicator) {
    use psmpi::MpiRequest;
    let req = rank.irecv_bytes_comm(c, Some(1), Some(11)).unwrap();
    let _ = req.wait(rank).unwrap();
}

pub fn good_bound(rank: &mut psmpi::Rank, data: bytes::Bytes) -> Result<(), psmpi::MpiError> {
    use psmpi::MpiRequest;
    let req = rank.isend_bytes(1, 7, data)?;
    req.wait(rank)
}

pub fn good_chained(rank: &mut psmpi::Rank) {
    use psmpi::MpiRequest;
    rank.irecv_bytes(Some(0), Some(7)).unwrap().wait(rank).unwrap();
}

pub fn good_returned(
    rank: &mut psmpi::Rank,
    v: &[f64],
) -> Result<psmpi::SendRequest, psmpi::MpiError> {
    return rank.isend_slice(1, 9, v);
}

/// The receiving end of the tag-9 slice sends, so M001's tag matching
/// (which sees every p2p method) has nothing to say about this file.
pub fn good_slice_peer(rank: &mut psmpi::Rank, out: &mut [f64]) {
    rank.recv_into(Some(1), Some(9), out).unwrap();
}
