//! M002 fixture: cross-communicator protocol mismatches.
pub fn flows(r: &mut Rank, a: &Communicator, b: &Communicator, ic: &Intercomm) {
    r.send_comm(a, 1, 7, &x).unwrap();
    let y = r.recv_comm::<u64>(b, None, Some(7)).unwrap();
    r.send::<u64>(1, 9, &x).unwrap();
    let z = r.recv::<u32>(None, Some(9)).unwrap();
    r.send_bytes_comm(ic, 0, 11, payload).unwrap();
    let w = r.recv_comm::<Vec<u8>>(ic, None, Some(11)).unwrap();
    r.send_comm(b, 1, 21, &x).unwrap();
    let q = r.recv_comm::<u64>(b, None, Some(21)).unwrap();
}
