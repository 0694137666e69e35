//! Distributed solver building blocks: the psmpi-backed field
//! communication, the moment halo-add, and particle migration.
//!
//! All exchanges run at model-scale wire sizes (see [`crate::config`]):
//! the payloads carry the real reduced-scale data while virtual time is
//! charged for the Table II workload. Every bulk exchange here uses the
//! zero-copy `Bytes` path with psmpi's bulk POD codec
//! ([`psmpi::datatype`]): rows are encoded once into a flat little-endian
//! f64 buffer drawn from the rank's buffer pool, with no length prefix, and
//! the receiver decodes straight out of the sender's allocation. The free
//! exchange functions return a [`PsmpiError`] on a dead node or a downed
//! link; [`MpiFieldComm`] holds its first one for the caller. The blocking
//! field halo, moment halo-add and migration share one neighbour swap.

use crate::config::XpicConfig;
use crate::fields::FieldComm;
use crate::grid::{floor_index, wrap_periodic, Grid, Moments};
use crate::moments::{add_into_border_row, clear_ghosts, extract_ghost_row};
use crate::particles::Species;
use bytes::Bytes;
use psmpi::datatype::{bytes_to_pod, pod_to_bytes_pooled, read_pod_into_exact};
use psmpi::{Communicator, MpiRequest, PsmpiError, Rank, RecvRequest, ReduceOp, SendRequest, Wire};

/// Reserved message tags of the xPic exchanges.
pub mod tags {
    /// Field halo row travelling towards the previous rank.
    pub const HALO_UP: i32 = 100;
    /// Field halo row travelling towards the next rank.
    pub const HALO_DOWN: i32 = 101;
    /// Migrating particles travelling to the previous rank.
    pub const MIG_UP: i32 = 102;
    /// Migrating particles travelling to the next rank.
    pub const MIG_DOWN: i32 = 103;
    /// Moment ghost row to the previous rank.
    pub const MOM_UP: i32 = 104;
    /// Moment ghost row to the next rank.
    pub const MOM_DOWN: i32 = 105;
    /// E,B interface buffer, Cluster → Booster.
    pub const EB: i32 = 110;
    /// ρ,J interface buffer, Booster → Cluster.
    pub const RHOJ: i32 = 111;
}

/// psmpi-backed [`FieldComm`] for a slab-decomposed solver world.
///
/// Counts its global reductions so the caller can pad communication up to
/// the model-scale CG iteration count.
pub struct MpiFieldComm<'a> {
    /// The calling rank.
    pub rank: &'a mut Rank,
    /// The solver world.
    pub comm: Communicator,
    /// Wire size of one halo-row message.
    pub wire_halo: usize,
    /// Reductions performed so far.
    pub allreduces: u32,
    /// First communication error observed. Once set, every further
    /// exchange is a no-op and reductions return `0.0` (driving the CG
    /// residual to zero so the solve winds down instead of hanging), and
    /// the caller surfaces the error at step granularity through
    /// [`MpiFieldComm::take_failure`].
    failed: Option<PsmpiError>,
}

impl<'a> MpiFieldComm<'a> {
    /// Wrap a rank for solver communication.
    pub fn new(rank: &'a mut Rank, comm: Communicator, config: &XpicConfig) -> Self {
        MpiFieldComm {
            rank,
            comm,
            wire_halo: config.wire_halo(),
            allreduces: 0,
            failed: None,
        }
    }

    /// The first communication error this comm absorbed, if any. The
    /// field data is garbage past the failure point; the caller must
    /// discard it and run recovery.
    pub fn take_failure(&mut self) -> Option<PsmpiError> {
        self.failed.take()
    }

    fn try_halo_exchange(&mut self, grid: &Grid, arr: &mut [f64]) -> Result<(), PsmpiError> {
        let phase = self.rank.obs_open(obs::Category::Phase, "halo");
        let last_j = grid.ny_local as isize - 1;
        // Our bottom ghost row is the next slab's first row, our top ghost
        // row the previous slab's last row.
        let (from_next, from_prev) = swap_with_neighbours(
            self.rank,
            &self.comm,
            (tags::HALO_UP, tags::HALO_DOWN),
            [&arr[grid.row(0)], &arr[grid.row(last_j)]],
            self.wire_halo,
        )?;
        read_pod_into_exact(&from_prev, &mut arr[grid.row(-1)]).expect("halo row length");
        read_pod_into_exact(&from_next, &mut arr[grid.row(grid.ny_local as isize)])
            .expect("halo row length");
        self.rank.obs_close(phase);
        Ok(())
    }
}

impl FieldComm for MpiFieldComm<'_> {
    fn halo_exchange(&mut self, grid: &Grid, arr: &mut [f64]) {
        if self.comm.size() == 1 {
            crate::fields::SerialComm.halo_exchange(grid, arr);
            return;
        }
        if self.failed.is_some() {
            return;
        }
        if let Err(err) = self.try_halo_exchange(grid, arr) {
            self.failed = Some(err);
        }
    }

    fn allreduce_sum(&mut self, v: f64) -> f64 {
        if self.failed.is_some() {
            return 0.0;
        }
        self.allreduces += 1;
        match self.rank.allreduce_scalar(&self.comm, v, ReduceOp::Sum) {
            Ok(sum) => sum,
            Err(err) => {
                self.failed = Some(err);
                0.0
            }
        }
    }
}

/// The previous and next rank of `rank` on `comm`'s periodic ring of slabs.
fn neighbours(rank: &Rank, comm: &Communicator) -> (usize, usize) {
    let (me, n) = (rank.rank(), comm.size());
    ((me + n - 1) % n, (me + 1) % n)
}

/// The blocking neighbour exchange every slab exchange shares: send `up`
/// to the previous rank under `up_tag` and `down` to the next under
/// `down_tag`, each charged at `wire_size` bytes, then receive from the
/// next rank and from the previous one. Returns `(from_next, from_prev)`.
fn swap_with_neighbours(
    rank: &mut Rank,
    comm: &Communicator,
    (up_tag, down_tag): (i32, i32),
    [up, down]: [&[f64]; 2],
    wire_size: usize,
) -> Result<(Bytes, Bytes), PsmpiError> {
    let (prev, next) = neighbours(rank, comm);
    let up = pod_to_bytes_pooled(rank.buffer_pool(), up);
    let down = pod_to_bytes_pooled(rank.buffer_pool(), down);
    rank.send_bytes_comm(comm, prev, up_tag, Wire::modelled(up, wire_size))?;
    rank.send_bytes_comm(comm, next, down_tag, Wire::modelled(down, wire_size))?;
    let (from_next, _) = rank.recv_bytes_comm(comm, Some(next), Some(up_tag))?;
    let (from_prev, _) = rank.recv_bytes_comm(comm, Some(prev), Some(down_tag))?;
    Ok((from_next, from_prev))
}

/// Add the neighbours' moment ghost rows into our border rows and clear
/// the ghosts. The next slab's top ghost is spill below our last row, the
/// previous slab's bottom ghost spill above our first row; next is folded
/// first (addition order is part of the bit-exactness contract).
fn fold_neighbour_rows(grid: &Grid, moments: &mut Moments, from_next: &Bytes, from_prev: &Bytes) {
    for (row, above_first) in [(from_next, false), (from_prev, true)] {
        let row = bytes_to_pod::<f64>(row).expect("ghost row length");
        add_into_border_row(grid, moments, &row, above_first);
    }
    clear_ghosts(grid, moments);
}

/// Exchange deposited ghost rows with the neighbours and add them into the
/// border rows (the distributed version of
/// [`crate::moments::fold_ghosts_periodic`]). On `Err` the border rows are
/// in an undefined intermediate state; the caller must discard the step.
pub fn halo_add_moments(
    rank: &mut Rank,
    comm: &Communicator,
    grid: &Grid,
    moments: &mut Moments,
    config: &XpicConfig,
) -> Result<(), PsmpiError> {
    if comm.size() == 1 {
        crate::moments::fold_ghosts_periodic(grid, moments);
        return Ok(());
    }
    let [top, bottom] = [true, false].map(|top| extract_ghost_row(grid, moments, top));
    let (from_next, from_prev) = swap_with_neighbours(
        rank,
        comm,
        (tags::MOM_UP, tags::MOM_DOWN),
        [&top, &bottom],
        config.wire_halo(),
    )?;
    fold_neighbour_rows(grid, moments, &from_next, &from_prev);
    Ok(())
}

/// In-flight moment halo-add: the neighbour ghost-row receives posted by
/// [`post_halo_add_recvs`] ahead of the mover/deposit sweep, completed by
/// [`complete_halo_add`] after the sweep's trailing compute.
pub struct HaloAddRecvs {
    from_next: RecvRequest,
    from_prev: RecvRequest,
}

/// Overlap step 1 (post): record the matching criteria for the two
/// neighbour ghost-row messages *before* the interior mover/deposit sweep
/// runs. Posting is free in virtual time — the payoff is that the
/// matching receives are waited as late as possible. Returns `None` on a
/// single-slab world (nothing travels).
pub fn post_halo_add_recvs(
    rank: &mut Rank,
    comm: &Communicator,
) -> Result<Option<HaloAddRecvs>, PsmpiError> {
    if comm.size() == 1 {
        return Ok(None);
    }
    let (prev, next) = neighbours(rank, comm);
    Ok(Some(HaloAddRecvs {
        from_next: rank.irecv_bytes_comm(comm, Some(next), Some(tags::MOM_UP))?,
        from_prev: rank.irecv_bytes_comm(comm, Some(prev), Some(tags::MOM_DOWN))?,
    }))
}

/// Overlap step 2 (send): after the deposit sweep, ship the extracted
/// ghost rows as nonblocking sends — NIC serialization is charged to the
/// returned requests, which [`complete_halo_add`] waits together with the
/// receives. No-op (empty batch) on a single-slab world.
pub fn send_halo_add_ghosts(
    rank: &mut Rank,
    comm: &Communicator,
    grid: &Grid,
    moments: &Moments,
    config: &XpicConfig,
) -> Result<Vec<SendRequest>, PsmpiError> {
    if comm.size() == 1 {
        return Ok(Vec::new());
    }
    let (prev, next) = neighbours(rank, comm);
    let wire_size = config.wire_halo();
    let pool = rank.buffer_pool();
    let wire = |row: Vec<f64>| Wire::modelled(pod_to_bytes_pooled(pool, &row), wire_size);
    let top = wire(extract_ghost_row(grid, moments, true));
    let bottom = wire(extract_ghost_row(grid, moments, false));
    let up = rank.isend_bytes_comm(comm, prev, tags::MOM_UP, top)?;
    let down = rank.isend_bytes_comm(comm, next, tags::MOM_DOWN, bottom)?;
    Ok(vec![up, down])
}

/// Overlap step 3 (complete): wait the posted sends and receives, fold
/// the neighbour rows in the exact order of the blocking path (next slab
/// first, then previous — addition order is part of the bit-exactness
/// contract) and clear the ghosts. A single-slab world folds
/// periodically, same as [`halo_add_moments`].
pub fn complete_halo_add(
    rank: &mut Rank,
    comm: &Communicator,
    grid: &Grid,
    moments: &mut Moments,
    recvs: Option<HaloAddRecvs>,
    sends: Vec<SendRequest>,
) -> Result<(), PsmpiError> {
    debug_assert_eq!(recvs.is_some(), comm.size() > 1, "post/complete mismatch");
    let Some(recvs) = recvs else {
        crate::moments::fold_ghosts_periodic(grid, moments);
        return Ok(());
    };
    rank.waitall(sends)?;
    let (from_next, _) = recvs.from_next.wait(rank)?;
    let (from_prev, _) = recvs.from_prev.wait(rank)?;
    fold_neighbour_rows(grid, moments, &from_next, &from_prev);
    Ok(())
}

/// Wrap particle y periodically and migrate leavers to the neighbour
/// slabs. With the configured time steps particles cross at most one slab
/// boundary per step. Returns the number of particles sent away. On `Err`
/// the species may have lost its leavers; the caller must discard the step.
pub fn migrate_particles(
    rank: &mut Rank,
    comm: &Communicator,
    grid: &Grid,
    species: &mut Species,
    config: &XpicConfig,
) -> Result<usize, PsmpiError> {
    let ny = grid.ny as f64;
    let n = comm.size();
    if n == 1 {
        for y in species.y.iter_mut() {
            *y = wrap_periodic(*y, ny);
        }
        return Ok(0);
    }
    let (prev, _) = neighbours(rank, comm);
    let mut up: Vec<f64> = Vec::new();
    let mut down: Vec<f64> = Vec::new();
    let prev_grid = Grid::slab(grid.nx, grid.ny, prev, n);
    let mut i = 0;
    while i < species.len() {
        let y = wrap_periodic(species.y[i], ny);
        if grid.owns_row(floor_index(y)) {
            species.y[i] = y;
            i += 1;
            continue;
        }
        let (x, _, vx, vy, vz) = species.take(i);
        let dest = if prev_grid.owns_row(floor_index(y)) {
            &mut up
        } else {
            &mut down
        };
        dest.extend_from_slice(&[x, y, vx, vy, vz]);
    }
    let sent = (up.len() + down.len()) / 5;
    let (from_next, from_prev) = swap_with_neighbours(
        rank,
        comm,
        (tags::MIG_UP, tags::MIG_DOWN),
        [&up, &down],
        config.wire_migration(),
    )?;
    let from_next = bytes_to_pod::<f64>(&from_next).expect("migration buffer length");
    let from_prev = bytes_to_pod::<f64>(&from_prev).expect("migration buffer length");
    for chunk in from_next.chunks_exact(5).chain(from_prev.chunks_exact(5)) {
        debug_assert!(
            grid.owns_row(floor_index(chunk[1])),
            "migrated to wrong rank"
        );
        species.push_particle(chunk[0], chunk[1], chunk[2], chunk[3], chunk[4]);
    }
    Ok(sent)
}
