//! Distributed solver building blocks: the psmpi-backed field
//! communication, the moment halo-add, and particle migration.
//!
//! All exchanges run at model-scale wire sizes (see [`crate::config`]):
//! the payloads carry the real reduced-scale data while virtual time is
//! charged for the Table II workload. Every bulk exchange here uses the
//! zero-copy `Bytes` path ([`crate::wire`]): rows are encoded once into a
//! flat f64 buffer and the receiver decodes straight out of the sender's
//! allocation.

use crate::config::XpicConfig;
use crate::fields::FieldComm;
use crate::grid::{wrap_periodic, Grid, Moments};
use crate::moments::{add_into_border_row, clear_ghosts, extract_ghost_row};
use crate::particles::Species;
use crate::wire;
use psmpi::{Communicator, MpiRequest, PsmpiError, Rank, RecvRequest, ReduceOp, SendRequest};

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
        let n = self.comm.size();
        let phase = self.rank.obs_open(obs::Category::Phase, "halo");
        let me = rank_in_comm(self.rank, &self.comm);
        let prev = (me + n - 1) % n;
        let next = (me + 1) % n;
        let pool = self.rank.buffer_pool();
        let last_j = grid.ny_local as isize - 1;
        let first = wire::f64s_to_bytes_pooled(pool, &arr[grid.row(0)]);
        let last = wire::f64s_to_bytes_pooled(pool, &arr[grid.row(last_j)]);
        self.rank
            .send_bytes_comm_sized(&self.comm, prev, tags::HALO_UP, first, self.wire_halo)?;
        self.rank
            .send_bytes_comm_sized(&self.comm, next, tags::HALO_DOWN, last, self.wire_halo)?;
        // Our bottom ghost row is the next slab's first row.
        let (from_next, _) =
            self.rank
                .recv_bytes_comm(&self.comm, Some(next), Some(tags::HALO_UP))?;
        // Our top ghost row is the previous slab's last row.
        let (from_prev, _) =
            self.rank
                .recv_bytes_comm(&self.comm, Some(prev), Some(tags::HALO_DOWN))?;
        wire::read_f64s_into(&from_prev, &mut arr[grid.row(-1)]);
        wire::read_f64s_into(&from_next, &mut arr[grid.row(grid.ny_local as isize)]);
        self.rank.obs_close(phase);
        Ok(())
    }
}

/// The caller's slab index within a solver communicator. All solver worlds
/// built by this crate place world rank `i` on slab `i`, so the world rank
/// is the slab index.
pub fn rank_in_comm(rank: &Rank, comm: &Communicator) -> usize {
    debug_assert!(rank.rank() < comm.size(), "rank outside solver world");
    rank.rank()
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

/// Exchange deposited ghost rows with the neighbours and add them into the
/// border rows (the distributed version of
/// [`crate::moments::fold_ghosts_periodic`]).
///
/// Panics on a communication failure; fault-tolerant callers use
/// [`try_halo_add_moments`].
pub fn halo_add_moments(
    rank: &mut Rank,
    comm: &Communicator,
    grid: &Grid,
    moments: &mut Moments,
    config: &XpicConfig,
) {
    try_halo_add_moments(rank, comm, grid, moments, config).expect("moment halo-add exchange");
}

/// [`halo_add_moments`] surfacing dead nodes and downed links as typed
/// errors instead of panicking. On `Err` the border rows are in an
/// undefined intermediate state; the caller must discard the step.
pub fn try_halo_add_moments(
    rank: &mut Rank,
    comm: &Communicator,
    grid: &Grid,
    moments: &mut Moments,
    config: &XpicConfig,
) -> Result<(), PsmpiError> {
    let n = comm.size();
    if n == 1 {
        crate::moments::fold_ghosts_periodic(grid, moments);
        return Ok(());
    }
    let me = rank_in_comm(rank, comm);
    let prev = (me + n - 1) % n;
    let next = (me + 1) % n;
    let wire_size = config.wire_halo();
    let pool = rank.buffer_pool();
    let top = wire::f64s_to_bytes_pooled(pool, &extract_ghost_row(grid, moments, true));
    let bottom = wire::f64s_to_bytes_pooled(pool, &extract_ghost_row(grid, moments, false));
    rank.send_bytes_comm_sized(comm, prev, tags::MOM_UP, top, wire_size)?;
    rank.send_bytes_comm_sized(comm, next, tags::MOM_DOWN, bottom, wire_size)?;
    let (from_next, _) = rank.recv_bytes_comm(comm, Some(next), Some(tags::MOM_UP))?;
    let (from_prev, _) = rank.recv_bytes_comm(comm, Some(prev), Some(tags::MOM_DOWN))?;
    // The next slab's top ghost is spill below our last row; the previous
    // slab's bottom ghost is spill above our first row.
    add_into_border_row(grid, moments, &wire::bytes_to_f64s(&from_next), false);
    add_into_border_row(grid, moments, &wire::bytes_to_f64s(&from_prev), true);
    clear_ghosts(grid, moments);
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
    let n = comm.size();
    if n == 1 {
        return Ok(None);
    }
    let me = rank_in_comm(rank, comm);
    let prev = (me + n - 1) % n;
    let next = (me + 1) % n;
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
    let n = comm.size();
    if n == 1 {
        return Ok(Vec::new());
    }
    let me = rank_in_comm(rank, comm);
    let prev = (me + n - 1) % n;
    let next = (me + 1) % n;
    let wire_size = config.wire_halo();
    let pool = rank.buffer_pool();
    let top = wire::f64s_to_bytes_pooled(pool, &extract_ghost_row(grid, moments, true));
    let bottom = wire::f64s_to_bytes_pooled(pool, &extract_ghost_row(grid, moments, false));
    let up = rank.isend_bytes_comm_sized(comm, prev, tags::MOM_UP, top, wire_size)?;
    let down = rank.isend_bytes_comm_sized(comm, next, tags::MOM_DOWN, bottom, wire_size)?;
    Ok(vec![up, down])
}

/// Overlap step 3 (complete): wait the posted sends and receives, fold
/// the neighbour rows in the exact order of the blocking path (next slab
/// first, then previous — addition order is part of the bit-exactness
/// contract) and clear the ghosts. A single-slab world folds
/// periodically, same as [`try_halo_add_moments`].
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
    add_into_border_row(grid, moments, &wire::bytes_to_f64s(&from_next), false);
    add_into_border_row(grid, moments, &wire::bytes_to_f64s(&from_prev), true);
    clear_ghosts(grid, moments);
    Ok(())
}

/// Wrap particle y periodically and migrate leavers to the neighbour
/// slabs. With the configured time steps particles cross at most one slab
/// boundary per step. Returns the number of particles sent away.
///
/// Panics on a communication failure; fault-tolerant callers use
/// [`try_migrate_particles`].
pub fn migrate_particles(
    rank: &mut Rank,
    comm: &Communicator,
    grid: &Grid,
    species: &mut Species,
    config: &XpicConfig,
) -> usize {
    try_migrate_particles(rank, comm, grid, species, config).expect("particle migration exchange")
}

/// [`migrate_particles`] surfacing dead nodes and downed links as typed
/// errors instead of panicking. On `Err` the species may have lost its
/// leavers; the caller must discard the step.
pub fn try_migrate_particles(
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
    let me = rank_in_comm(rank, comm);
    let prev = (me + n - 1) % n;
    let next = (me + 1) % n;
    let mut up: Vec<f64> = Vec::new();
    let mut down: Vec<f64> = Vec::new();
    let prev_grid = Grid::slab(grid.nx, grid.ny, prev, n);
    let mut i = 0;
    while i < species.len() {
        let y = wrap_periodic(species.y[i], ny);
        if grid.owns_row(y.floor() as isize) {
            species.y[i] = y;
            i += 1;
            continue;
        }
        let (x, _, vx, vy, vz) = species.take(i);
        let dest = if prev_grid.owns_row(y.floor() as isize) {
            &mut up
        } else {
            &mut down
        };
        dest.extend_from_slice(&[x, y, vx, vy, vz]);
    }
    let sent = (up.len() + down.len()) / 5;
    let wire_size = config.wire_migration();
    let up_wire = wire::f64s_to_bytes_pooled(rank.buffer_pool(), &up);
    let down_wire = wire::f64s_to_bytes_pooled(rank.buffer_pool(), &down);
    rank.send_bytes_comm_sized(comm, prev, tags::MIG_UP, up_wire, wire_size)?;
    rank.send_bytes_comm_sized(comm, next, tags::MIG_DOWN, down_wire, wire_size)?;
    let (from_next, _) = rank.recv_bytes_comm(comm, Some(next), Some(tags::MIG_UP))?;
    let (from_prev, _) = rank.recv_bytes_comm(comm, Some(prev), Some(tags::MIG_DOWN))?;
    let from_next = wire::bytes_to_f64s(&from_next);
    let from_prev = wire::bytes_to_f64s(&from_prev);
    for chunk in from_next.chunks_exact(5).chain(from_prev.chunks_exact(5)) {
        debug_assert!(
            grid.owns_row(chunk[1].floor() as isize),
            "migrated to wrong rank"
        );
        species.push_particle(chunk[0], chunk[1], chunk[2], chunk[3], chunk[4]);
    }
    Ok(sent)
}
