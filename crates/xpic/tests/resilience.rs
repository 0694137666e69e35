//! End-to-end resiliency: an xPic run interrupted by a node crash and
//! restarted from SCR must reach exactly the state of an uninterrupted
//! run — the full §III-C/D stack under the co-design application.

use cluster_booster::{Launcher, SystemBuilder};
use hwmodel::NodeId;
use scr::{CheckpointLevel, CkptMode, NamBuddy, ScrConfig, ScrManager};
use sionio::ParallelFs;
use xpic::grid::{Fields, Grid};
use xpic::particles::Species;
use xpic::resilience::{pack_state, run_checkpointed, unpack_state, RecoveryConfig};
use xpic::XpicConfig;

fn launcher(n: u32) -> Launcher {
    Launcher::new(
        SystemBuilder::new("res")
            .cluster_nodes(n)
            .booster_nodes(1)
            .build(),
    )
}

fn scr_for(launcher: &Launcher, nodes: usize) -> ScrManager {
    let ids: Vec<NodeId> = launcher.system().cluster_nodes()[..nodes].to_vec();
    let specs = ids
        .iter()
        .map(|&n| launcher.system().fabric().node(n).unwrap().clone())
        .collect();
    ScrManager::new(ScrConfig::default(), ids, specs, ParallelFs::deep_er())
}

fn recovery(level: CheckpointLevel, ckpt_mode: CkptMode) -> RecoveryConfig {
    RecoveryConfig {
        level,
        checkpoint_every: 2,
        ckpt_mode,
        ..RecoveryConfig::default()
    }
}

fn config() -> XpicConfig {
    XpicConfig {
        nx: 8,
        ny: 8,
        steps: 6,
        ..XpicConfig::test_small()
    }
}

#[test]
fn state_pack_unpack_roundtrip() {
    let grid = Grid::slab(8, 8, 0, 1);
    let species = vec![
        Species::maxwellian(&grid, 3, 0.1, -1.0, 5),
        Species::maxwellian_charged(&grid, 2, 0.05, 0.01, 1.0, 6),
    ];
    let mut fields = Fields::zeros(&grid);
    for (i, v) in fields.bz.iter_mut().enumerate() {
        *v = i as f64 * 0.5;
    }
    let blob = pack_state(&species, &fields);
    let (sp2, f2) = unpack_state(&blob, &grid);
    assert_eq!(sp2.len(), 2);
    assert_eq!(sp2[0], species[0]);
    assert_eq!(sp2[1], species[1]);
    assert_eq!(f2, fields);
}

#[test]
fn pack_state_wire_format_is_unchanged() {
    // The bulk-codec rewrite must keep the blob format bit-for-bit: this
    // is the old per-element packer, kept here as the format oracle.
    fn put_f64s_old(buf: &mut Vec<u8>, v: &[f64]) {
        buf.extend_from_slice(&(v.len() as u64).to_le_bytes());
        for x in v {
            buf.extend_from_slice(&x.to_le_bytes());
        }
    }
    fn pack_old(species: &[Species], fields: &Fields) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(species.len() as u64).to_le_bytes());
        for s in species {
            buf.extend_from_slice(&s.qom.to_le_bytes());
            buf.extend_from_slice(&s.q_per_particle.to_le_bytes());
            put_f64s_old(&mut buf, &s.x);
            put_f64s_old(&mut buf, &s.y);
            put_f64s_old(&mut buf, &s.vx);
            put_f64s_old(&mut buf, &s.vy);
            put_f64s_old(&mut buf, &s.vz);
        }
        for comp in fields.components() {
            put_f64s_old(&mut buf, comp);
        }
        buf
    }

    let grid = Grid::slab(8, 8, 1, 2);
    let species = vec![
        Species::maxwellian(&grid, 3, 0.1, -1.0, 5),
        Species::maxwellian_charged(&grid, 2, 0.05, 0.01, 1.0, 6),
    ];
    let mut fields = Fields::zeros(&grid);
    for (i, v) in fields.ex.iter_mut().enumerate() {
        *v = (i as f64).sin();
    }
    let oracle = pack_old(&species, &fields);
    assert_eq!(pack_state(&species, &fields), oracle);
}

#[test]
fn a_checkpoint_blob_is_one_buffer_from_pack_to_restart() {
    // What `pack_state` allocated is what `scr` keeps as the local and the
    // buddy copy and what a restart hands back: handles, not copies.
    let l = launcher(2);
    let scr = scr_for(&l, 2);
    let blobs: Vec<_> = (0..2)
        .map(|r| {
            let grid = Grid::slab(8, 8, r, 2);
            let species = vec![Species::maxwellian(&grid, 3, 0.1, -1.0, 5 + r as u64)];
            pack_state(&species, &Fields::zeros(&grid))
        })
        .collect();
    let packed: Vec<_> = blobs.iter().map(|b| b.as_ptr()).collect();
    scr.checkpoint(1, CheckpointLevel::Buddy, &blobs).unwrap();
    let restored = |scr: &scr::ScrManager| -> Vec<_> {
        let (_, _, back, _) = scr.restart().unwrap();
        back.iter().map(|b| b.as_ptr()).collect()
    };
    assert_eq!(restored(&scr), packed, "local entries");
    // Rank 0's node is lost and with it the local entry: the buddy entry
    // answers, and it is the same buffer.
    scr.fail_nodes(&l.system().cluster_nodes()[..1]);
    assert_eq!(restored(&scr), packed, "buddy entry of rank 0");
    // And unpacking reads that buffer in place.
    let (species, _) = unpack_state(&blobs[1], &Grid::slab(8, 8, 1, 2));
    assert_eq!(species.len(), 1);
}

#[test]
fn restart_reaches_identical_final_state() {
    let cfg = config();
    let nodes = 2;

    // Reference: uninterrupted run.
    let l1 = launcher(2);
    let scr1 = scr_for(&l1, nodes);
    let clean = run_checkpointed(
        &l1,
        nodes,
        &cfg,
        &scr1,
        &recovery(CheckpointLevel::Buddy, CkptMode::Sync),
        None,
        false,
    );
    assert!(!clean.interrupted);
    assert_eq!(clean.steps_done, cfg.steps);

    // Crash after step 5 (checkpoints at 2 and 4 exist), then restart.
    let l2 = launcher(2);
    let scr2 = scr_for(&l2, nodes);
    let crashed = run_checkpointed(
        &l2,
        nodes,
        &cfg,
        &scr2,
        &recovery(CheckpointLevel::Buddy, CkptMode::Sync),
        Some(5),
        false,
    );
    assert!(crashed.interrupted);
    assert_eq!(crashed.steps_done, 5);

    // The node failure wipes rank 0's local copies; buddy level survives.
    scr2.fail_nodes(&[l2.system().cluster_nodes()[0]]);
    scr2.heal();
    let resumed = run_checkpointed(
        &l2,
        nodes,
        &cfg,
        &scr2,
        &recovery(CheckpointLevel::Buddy, CkptMode::Sync),
        None,
        true,
    );
    assert!(!resumed.interrupted);
    assert_eq!(resumed.steps_done, cfg.steps);

    // Bit-level agreement of the physics diagnostics.
    let rel_fe =
        ((resumed.field_energy - clean.field_energy) / clean.field_energy.max(1e-300)).abs();
    let rel_ke = ((resumed.kinetic_energy - clean.kinetic_energy) / clean.kinetic_energy).abs();
    assert!(
        rel_fe < 1e-9,
        "fe {} vs {}",
        resumed.field_energy,
        clean.field_energy
    );
    assert!(
        rel_ke < 1e-9,
        "ke {} vs {}",
        resumed.kinetic_energy,
        clean.kinetic_energy
    );
}

#[test]
fn restart_skips_completed_work() {
    // Resuming from step 4 of 6 runs only 2 more steps: the resumed
    // launch's virtual makespan is well below the full run's.
    let cfg = config();
    let l = launcher(2);
    let scr = scr_for(&l, 2);
    let full = run_checkpointed(
        &l,
        2,
        &cfg,
        &scr,
        &recovery(CheckpointLevel::Local, CkptMode::Sync),
        None,
        false,
    );
    let l2 = launcher(2);
    let scr2 = scr_for(&l2, 2);
    run_checkpointed(
        &l2,
        2,
        &cfg,
        &scr2,
        &recovery(CheckpointLevel::Local, CkptMode::Sync),
        Some(5),
        false,
    );
    let resumed = run_checkpointed(
        &l2,
        2,
        &cfg,
        &scr2,
        &recovery(CheckpointLevel::Local, CkptMode::Sync),
        None,
        true,
    );
    assert!(
        resumed.makespan.as_secs() < 0.8 * full.makespan.as_secs(),
        "resume is cheaper than a full rerun: {} vs {}",
        resumed.makespan,
        full.makespan
    );
}

/// A launcher whose fabric carries one NAM device, for the NAM-backed
/// buddy level.
fn nam_launcher(n: u32) -> Launcher {
    Launcher::new(
        SystemBuilder::new("res-nam")
            .cluster_nodes(n)
            .booster_nodes(1)
            .nam_devices(1)
            .build(),
    )
}

/// An SCR manager whose buddy level lives on the fabric's NAM device:
/// drains become one-sided RDMA puts and the copies survive any node loss.
fn nam_scr_for(launcher: &Launcher, nodes: usize) -> ScrManager {
    let ids: Vec<NodeId> = launcher.system().cluster_nodes()[..nodes].to_vec();
    let specs = ids
        .iter()
        .map(|&n| launcher.system().fabric().node(n).unwrap().clone())
        .collect();
    let device = launcher.system().fabric().nams()[0].clone();
    ScrManager::new(
        ScrConfig {
            nam: Some(NamBuddy { index: 0, device }),
            ..ScrConfig::default()
        },
        ids,
        specs,
        ParallelFs::deep_er(),
    )
}

fn clean_run(mode: CkptMode) -> xpic::resilience::ResilientOutcome {
    let l = launcher(2);
    let scr = scr_for(&l, 2);
    run_checkpointed(
        &l,
        2,
        &config(),
        &scr,
        &recovery(CheckpointLevel::Buddy, mode),
        None,
        false,
    )
}

#[test]
fn async_checkpointing_matches_sync_bits_and_blocks_less() {
    let sync = clean_run(CkptMode::Sync);
    let asn = clean_run(CkptMode::Async);
    let delta = clean_run(CkptMode::AsyncDelta);

    // The physics must not notice the checkpoint mode at all.
    for other in [&asn, &delta] {
        assert_eq!(other.field_energy.to_bits(), sync.field_energy.to_bits());
        assert_eq!(
            other.kinetic_energy.to_bits(),
            sync.kinetic_energy.to_bits()
        );
        assert_eq!(other.steps_done, sync.steps_done);
        assert_eq!(other.ckpts_taken, sync.ckpts_taken);
    }
    assert!(sync.ckpt_block > hwmodel::SimTime::ZERO);
    // The async local stage blocks strictly less than the sync full-level
    // cost at equal protection: the buddy drain hides behind compute.
    assert!(
        asn.ckpt_block < sync.ckpt_block,
        "async block {} must be below sync {}",
        asn.ckpt_block,
        sync.ckpt_block
    );
    // Dirty-range deltas cannot compress a PIC state where every particle
    // moves each step: the encoder falls back to full keyframes (one tag
    // byte of framing overhead), so delta mode must cost essentially the
    // same as plain async here — the delta win shows on sparse-change
    // workloads (see the scr delta tests and the async_ckpt bench block).
    assert!(
        delta.ckpt_block.as_secs() <= asn.ckpt_block.as_secs() * 1.001,
        "delta block {} must stay within framing overhead of async {}",
        delta.ckpt_block,
        asn.ckpt_block
    );
    // Overlap also shortens the whole launch.
    assert!(asn.makespan < sync.makespan);
}

#[test]
fn async_crash_resume_reaches_identical_state() {
    for mode in [CkptMode::Async, CkptMode::AsyncDelta] {
        let cfg = config();
        let clean = clean_run(CkptMode::Sync);

        let l = launcher(2);
        let scr = scr_for(&l, 2);
        let crashed = run_checkpointed(
            &l,
            2,
            &cfg,
            &scr,
            &recovery(CheckpointLevel::Buddy, mode),
            Some(5),
            false,
        );
        assert!(crashed.interrupted);
        // The crash interrupts the run after step 5: checkpoints 2 and 4
        // were taken and 4's drain was promoted at a later sync point, so
        // a node death still leaves a buddy-level restart.
        scr.fail_nodes(&[l.system().cluster_nodes()[0]]);
        scr.heal();
        let resumed = run_checkpointed(
            &l,
            2,
            &cfg,
            &scr,
            &recovery(CheckpointLevel::Buddy, mode),
            None,
            true,
        );
        assert!(!resumed.interrupted, "mode {mode:?}");
        assert_eq!(
            resumed.field_energy.to_bits(),
            clean.field_energy.to_bits(),
            "mode {mode:?}"
        );
        assert_eq!(
            resumed.kinetic_energy.to_bits(),
            clean.kinetic_energy.to_bits(),
            "mode {mode:?}"
        );
    }
}

#[test]
fn nam_backed_async_drain_round_trips() {
    let cfg = config();
    let reference = clean_run(CkptMode::Sync);

    // Clean NAM-backed async run: same physics bits.
    let l = nam_launcher(2);
    let scr = nam_scr_for(&l, 2);
    let clean = run_checkpointed(
        &l,
        2,
        &cfg,
        &scr,
        &recovery(CheckpointLevel::Buddy, CkptMode::Async),
        None,
        false,
    );
    assert_eq!(
        clean.field_energy.to_bits(),
        reference.field_energy.to_bits()
    );
    assert!(
        scr.nam().unwrap().device.used() > 0,
        "the drain must land real bytes on the NAM device"
    );

    // Crash, then lose *both* nodes: only the NAM copies survive, and the
    // resume still reaches the clean bits.
    let l2 = nam_launcher(2);
    let scr2 = nam_scr_for(&l2, 2);
    let crashed = run_checkpointed(
        &l2,
        2,
        &cfg,
        &scr2,
        &recovery(CheckpointLevel::Buddy, CkptMode::Async),
        Some(5),
        false,
    );
    assert!(crashed.interrupted);
    scr2.fail_nodes(&l2.system().cluster_nodes()[..2]);
    scr2.heal();
    let resumed = run_checkpointed(
        &l2,
        2,
        &cfg,
        &scr2,
        &recovery(CheckpointLevel::Buddy, CkptMode::Async),
        None,
        true,
    );
    assert!(!resumed.interrupted);
    assert_eq!(
        resumed.field_energy.to_bits(),
        reference.field_energy.to_bits()
    );
    assert_eq!(
        resumed.kinetic_energy.to_bits(),
        reference.kinetic_energy.to_bits()
    );
}
