//! The checkpoint blob of one xPic rank: its format, its round trip, and
//! that `scr` keeps the buffer `pack_state` filled. Interrupted and
//! recovered runs are `fault_recovery.rs`'s.

use bytes::Bytes;
use cluster_booster::{Launcher, SystemBuilder};
use hwmodel::NodeId;
use scr::{CheckpointLevel, ScrConfig, ScrManager};
use sionio::ParallelFs;
use xpic::grid::{Fields, Grid};
use xpic::particles::Species;
use xpic::resilience::{pack_state, try_unpack_state, unpack_state, StateError};

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

#[test]
fn state_pack_unpack_roundtrip() {
    let grid = Grid::slab(8, 8, 0, 1);
    let species = vec![
        Species::maxwellian_charged(&grid, 3, 0.1, -1.0, -1.0, 5),
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

/// A packed one-species state on an 8 x 8 slab, and its grid.
fn small_blob() -> (Bytes, Grid) {
    let grid = Grid::slab(8, 8, 0, 1);
    let species = vec![Species::maxwellian_charged(&grid, 2, 0.1, -1.0, -1.0, 9)];
    (pack_state(&species, &Fields::zeros(&grid)), grid)
}

#[test]
fn a_forged_species_count_is_an_error_before_any_allocation() {
    let (blob, grid) = small_blob();
    let mut forged = blob.to_vec();
    forged[..8].copy_from_slice(&(1u64 << 40).to_le_bytes());
    // 2^40 species would reserve 2^40 x 136 bytes up front.
    let err = try_unpack_state(&Bytes::from(forged), &grid).unwrap_err();
    assert!(
        matches!(err, StateError::Truncated { what: "species", have, .. } if have == blob.len() - 8),
        "{err}"
    );
}

#[test]
fn a_truncated_blob_is_an_error() {
    let (blob, grid) = small_blob();
    let err = try_unpack_state(&blob.slice(..3), &grid).unwrap_err();
    assert_eq!(
        err,
        StateError::Truncated {
            what: "species count",
            need: 8,
            have: 3
        }
    );
    // Cuts all along the blob fail, and none panics.
    for cut in (0..blob.len()).step_by(97) {
        assert!(
            try_unpack_state(&blob.slice(..cut), &grid).is_err(),
            "cut at {cut}"
        );
    }
    assert!(try_unpack_state(&blob, &grid).is_ok());
}

#[test]
fn a_truncated_f64_run_is_an_error() {
    let (blob, grid) = small_blob();
    // The first particle run's length sits after the count and two charges.
    let n = u64::from_le_bytes(blob[24..32].try_into().unwrap());
    let cut = 32 + 8 * n as usize - 1;
    let err = try_unpack_state(&blob.slice(..cut), &grid).unwrap_err();
    assert_eq!(
        err,
        StateError::Truncated {
            what: "particle x",
            need: 8 * n,
            have: 8 * n as usize - 1
        }
    );
    // A run whose length claims more doubles than the blob holds, too.
    let mut forged = blob.to_vec();
    forged[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
    let err = try_unpack_state(&Bytes::from(forged), &grid).unwrap_err();
    assert!(
        matches!(
            err,
            StateError::Truncated {
                what: "particle x",
                need: u64::MAX,
                ..
            }
        ),
        "{err}"
    );
}

#[test]
fn a_blob_for_another_grid_or_with_trailing_bytes_is_an_error() {
    let (blob, grid) = small_blob();
    let other = Grid::slab(8, 8, 0, 2);
    assert!(matches!(
        try_unpack_state(&blob, &other),
        Err(StateError::FieldShape { .. })
    ));
    let mut longer = blob.to_vec();
    longer.push(0);
    assert_eq!(
        try_unpack_state(&Bytes::from(longer), &grid).unwrap_err(),
        StateError::Trailing(1)
    );
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
        Species::maxwellian_charged(&grid, 3, 0.1, -1.0, -1.0, 5),
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
            let species = vec![Species::maxwellian_charged(
                &grid,
                3,
                0.1,
                -1.0,
                -1.0,
                5 + r as u64,
            )];
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
