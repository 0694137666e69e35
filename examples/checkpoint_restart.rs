//! Multi-level checkpoint/restart on the prototype (paper §III-C/D): local
//! NVMe, buddy copies over the fabric, and SION containers on the global
//! file system — exercised against injected node failures, plus the
//! failure-model-driven interval choice.
//!
//! Run with: `cargo run --example checkpoint_restart`

use hwmodel::presets::deep_er_booster_node;
use hwmodel::{NodeId, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scr::{simulate_run, CheckpointLevel, FailureModel, MultiLevelSchedule, ScrConfig, ScrManager};
use sionio::ParallelFs;
use std::sync::Arc;

fn main() {
    // An 8-rank job on Booster nodes writing to the prototype's BeeGFS.
    let ranks = 8;
    let spec = Arc::new(deep_er_booster_node());
    let scr = ScrManager::new(
        ScrConfig::default(),
        (0..ranks as u32).map(NodeId).collect(),
        vec![spec; ranks],
        ParallelFs::deep_er(),
    );

    // Level costs for a 64 MiB per-rank state drive the SCR schedule.
    let size = 64 << 20;
    let local = scr.checkpoint_cost(CheckpointLevel::Local, size);
    let buddy = scr.checkpoint_cost(CheckpointLevel::Buddy, size);
    let global = scr.checkpoint_cost(CheckpointLevel::Global, size);
    println!("checkpoint costs (64 MiB/rank): local {local}  buddy {buddy}  global {global}");

    let model = FailureModel::new(SimTime::from_secs(24.0 * 3600.0));
    let schedule = MultiLevelSchedule::derive(local, buddy, global, model.system_mtbf(ranks));
    println!(
        "derived schedule: local every {}, buddy every {} ckpts, global every {} ckpts\n",
        schedule.base_interval, schedule.buddy_every, schedule.global_every
    );

    // Take checkpoints per the schedule, then kill a node and restart.
    let state =
        |tag: u8| -> Vec<Vec<u8>> { (0..ranks).map(|r| vec![tag + r as u8; 1024]).collect() };
    for k in 1..=4u64 {
        let level = schedule.level_of(k as u32);
        let cost = scr.checkpoint(k, level, &state(k as u8 * 10)).unwrap();
        println!("checkpoint {k} at {level:?} took {cost}");
    }

    println!("\nnode 3 fails!");
    scr.fail_nodes(&[NodeId(3)]);
    let (id, level, blobs, cost) = scr.restart().expect("restartable");
    println!(
        "restarted from checkpoint {id} ({level:?}) in {cost}; rank 3 state byte = {}",
        blobs[3][0]
    );
    assert_eq!(
        blobs[3][0],
        (id as u8) * 10 + 3,
        "latest surviving state restored"
    );

    // The failure model also validates the interval choice end to end.
    let mut rng = StdRng::seed_from_u64(2018);
    let trace = model.sample_trace(
        &mut rng,
        &(0..8).map(NodeId).collect::<Vec<_>>(),
        SimTime::from_secs(1e7),
    );
    let week = SimTime::from_secs(7.0 * 24.0 * 3600.0);
    // Blocking local checkpoints (nothing drains behind them), restarts at
    // the buddy level's cost.
    let (block, drain, restart) = (local, SimTime::ZERO, buddy);
    let out = simulate_run(week, schedule.base_interval, block, drain, restart, &trace);
    println!(
        "\nweek-long run under the failure model: wall {} ({:.3}x ideal), {} failures absorbed",
        out.wall_time,
        out.overhead(week),
        out.failures_hit
    );
}
