//! Cross-crate integration: the whole DEEP-ER software stack working
//! together — modular system, psmpi spawn offload, I/O through the cache
//! domain onto the parallel file system, and SCR checkpoint/restart of a
//! running xPic-style job after injected node failures.

use bytes::Bytes;
use cluster_booster::presets::{deep_er_prototype, mini_prototype};
use cluster_booster::{JobSpec, Launcher};
use hwmodel::{NodeId, SimTime};
use parking_lot::Mutex;
use psmpi::ReduceOp;
use scr::{CheckpointLevel, Payload, ScrConfig, ScrManager};
use sionio::{CacheDomain, CacheMode, ParallelFs, SionContainer};
use std::sync::Arc;

#[test]
fn job_writes_task_local_checkpoints_through_the_stack() {
    // A 4-rank Booster job writes per-rank state through the BeeOND-style
    // cache into a SION container, simulating the §III-C I/O path.
    let launcher = Launcher::new(deep_er_prototype());
    let pfs = ParallelFs::deep_er();
    let cache = CacheDomain::new(
        pfs.clone(),
        hwmodel::presets::nvme_p3700(),
        CacheMode::Asynchronous,
    );
    let (container, _) = SionContainer::create(&pfs, "/ckpt/state.sion", 4, 4096).unwrap();

    let cache_in = cache.clone();
    let container_in = container.clone();
    launcher
        .launch(&JobSpec::booster_only("io-job", 4), move |rank, _| {
            let me = rank.rank();
            let state = vec![me as u8; 2048];
            // Stage locally (fast), then write the shared container chunk.
            let t_cache = cache_in.write(rank.node_id(), format!("/stage/r{me}"), &state);
            rank.advance(t_cache);
            let t_sion = container_in.write_task(me, &state).unwrap();
            rank.advance(t_sion);
            let w = rank.world();
            rank.barrier(&w).unwrap();
        })
        .unwrap();

    // Everything landed: one shared file + readable chunks.
    for r in 0..4 {
        let (data, _) = container.read_task(r).unwrap();
        assert_eq!(data, vec![r as u8; 2048]);
    }
    // The async cache still holds dirty staged copies until flushed.
    assert!(
        cache.dirty_count(NodeId(16)) > 0,
        "staged data awaits flush"
    );
    cache.flush(NodeId(16));
    assert_eq!(cache.dirty_count(NodeId(16)), 0);
}

#[test]
fn xpic_like_job_survives_node_failure_via_scr() {
    // Run a partitioned job that checkpoints its (toy) state at the buddy
    // level each "step"; kill a node; restart from SCR and verify state.
    let launcher = Launcher::new(mini_prototype());
    let nodes: Vec<NodeId> = launcher.system().booster_nodes();
    let specs = nodes
        .iter()
        .map(|&n| launcher.system().fabric().node(n).unwrap().clone())
        .collect();
    let scr = ScrManager::new(
        ScrConfig::default(),
        nodes.clone(),
        specs,
        ParallelFs::deep_er(),
    );

    let scr_in = scr.clone();
    let step_counter = Arc::new(Mutex::new(Vec::<u64>::new()));
    let steps_in = step_counter.clone();
    launcher
        .launch(&JobSpec::booster_only("ckpt-job", 2), move |rank, _| {
            let w = rank.world();
            for step in 1..=3u64 {
                // "Compute": fold the step into a per-rank state value.
                let state = vec![(step * 10 + rank.rank() as u64) as u8; 512];
                // Rank 0 gathers all states and registers the checkpoint
                // (the SCR API is called collectively in the real library;
                // the gather models the same data movement).
                let gathered = rank.gather(&w, 0, &state).unwrap();
                if let Some(blobs) = gathered {
                    let cost = scr_in
                        .checkpoint(step, CheckpointLevel::Buddy, &blobs)
                        .unwrap();
                    rank.advance(cost);
                    steps_in.lock().push(step);
                }
                rank.barrier(&w).unwrap();
            }
        })
        .unwrap();

    assert_eq!(*step_counter.lock(), vec![1, 2, 3]);

    // Node 0 of the job dies; the buddy level still recovers step 3.
    scr.fail_nodes(&[nodes[0]]);
    let (id, level, blobs, _) = scr.restart().unwrap();
    assert_eq!(id, 3);
    assert_eq!(level, CheckpointLevel::Buddy);
    assert_eq!(blobs[0], vec![30u8; 512]);
    assert_eq!(blobs[1], vec![31u8; 512]);
}

#[test]
fn spawned_worlds_share_the_fabric_with_io() {
    // The parent world on the Cluster spawns Booster workers; both worlds
    // exchange data and the virtual clocks stay coherent (children start
    // after the spawn, messages never arrive before they were sent).
    let launcher = Launcher::new(mini_prototype());
    let stamps = Arc::new(Mutex::new(Vec::<(SimTime, SimTime)>::new()));
    let stamps_in = stamps.clone();
    launcher
        .launch(
            &JobSpec::partitioned("spawny", 2, 2).boot_on(cluster_booster::ModuleKind::Cluster),
            move |rank, alloc| {
                let w = rank.world();
                let booster = alloc.booster.clone();
                let sent_at = rank.now();
                let ic = rank
                    .spawn(
                        &w,
                        &booster,
                        Arc::new(|child: &mut psmpi::Rank| {
                            let p = child.parent().unwrap();
                            let cw = child.world();
                            let s = child
                                .allreduce_scalar(&cw, child.rank() as f64, ReduceOp::Sum)
                                .unwrap();
                            if child.rank() == 0 {
                                child.send_comm(&p, 0, 5, &s).unwrap();
                            }
                        }),
                    )
                    .unwrap();
                if rank.rank() == 0 {
                    let (s, st) = rank.recv_comm::<f64>(&ic, Some(0), Some(5)).unwrap();
                    assert_eq!(s, 1.0); // 0 + 1
                    stamps_in.lock().push((sent_at, st.arrival));
                }
            },
        )
        .unwrap();
    let stamps = stamps.lock();
    let (before_spawn, arrival) = stamps[0];
    assert!(
        arrival > before_spawn + SimTime::from_millis(50.0) * 0.99,
        "child data cannot arrive before the spawn completed: {before_spawn} vs {arrival}"
    );
}

#[test]
fn scheduler_runs_xpic_style_mix_to_completion() {
    // The one scheduler loop (`sched::Engine`) over a mix of rigid jobs on
    // the 16 CN + 8 BN prototype.
    use sched::{Engine, EngineConfig, TraceJob};
    let h = SimTime::from_secs(100.0);
    let mix = [
        TraceJob::rigid(0, "xpic-c+b", 8, 8, h, SimTime::ZERO),
        TraceJob::rigid(1, "seismic", 8, 0, h, SimTime::ZERO),
        TraceJob::rigid(2, "md", 0, 8, h * 0.5, SimTime::ZERO),
    ];
    let report = Engine::new(deep_er_prototype(), EngineConfig::default())
        .run(&mix, &simnet::FaultPlan::new());
    assert_eq!(report.completed, 3);
    // xpic + seismic fill the Cluster at once; md needs the Booster xpic
    // holds and starts the moment xpic frees it.
    assert_eq!(report.starts_of(0), vec![SimTime::ZERO]);
    assert_eq!(report.starts_of(1), vec![SimTime::ZERO]);
    assert_eq!(report.starts_of(2), vec![h]);
    assert_eq!(report.makespan, SimTime::from_secs(150.0));
    // All 16 CN busy for 100 of the 150 s.
    assert_eq!(report.cluster_utilization, 2.0 / 3.0);
}

#[test]
fn blocking_p2p_equals_post_plus_wait_on_two_nodes() {
    // Tier-1 slice of psmpi's equivalence table (psmpi/tests/requests.rs):
    // every p2p call is one post, and a blocking call is that post
    // completed on the spot — so a blocking send and `isend` + immediate
    // `wait` must leave identical clocks, comm_time, counters, payload bits
    // and error, on an intra- and an inter-communicator, clean and with
    // the destination node dead.
    use psmpi::datatype::{pod_to_bytes, read_pod_into_exact};
    use psmpi::{Comm, MpiError, MpiRequest, Rank, Universe};
    use simnet::{Fabric, FaultPlan, Topology};

    fn data() -> Vec<f64> {
        (0..64).map(|i| i as f64 * 0.25).collect()
    }
    /// A `_sized` bytes send, then a slice send; the name of the error
    /// variant if either fails.
    fn send(rank: &mut Rank, c: &impl Comm, dst: usize, post_wait: bool) -> Option<String> {
        let both = |rank: &mut Rank| -> Result<(), MpiError> {
            let (raw, slice) = (pod_to_bytes(&data()), data());
            if post_wait {
                rank.isend_bytes_comm_sized(c, dst, 3, raw, 1 << 16)?
                    .wait(rank)?;
                rank.isend_bytes_comm(c, dst, 4, pod_to_bytes(&slice))?
                    .wait(rank)
            } else {
                rank.send_bytes_comm_sized(c, dst, 3, raw, 1 << 16)?;
                rank.send_slice_comm(c, dst, 4, &slice)
            }
        };
        let variant = |e: MpiError| format!("{e:?}").split(' ').next().unwrap().to_string();
        both(rank).err().map(variant)
    }
    fn recv(rank: &mut Rank, c: &impl Comm) -> Vec<u64> {
        let mut a = vec![0.0f64; 64];
        let (bytes, _) = rank.recv_bytes_comm(c, Some(0), Some(3)).unwrap();
        read_pod_into_exact(&bytes, &mut a).unwrap();
        let mut b = vec![0.0f64; 64];
        rank.recv_into_comm(c, Some(0), Some(4), &mut b).unwrap();
        a.iter().chain(&b).map(|x| x.to_bits()).collect()
    }

    let run = |inter: bool, dead: bool, post_wait: bool| {
        let mut t = Topology::new();
        t.add_nodes(2, &hwmodel::presets::deep_er_cluster_node());
        let fabric = Fabric::new(t);
        if dead {
            fabric.set_fault_plan(FaultPlan::from_node_faults([(SimTime::ZERO, NodeId(1))]));
        }
        let seen = Arc::new(Mutex::new((None, Vec::new())));
        let (at_sender, at_receiver) = (seen.clone(), seen.clone());
        let receive = move |rank: &mut Rank, c: &dyn Fn(&mut Rank) -> Vec<u64>| {
            if !dead {
                at_receiver.lock().1 = c(rank);
            }
        };
        let u = Universe::new(fabric);
        let report = if inter {
            u.launch(&[NodeId(0)], move |rank| {
                let receive = receive.clone();
                let ic = rank
                    .spawn_world(&[NodeId(1)], move |child: &mut Rank| {
                        let parent = child.parent().unwrap();
                        receive(child, &|r| recv(r, &parent));
                    })
                    .unwrap();
                at_sender.lock().0 = send(rank, &ic, 0, post_wait);
            })
        } else {
            u.launch(&[NodeId(0), NodeId(1)], move |rank| {
                let w = rank.world();
                if rank.rank() == 0 {
                    at_sender.lock().0 = send(rank, &w, 1, post_wait);
                } else {
                    receive(rank, &|r| recv(r, &w));
                }
            })
        };
        let mut outcomes: Vec<_> = report
            .outcomes()
            .iter()
            .map(|o| {
                (
                    o.world.0,
                    o.rank,
                    o.clock,
                    o.comm_time,
                    o.bytes_sent,
                    o.msgs_sent,
                )
            })
            .collect();
        outcomes.sort_by_key(|o| (o.0, o.1));
        let (error, bits) = seen.lock().clone();
        (outcomes, error, bits)
    };
    for inter in [false, true] {
        for dead in [false, true] {
            let blocking = run(inter, dead, false);
            assert_eq!(
                blocking,
                run(inter, dead, true),
                "inter={inter} dead={dead}"
            );
            let (outcomes, error, bits) = blocking;
            if dead {
                assert_eq!(error.as_deref(), Some("NodeFailed"));
                assert_eq!((outcomes[0].4, outcomes[0].5), (0, 0), "nothing went out");
            } else {
                assert_eq!(error, None);
                assert_eq!((outcomes[0].4, outcomes[0].5), ((1 << 16) + 512, 2));
                let sent: Vec<u64> = data().iter().map(|x| x.to_bits()).collect();
                assert_eq!(bits, [sent.clone(), sent].concat());
            }
        }
    }
}

#[test]
fn xpic_physics_bits_are_pinned_across_commits() {
    // Every other bit-exactness gate compares two runs of the same build
    // (thread counts, modes, clean vs recovered), so a kernel change that
    // reassociated a sum would pass them all. These constants were recorded
    // at commit d0a74c4, before the xPic kernels were rewritten around
    // `Stencil` and row slices: 16 x 16 cells x 8 particles per cell,
    // 3 steps, seed 20180521. A change that moves them changes the
    // physics, and with `cg_iters` every virtual time.
    use xpic::{run_mode, Mode, XpicConfig};

    // (nodes per solver, field energy, kinetic energy, CG iterations)
    const PINS: [(usize, u64, u64, u64); 2] = [
        (1, 0x3fe6e5eec427a8bc, 0x3fedf9a3932ffee1, 93),
        (2, 0x3fe6e5eec427a8c3, 0x3fedf9a3932ffee0, 186),
    ];
    let cfg = XpicConfig {
        steps: 3,
        threads: 1,
        ..XpicConfig::test_small()
    };
    for (nodes, field_energy, kinetic_energy, cg_iters) in PINS {
        for mode in [Mode::ClusterOnly, Mode::BoosterOnly, Mode::ClusterBooster] {
            let report = run_mode(&Launcher::new(deep_er_prototype()), mode, nodes, &cfg);
            assert_eq!(
                (
                    report.field_energy.to_bits(),
                    report.kinetic_energy.to_bits(),
                    report.cg_iters
                ),
                (field_energy, kinetic_energy, cg_iters),
                "{} on {nodes} node(s) per solver",
                mode.label()
            );
        }
    }
}

#[test]
fn checkpoint_virtual_times_are_pinned_across_commits() {
    // The ci.sh async-checkpoint reports print nine decimals and compare a
    // build with itself or with a golden file; a checkpoint cost that moved
    // by one ulp (say, charged as local + drain instead of in one piece)
    // would round to the same text. These are the exact bits, recorded at
    // commit e2a7c79 — before `checkpoint`, `checkpoint_async` and the
    // three `CkptMode`s were put on one stage/promote path: 2 Booster
    // ranks, 16 x 16 cells x 8 particles per cell, 6 steps, a Buddy-level
    // checkpoint every 2, clean and with the second rank's node dying at
    // 0.053 s (after the step-4 checkpoint was staged: the blocking mode
    // resumes from it, the async modes lost its drain and fall back to 2).
    use simnet::FaultPlan;
    use xpic::resilience::{run_resilient, RecoveryConfig};
    use xpic::CkptMode::{self, Async, AsyncDelta, Sync};
    use xpic::XpicConfig;

    let cfg = XpicConfig {
        steps: 6,
        threads: 1,
        ..XpicConfig::test_small()
    };
    let pin = |ckpt_mode: CkptMode, resumed: Option<u32>, bits: [u64; 2], ckpts_taken: u32| {
        let launcher = Launcher::new(deep_er_prototype());
        let nodes: Vec<NodeId> = launcher.system().booster_nodes()[..2].to_vec();
        let specs = nodes
            .iter()
            .map(|&n| launcher.system().fabric().node(n).unwrap().clone())
            .collect();
        let scr = ScrManager::new(
            ScrConfig::default(),
            nodes.clone(),
            specs,
            ParallelFs::deep_er(),
        );
        let recovery = RecoveryConfig {
            checkpoint_every: 2,
            ckpt_mode,
            ..RecoveryConfig::default()
        };
        let death = (SimTime::from_secs(0.053), nodes[1]);
        let plan = resumed.map(|_| FaultPlan::from_node_faults([death]));
        let report = run_resilient(&launcher, 2, &cfg, &scr, &recovery, plan);
        assert_eq!(
            (
                [report.ckpt_block, report.makespan].map(|t| t.as_secs().to_bits()),
                report.ckpts_taken,
                report.resume_steps,
            ),
            (bits, ckpts_taken, Vec::from_iter(resumed)),
            "{ckpt_mode:?}, resumed from {resumed:?}"
        );
    };
    // Clean: ckpt_block bits, makespan bits, checkpoints taken.
    for (mode, block, makespan, ckpts) in [
        (Sync, 0x3f30e154dcb27926, 0x3fabe721a73b3106, 2),
        (Async, 0x3f17f310d9412462, 0x3fabd15885ee6ca6, 2),
        (AsyncDelta, 0x3f17f322eec6f056, 0x3fabd15890b9f74a, 2),
    ] {
        pin(mode, None, [block, makespan], ckpts);
    }
    // With the death: the same of the world that finished the job, and the
    // step it resumed from.
    for (mode, block, makespan, ckpts, resumed) in [
        (Sync, 0x0000000000000000, 0x3fc3c440383e9d52, 0, 4),
        (Async, 0x3f07f310d9412462, 0x3fc3f3aebcedc0da, 1, 2),
        (AsyncDelta, 0x3f07f322eec6f056, 0x3fc3f3aebe47322f, 1, 2),
    ] {
        pin(mode, Some(resumed), [block, makespan], ckpts);
    }
}

#[test]
fn blocking_checkpoint_equals_stage_then_promote() {
    // Tier-1 slice of scr's property test (scr/tests/async_props.rs): the
    // blocking `checkpoint` is the async one promoted on the spot, so both
    // leave the same database, the same restartable state and the same
    // restore cost — before and after a node is lost.
    let manager = || {
        let spec = Arc::new(hwmodel::presets::deep_er_booster_node());
        ScrManager::new(
            ScrConfig::default(),
            (0..3).map(NodeId).collect(),
            vec![spec; 3],
            ParallelFs::deep_er(),
        )
    };
    let data: Vec<Vec<u8>> = (0..3u8).map(|r| vec![r + 40; 700 + r as usize]).collect();
    for level in [CheckpointLevel::Buddy, CheckpointLevel::Global] {
        let (sync, asn) = (manager(), manager());
        let cost = sync.checkpoint(5, level, &data).unwrap();
        let shared: Vec<Bytes> = data.iter().cloned().map(Bytes::from).collect();
        let pending = asn
            .checkpoint_async(5, level, Payload::Blobs(&shared))
            .unwrap();
        assert_eq!(cost, pending.full_cost, "{level:?}");
        assert_eq!(asn.level_of(5), Some(CheckpointLevel::Local));
        asn.finish_drain(pending).unwrap();
        for lost in [None, Some(NodeId(1))] {
            if let Some(node) = lost {
                sync.fail_nodes(&[node]);
                asn.fail_nodes(&[node]);
            }
            assert_eq!(sync.level_of(5), Some(level));
            assert_eq!(asn.level_of(5), Some(level));
            assert_eq!(sync.record_count(), asn.record_count());
            assert_eq!(sync.recoverable(5), asn.recoverable(5));
            let restored = sync.restart().unwrap();
            assert_eq!(restored, asn.restart().unwrap(), "{level:?}, lost {lost:?}");
            assert_eq!(restored.0, 5);
            assert_eq!(restored.2, data);
        }
    }
}
