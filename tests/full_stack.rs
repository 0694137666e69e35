//! Cross-crate integration: the whole DEEP-ER software stack working
//! together — modular system, psmpi spawn offload, I/O through a SION
//! container onto the parallel file system, and SCR checkpoint/restart of a
//! running xPic-style job after injected node failures.

use bytes::Bytes;
use cluster_booster::presets::deep_er_prototype;
use cluster_booster::{JobSpec, Launcher, System, SystemBuilder};
use hwmodel::{NodeId, SimTime};
use lockrank::Mutex;
use psmpi::ReduceOp;
use scr::{CheckpointLevel, Payload, ScrConfig, ScrManager};
use sionio::{ParallelFs, SionContainer};
use std::sync::Arc;

/// A reduced prototype: 2 CN + 2 BN.
fn mini_prototype() -> System {
    SystemBuilder::new("mini")
        .cluster_nodes(2)
        .booster_nodes(2)
        .build()
}

#[test]
fn job_writes_task_local_checkpoints_through_the_stack() {
    // A 4-rank Booster job writes per-rank state into a SION container,
    // simulating the §III-C I/O path.
    let launcher = Launcher::new(deep_er_prototype());
    let pfs = ParallelFs::deep_er();
    let (container, _) = SionContainer::create(&pfs, "/ckpt/state.sion", 4, 4096).unwrap();

    let container_in = container.clone();
    launcher
        .launch(&JobSpec::booster_only("io-job", 4), move |rank, _| {
            let me = rank.rank();
            let state = vec![me as u8; 2048];
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
    let step_counter = Arc::new(Mutex::<_, 900>::new(Vec::<u64>::new()));
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
                let gathered = rank.gather_bytes(&w, 0, Bytes::from(state)).unwrap();
                if let Some(gathered) = gathered {
                    let blobs: Vec<Vec<u8>> = gathered.iter().map(|b| b.to_vec()).collect();
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
    let stamps = Arc::new(Mutex::<_, 900>::new(Vec::<(SimTime, SimTime)>::new()));
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
    // `wait` must leave identical clocks, counters, payload bits
    // and error, on an intra- and an inter-communicator, clean and with
    // the destination node dead.
    use psmpi::datatype::{pod_to_bytes, read_pod_into_exact};
    use psmpi::{Comm, MpiError, MpiRequest, Rank, Universe, Wire};
    use simnet::{Fabric, FaultPlan, Topology};

    fn data() -> Vec<f64> {
        (0..64).map(|i| i as f64 * 0.25).collect()
    }
    /// A bytes send at a modelled size, then a slice send; the name of the
    /// error variant if either fails.
    fn send(rank: &mut Rank, c: &impl Comm, dst: usize, post_wait: bool) -> Option<String> {
        let both = |rank: &mut Rank| -> Result<(), MpiError> {
            let (raw, slice) = (pod_to_bytes(&data()), data());
            if post_wait {
                rank.isend_bytes_comm(c, dst, 3, Wire::modelled(raw, 1 << 16))?
                    .wait(rank)?;
                rank.isend_bytes_comm(c, dst, 4, pod_to_bytes(&slice))?
                    .wait(rank)
            } else {
                rank.send_bytes_comm(c, dst, 3, Wire::modelled(raw, 1 << 16))?;
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
        let (bytes, _) = rank.recv_bytes_comm(c, Some(0), Some(4)).unwrap();
        read_pod_into_exact(&bytes, &mut b).unwrap();
        a.iter().chain(&b).map(|x| x.to_bits()).collect()
    }

    let run = |inter: bool, dead: bool, post_wait: bool| {
        let mut t = Topology::new();
        t.add_nodes(2, &hwmodel::presets::deep_er_cluster_node());
        let fabric = Fabric::new(t);
        if dead {
            fabric.set_fault_plan(FaultPlan::from_node_faults([(SimTime::ZERO, NodeId(1))]));
        }
        let seen = Arc::new(Mutex::<_, 900>::new((None, Vec::new())));
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
            .map(|o| (o.world.0, o.rank, o.clock, o.bytes_sent, o.msgs_sent))
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
                assert_eq!((outcomes[0].3, outcomes[0].4), (0, 0), "nothing went out");
            } else {
                assert_eq!(error, None);
                assert_eq!((outcomes[0].3, outcomes[0].4), ((1 << 16) + 512, 2));
                let sent: Vec<u64> = data().iter().map(|x| x.to_bits()).collect();
                assert_eq!(bits, [sent.clone(), sent].concat());
            }
        }
    }
}

/// Where a pin that moved writes its candidate golden.
const TMP: &str = env!("CARGO_TARGET_TMPDIR");

#[test]
fn xpic_physics_bits_are_pinned_across_commits() {
    // Every other bit-exactness gate compares two runs of the same build
    // (thread counts, modes, clean vs recovered), so a kernel change that
    // reassociated a sum would pass them all. This pins 16 x 16 cells x 8
    // particles per cell, 3 steps, seed 20180521, in every placement.
    // Every value is program: a change that moves one changes the
    // physics, and with `cg_iters` every virtual time.
    use xpic::{run_mode, Mode, XpicConfig};

    let cfg = XpicConfig {
        steps: 3,
        threads: 1,
        ..XpicConfig::test_small()
    };
    let mut pins = String::new();
    for nodes in [1, 2] {
        for mode in [Mode::ClusterOnly, Mode::BoosterOnly, Mode::ClusterBooster] {
            let r = run_mode(&Launcher::new(deep_er_prototype()), mode, nodes, &cfg);
            let (fe, ke) = (r.field_energy.to_bits(), r.kinetic_energy.to_bits());
            pins += &format!(
                "{} nodes={nodes} fe={fe:#018x} ke={ke:#018x} cg_iters={}\n",
                mode.label(),
                r.cg_iters
            );
        }
    }
    cb_bench::golden::assert_pinned("xpic_physics.golden", &pins, &[], TMP);
}

#[test]
fn xpic_report_is_a_query_over_its_phase_spans() {
    // `run_mode` keeps no clock of its own: its section times are the
    // ranks' `field` and `particle` phases and its total the `steady`
    // one. A recorder sees the same spans, so the report must equal, to
    // the bit, the slowest track's summed span durations (spans of one
    // name never overlap, so start order is closing order).
    use obs::{Category, Recorder, Trace};
    use xpic::{run_mode, Mode, XpicConfig};

    fn slowest(trace: &Trace, name: &str) -> SimTime {
        let per_track = trace.tracks.iter().map(|t| {
            let spans = t.spans.iter();
            let mine = spans.filter(|s| s.cat == Category::Phase && s.name == name);
            mine.fold(SimTime::ZERO, |sum, s| sum + (s.end - s.start))
        });
        per_track.max().unwrap_or(SimTime::ZERO)
    }

    let placements = [
        (Mode::ClusterOnly, true),
        (Mode::BoosterOnly, true),
        (Mode::ClusterBooster, true),
        (Mode::ClusterBooster, false),
    ];
    for nodes in [1, 2] {
        for (mode, overlap) in placements {
            let cfg = XpicConfig {
                steps: 4,
                threads: 1,
                overlap,
                ..XpicConfig::test_small()
            };
            let launcher = Launcher::new(deep_er_prototype());
            let rec = Recorder::new();
            launcher.universe().attach_obs(rec.clone());
            let r = run_mode(&launcher, mode, nodes, &cfg);
            let trace = rec.snapshot();
            let run = format!("{} overlap={overlap} nodes={nodes}", mode.label());
            let field = slowest(&trace, "field");
            let particle = slowest(&trace, "particle");
            assert!(field > SimTime::ZERO && particle > SimTime::ZERO, "{run}");
            assert_eq!(
                r.field_time.as_secs().to_bits(),
                field.as_secs().to_bits(),
                "{run}"
            );
            assert_eq!(
                r.particle_time.as_secs().to_bits(),
                particle.as_secs().to_bits(),
                "{run}"
            );
            let steady = slowest(&trace, "steady") * (4.0 / 3.0);
            assert_eq!(
                r.total.as_secs().to_bits(),
                steady.as_secs().to_bits(),
                "{run}"
            );
        }
    }
}

#[test]
fn checkpoint_virtual_times_are_pinned_across_commits() {
    // The equivalence matrix (below) prints nine decimals; a checkpoint
    // cost that moved by one ulp (say, charged as local + drain instead of
    // in one piece) would round to the same text. These are the exact bits:
    // 2 Booster ranks, 16 x 16 cells x 8 particles per cell, 6 steps, a
    // Buddy-level checkpoint every 2 (after steps 2 and 4), clean and with
    // the second rank's node dying after the second checkpoint was staged,
    // in the middle of that window in the mode's own clean run. The
    // blocking mode resumes from step 4; the async modes lost its drain
    // and fall back to step 2. The block and makespan bits are prices; the
    // checkpoints taken and the resume steps are program.
    use obs::Recorder;
    use simnet::FaultPlan;
    use xpic::resilience::{run_resilient, RecoveryConfig};
    use xpic::CkptMode::{Async, AsyncDelta, Sync};
    use xpic::XpicConfig;

    let cfg = XpicConfig {
        steps: 6,
        threads: 1,
        ..XpicConfig::test_small()
    };
    let mut pins = String::new();
    let mut staged = Vec::new();
    for (run, dies) in [("clean", false), ("node-death", true)] {
        for (i, ckpt_mode) in [Sync, Async, AsyncDelta].into_iter().enumerate() {
            let launcher = Launcher::new(deep_er_prototype());
            let rec = Recorder::new();
            launcher.universe().attach_obs(rec.clone());
            let nodes: Vec<NodeId> = launcher.system().booster_nodes()[..2].to_vec();
            let specs = nodes
                .iter()
                .map(|&n| launcher.system().fabric().node(n).unwrap().clone())
                .collect();
            let pfs = ParallelFs::deep_er();
            let scr = ScrManager::new(ScrConfig::default(), nodes.clone(), specs, pfs);
            let recovery = RecoveryConfig {
                checkpoint_every: 2,
                ckpt_mode,
                ..RecoveryConfig::default()
            };
            let plan = dies.then(|| FaultPlan::from_node_faults([(staged[i], nodes[1])]));
            let r = run_resilient(&launcher, 2, &cfg, &scr, &recovery, plan);
            if dies {
                let want = if ckpt_mode == Sync { 4 } else { 2 };
                let at = staged[i];
                assert_eq!(r.resume_steps, [want], "{ckpt_mode:?} {run} at {at}");
            } else {
                let after = rec.snapshot().after_checkpoint(2);
                staged.push(after.expect("the clean run took two checkpoints"));
            }
            let [block, makespan] = [r.ckpt_block, r.makespan].map(|t| t.as_secs().to_bits());
            pins += &format!(
                "{ckpt_mode:?} {run} block_bits={block:#018x} makespan_bits={makespan:#018x} \
                 ckpts={} resumed={:?}\n",
                r.ckpts_taken, r.resume_steps
            );
        }
    }
    let prices = ["block_bits", "makespan_bits"];
    cb_bench::golden::assert_pinned("checkpoint.golden", &pins, &prices, TMP);
}

#[test]
fn equivalence_matrix_matches_its_golden() {
    // One xPic shape through C+B overlap and blocking, the combined loop
    // on the Cluster and on the Booster, and every checkpoint mode under
    // every fault class, each at threads 1, 2 and 4 with a recorder
    // attached (cb_bench::matrix): a row must print the same line, Chrome
    // trace and report at every thread count, all 48 cells the same FINAL
    // bits, every placement C+B's energy history, overlap must win and
    // async must block less. The table itself is pinned across commits.
    let matrix = cb_bench::matrix::run();
    assert_eq!(matrix.errors(), Vec::<String>::new());
    let prices = [
        "makespan_s",
        "wait_s",
        "wait_cut",
        "field_s",
        "particle_s",
        "block_s",
    ];
    cb_bench::golden::assert_pinned("matrix.golden", &matrix.render(), &prices, TMP);
}

#[test]
fn sched_reports_are_pinned_across_commits() {
    // The whole report — every event, reservation and wait, not the
    // aggregates the smoke's metrics hold — of a 600-job bursty trace on
    // 64 CN + 128 BN with a fault every few hours (dense enough to
    // requeue) and checkpointing on, under both policies at two seeds.
    // Each scalar field is a line (the destructure has no `..`, so a new
    // field does not compile until it is pinned); each vector is FNV-1a
    // hashes of the `Debug` text of its chunks of 1000 (shortest
    // round-trip floats: equal text is equal bits), a line per chunk with
    // its first entry. All of it is program: a change that moves a line
    // has changed a schedule, a victim or a node id.
    use cb_bench::sched_load::engine_config;
    use cluster_booster::resources::AllocationPolicy;
    use rand::{rngs::StdRng, SeedableRng};
    use sched::{generate, Engine, EngineReport, WorkloadConfig};

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
    fn chunks<T: std::fmt::Debug>(run: &str, name: &str, all: &[T]) -> String {
        let chunk = |(i, c): (usize, &[T])| {
            let (from, hash) = (i * 1000, fnv1a(format!("{c:?}").as_bytes()));
            let to = from + c.len();
            format!(
                "{run} {name}[{from}..{to}] first={:?} fnv1a={hash:#018x}\n",
                c[0]
            )
        };
        all.chunks(1000).enumerate().map(chunk).collect()
    }
    macro_rules! lines {
        ($run:expr, $report:expr; $($scalar:ident)*; $($vector:ident)*) => {{
            let EngineReport { $($scalar,)* $($vector,)* } = $report;
            let scalars = [$(format!("{} {}={:?}\n", $run, stringify!($scalar), $scalar)),*];
            [scalars.concat(), $(chunks(&$run, stringify!($vector), &$vector)),*].concat()
        }};
    }

    let mut pins = String::new();
    for seed in [20180521, 7] {
        let trace = generate(&WorkloadConfig::bursty(seed, 600, 32, 64));
        let failures = scr::FailureModel::new(SimTime::from_secs(900_000.0 / 50.0));
        let nodes: Vec<NodeId> = (0..192).map(NodeId).collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_FA17);
        let faults = failures.fault_plan(&mut rng, &nodes, SimTime::from_secs(40.0 * 3600.0));
        for (name, policy) in [
            ("independent", AllocationPolicy::Independent),
            ("node-locked", AllocationPolicy::NodeLocked { ratio: 2 }),
        ] {
            let cfg = engine_config(policy, failures.system_mtbf(nodes.len()));
            let system = SystemBuilder::new("sched")
                .cluster_nodes(64)
                .booster_nodes(128);
            let r = Engine::new(system.build(), cfg).run(&trace, &faults);
            let run = format!("{seed} {name}");
            pins += &lines!(run, r; makespan cluster_utilization booster_utilization completed
                starts backfill_starts requeues faults repairs expands shrinks;
                events reservations waits);
        }
    }
    cb_bench::golden::assert_pinned("sched_report.golden", &pins, &[], TMP);
}

#[test]
fn sched_smoke_metrics_are_pinned_across_commits() {
    // The `sched` bin's `--out` metrics at its default shape (the ci.sh
    // smoke), one line per metric, each value the text the JSON prints.
    // All of it is program.
    use cb_bench::sched_load::{run, JOBS, SEED};
    let metrics = run(JOBS, SEED).metrics;
    let line = |(k, v)| format!("{k}={}\n", obs::host::fmt_f64(v));
    let lines: String = metrics.iter().map(line).collect();
    cb_bench::golden::assert_pinned("sched_smoke.golden", &lines, &[], TMP);
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
        assert_eq!(asn.restart().unwrap().1, CheckpointLevel::Local);
        asn.finish_drain(pending).unwrap();
        for lost in [None, Some(NodeId(1))] {
            if let Some(node) = lost {
                sync.fail_nodes(&[node]);
                asn.fail_nodes(&[node]);
            }
            assert_eq!(sync.record_count(), asn.record_count());
            let restored = sync.restart().unwrap();
            assert_eq!(restored, asn.restart().unwrap(), "{level:?}, lost {lost:?}");
            assert_eq!((restored.0, restored.1), (5, level));
            assert_eq!(restored.2, data);
        }
    }
}
