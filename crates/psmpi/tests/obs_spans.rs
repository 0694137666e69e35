//! Observability across `comm_spawn`: spans stay well-nested on both sides
//! of the inter-communicator, teardown under *active* spans is counted
//! rather than lost, and the critical path crosses the intercomm into the
//! spawned world.

use hwmodel::presets::{deep_er_booster_node, deep_er_cluster_node};
use hwmodel::{NodeId, SimTime};
use obs::{Category, Recorder, TrackKey};
use psmpi::{Rank, Universe};
use simnet::{Fabric, Topology};

fn universe(cn: u32, bn: u32) -> Universe {
    let mut t = Topology::new();
    t.add_nodes(cn, &deep_er_cluster_node());
    t.add_nodes(bn, &deep_er_booster_node());
    Universe::new(Fabric::new(t))
}

fn work(name: &str) -> hwmodel::WorkSpec {
    hwmodel::WorkSpec::named(name)
        .flops(1e8)
        .parallel_fraction(0.9)
        .build()
}

#[test]
fn spawn_teardown_under_active_spans() {
    // Parent opens a phase span, spawns a child world, exchanges messages
    // with it while both sides hold open spans, disconnects, and closes.
    let u = universe(1, 1);
    let rec = Recorder::new();
    u.attach_obs(rec.clone());

    u.launch(&[NodeId(0)], |rank| {
        let phase = rank.obs_open(Category::Phase, "parent-phase");
        let ic = rank
            .spawn_world(&[NodeId(1)], |child: &mut Rank| {
                let cphase = child.obs_open(Category::Phase, "child-phase");
                let parent = child.parent().unwrap();
                child.compute(&work("child-kernel"));
                child.send_comm(&parent, 0, 3, &41u64).unwrap();
                let (v, _) = child.recv_comm::<u64>(&parent, Some(0), Some(4)).unwrap();
                assert_eq!(v, 42);
                child.obs_close(cphase);
                // A second span is *left open* at teardown on purpose.
                let _leak = child.obs_open(Category::Wait, "left-open");
            })
            .unwrap();
        let (v, _) = rank.recv_comm::<u64>(&ic, Some(0), Some(3)).unwrap();
        rank.send_comm(&ic, 0, 4, &(v + 1)).unwrap();
        rank.obs_close(phase);
        ic.disconnect();
    });

    let trace = rec.snapshot();
    assert_eq!(trace.tracks.len(), 2, "one track per rank per world");

    let parent = &trace.tracks[0];
    let child = &trace.tracks[1];
    assert!(parent.key.world != child.key.world, "distinct worlds");
    assert_eq!(parent.unclosed, 0, "parent closed everything");
    assert_eq!(
        child.unclosed, 1,
        "the deliberately leaked guard is counted, not lost"
    );

    // Parent side: the comm_spawn offload span nests inside parent-phase.
    let p_phase = parent
        .spans
        .iter()
        .find(|s| s.name == "parent-phase")
        .unwrap();
    let p_spawn = parent
        .spans
        .iter()
        .find(|s| s.name == "comm_spawn")
        .unwrap();
    assert_eq!(p_phase.depth, 0);
    assert!(p_spawn.depth > p_phase.depth);
    assert!(p_spawn.start >= p_phase.start && p_spawn.end <= p_phase.end);

    // Child side: its track carries the spawn origin back to the parent,
    // its phase span is closed, and runtime spans nested within it.
    assert_eq!(child.origin, Some(parent.key));
    let c_phase = child
        .spans
        .iter()
        .find(|s| s.name == "child-phase")
        .unwrap();
    assert!(c_phase.end > c_phase.start);
    let c_kernel = child
        .spans
        .iter()
        .find(|s| s.name == "child-kernel")
        .unwrap();
    assert!(c_kernel.depth > c_phase.depth);

    // Every span on both sides is within its track's lifetime.
    for tr in &trace.tracks {
        for s in &tr.spans {
            assert!(s.start >= tr.start && s.end <= tr.final_clock);
        }
    }
}

#[test]
fn critical_path_crosses_the_intercomm() {
    // The child does the only real work; the parent just waits for the
    // result. The critical path must end on the parent but run through the
    // child world — two worlds in the walk.
    let u = universe(1, 1);
    let rec = Recorder::new();
    u.attach_obs(rec.clone());

    u.launch(&[NodeId(0)], |rank| {
        let ic = rank
            .spawn_world(&[NodeId(1)], |child: &mut Rank| {
                let parent = child.parent().unwrap();
                child.compute(&work("heavy"));
                child.send_comm(&parent, 0, 9, &7u64).unwrap();
            })
            .unwrap();
        let (v, _) = rank.recv_comm::<u64>(&ic, Some(0), Some(9)).unwrap();
        assert_eq!(v, 7);
    });

    let trace = rec.snapshot();
    let cp = trace.critical_path();

    assert_eq!(cp.end, TrackKey { world: 0, rank: 0 }, "ends on the parent");
    assert_eq!(cp.worlds.len(), 2, "walk crosses the intercomm: {cp:?}");
    assert!(!cp.hops.is_empty());
    // Category shares telescope to the makespan.
    let diff = (cp.total().as_secs() - trace.makespan().as_secs()).abs();
    assert!(
        diff < 1e-9,
        "sum {} vs makespan {}",
        cp.total(),
        trace.makespan()
    );
    // The child's compute leg is on the path.
    assert!(cp.share("compute") > 0.0);
}

#[test]
fn traces_are_identical_across_runs() {
    // Two identical jobs on fresh universes must export byte-identical
    // Chrome traces and reports.
    let run = || {
        let u = universe(2, 2);
        let rec = Recorder::new();
        u.attach_obs(rec.clone());
        u.launch(&[NodeId(0), NodeId(1)], |rank| {
            let w = rank.world();
            let phase = rank.obs_open(Category::Phase, "step");
            rank.compute(&work("k"));
            let _ = rank
                .allreduce_scalar(&w, 1.0, psmpi::ReduceOp::Sum)
                .unwrap();
            rank.obs_close(phase);
        });
        let t = rec.snapshot();
        (t.chrome_json(), t.report())
    };
    let (json_a, rep_a) = run();
    let (json_b, rep_b) = run();
    assert_eq!(json_a, json_b, "chrome trace is deterministic");
    assert_eq!(rep_a, rep_b, "text report is deterministic");
    assert!(json_a.contains("\"ph\":\"X\""));
    assert!(rep_a.contains("critical path"));
    let _ = SimTime::ZERO;
}
