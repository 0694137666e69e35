//! End-to-end assertions of every quantitative claim in the paper's
//! evaluation (§IV-C and Table I / Figs. 3, 7, 8), exercised through the
//! public APIs only. This is the reproduction's contract: the *shape* of
//! the published results must hold on the simulated prototype.

use cluster_booster::presets::deep_er_prototype;
use cluster_booster::{Launcher, ModuleKind};
use hwmodel::presets::{deep_er_booster_node, deep_er_cluster_node};
use psmpi::pingpong;
use xpic::{run_mode, Mode, XpicConfig};

#[test]
fn table1_system_configuration() {
    let sys = deep_er_prototype();
    assert_eq!(sys.cluster_nodes().len(), 16, "16 Cluster nodes");
    assert_eq!(sys.booster_nodes().len(), 8, "8 Booster nodes");
    let cn = sys.module(ModuleKind::Cluster).unwrap();
    let bn = sys.module(ModuleKind::Booster).unwrap();
    assert_eq!(cn.spec.cores(), 24);
    assert_eq!(bn.spec.cores(), 64);
    assert_eq!(bn.spec.threads(), 256);
    // Peak: 16 / 20 TFlop/s within 10%.
    assert!((cn.peak_gflops() - 16_000.0).abs() / 16_000.0 < 0.10);
    assert!((bn.peak_gflops() - 20_000.0).abs() / 20_000.0 < 0.10);
}

#[test]
fn fig3_latency_and_bandwidth_claims() {
    let cn = deep_er_cluster_node();
    let bn = deep_er_booster_node();
    // Table I: MPI latency 1.0 µs (Cluster), 1.8 µs (Booster).
    let cc = pingpong::measure(&cn, &cn, &[1], 1)[0].latency.as_micros();
    let bb = pingpong::measure(&bn, &bn, &[1], 1)[0].latency.as_micros();
    assert!((cc - 1.0).abs() < 0.05, "CN-CN latency {cc} µs");
    assert!((bb - 1.8).abs() < 0.05, "BN-BN latency {bb} µs");
    // "For small message sizes communication is more efficient between the
    // Cluster nodes due to the higher single thread performance."
    let small = 4096;
    let cc_bw = pingpong::measure(&cn, &cn, &[small], 1)[0].bandwidth_mbs;
    let bb_bw = pingpong::measure(&bn, &bn, &[small], 1)[0].bandwidth_mbs;
    assert!(cc_bw > bb_bw);
    // "For large messages communication performance between all kinds of
    // nodes is limited by fabric bandwidth."
    let large = 16 << 20;
    let bws = [
        pingpong::measure(&cn, &cn, &[large], 1)[0].bandwidth_mbs,
        pingpong::measure(&bn, &bn, &[large], 1)[0].bandwidth_mbs,
        pingpong::measure(&cn, &bn, &[large], 1)[0].bandwidth_mbs,
    ];
    for bw in bws {
        assert!(bw > 9000.0, "fabric-limited: {bw} MB/s");
    }
    assert!((bws[0] - bws[1]).abs() / bws[0] < 0.05, "curves converge");
}

/// The error budget of every scored row: `fidelity_max_rel_err` in the
/// repo benchmark is the largest of these relative errors.
const BUDGET: f64 = 0.05;

/// Assert `measured` lies within [`BUDGET`] of the paper's value.
fn within_budget(claim: &str, measured: f64, paper: f64) {
    let err = (measured - paper).abs() / paper;
    assert!(
        err <= BUDGET,
        "{claim}: {measured:.4} against the paper's {paper} ({:.1} % off, budget {:.0} %)",
        100.0 * err,
        100.0 * BUDGET
    );
}

#[test]
fn fig7_single_node_claims() {
    // Four steps here, ten in the `fig7` binary and the benchmark: the
    // ratios are per steady step and read the same at both (5.89x, 1.34x,
    // 1.29x, 1.20x, coupling 3.8 %).
    let launcher = Launcher::new(deep_er_prototype());
    let config = XpicConfig::paper_bench(4);
    let rc = run_mode(&launcher, Mode::ClusterOnly, 1, &config);
    let rb = run_mode(&launcher, Mode::BoosterOnly, 1, &config);
    let rcb = run_mode(&launcher, Mode::ClusterBooster, 1, &config);

    // "running the field solver on the Cluster is 6× faster than on the
    // Booster"
    let f = rb.field_time / rc.field_time;
    within_budget("field ratio", f, 6.0);
    // "it runs about 1.35× faster than on the Cluster" (particle solver)
    let p = rc.particle_time / rb.particle_time;
    within_budget("particle ratio", p, 1.35);
    // "a 1.28× performance gain ... compared to running the full code
    // using only the Cluster"
    let gc = rc.total / rcb.total;
    within_budget("gain vs Cluster", gc, 1.28);
    // "still a 1.21× performance gain ... [vs] the Booster alone"
    let gb = rb.total / rcb.total;
    within_budget("gain vs Booster", gb, 1.21);
    assert!(gc > gb && gb > 1.0, "C+B beats both, the Cluster by more");
    // "constitutes only a small fraction (3% to 4% overhead per solver)"
    let cf = rcb.coupling_fraction();
    assert!((0.03..=0.04).contains(&cf), "coupling fraction {cf:.4}");
}

#[test]
fn fig7_ratios_have_one_closed_form_split() {
    // The model's step: one module runs field then particles; C+B runs
    // field (Cluster), particles (Booster) and the coupling in
    // sequence, and a single-module run pays no coupling. In units of
    // the Booster particle time p = 1, with the paper's 6x and 1.35x:
    //   Cluster = f + 1.35,  Booster = 6f + 1,  C+B = f + 1 + k.
    // Cluster / C+B = 1.28 and Booster / C+B = 1.21 are two linear
    // equations in the Cluster field time f and the coupling k.
    let (field_ratio, particle_ratio) = (6.0, 1.35);
    let (gain_c, gain_b) = (1.28_f64, 1.21_f64);
    let r = gain_b / gain_c;
    let f = (r * particle_ratio - 1.0) / (field_ratio - r);
    let k = (f + particle_ratio) / gain_c - f - 1.0;
    let cb = f + 1.0 + k;
    assert!((f - 0.0546).abs() < 1e-4, "field share {f}");
    assert!((k - 0.0427).abs() < 1e-4, "coupling {k}");
    // The coupling is 3.9 % of a C+B step: inside the paper's 3-4 %.
    assert!((k / cb - 0.039).abs() < 1e-3, "coupling share {}", k / cb);
    // Forward, from the rounded split: all four Fig. 7 ratios hold.
    let (f, k) = (0.0546, 0.0427);
    let (cluster, booster, cb) = (f + particle_ratio, field_ratio * f + 1.0, f + 1.0 + k);
    assert!((cluster / cb - gain_c).abs() < 1e-3, "{}", cluster / cb);
    assert!((booster / cb - gain_b).abs() < 1e-3, "{}", booster / cb);

    // Fig. 8 agrees. With efficiency e(n) = T(1) / (n T(n)), a gain at
    // 8 nodes g8 = T_x(8) / T_cb(8) is the 1-node gain times
    // e_cb / e_x, so the paper's 8-node gains and efficiencies give
    // back its 1-node gains: 1.38 x 0.79 / 0.85 = 1.283 and
    // 1.34 x 0.77 / 0.85 = 1.214.
    let (eff_cb, eff_c, eff_b) = (0.85, 0.79, 0.77);
    assert!((1.38 * eff_c / eff_cb - gain_c).abs() < 0.005);
    assert!((1.34 * eff_b / eff_cb - gain_b).abs() < 0.005);
}

#[test]
fn fig8_scaling_claims() {
    // Three steps here, ten in the `fig8` binary and the benchmark. The
    // rows read slightly differently at three: gains at 8 nodes 1.375x /
    // 1.365x (1.380x / 1.373x at ten), efficiencies C+B 0.864, Cluster
    // 0.802, Booster 0.753 (0.864, 0.799, 0.748 at ten).
    let launcher = Launcher::new(deep_er_prototype());
    let base = XpicConfig::paper_bench(3);
    let global = 8 * base.model.cells_per_node;

    let run =
        |mode, n: usize| run_mode(&launcher, mode, n, &base.clone().strong_scaled(global, n)).total;
    let modes = [Mode::ClusterOnly, Mode::BoosterOnly, Mode::ClusterBooster];
    let t1: Vec<_> = modes.iter().map(|&m| run(m, 1)).collect();
    let t8: Vec<_> = modes.iter().map(|&m| run(m, 8)).collect();

    // "the performance gain of the C+B mode increases with the number of
    // nodes" — 1.28× at 1 node, 1.38× at 8 (vs Cluster).
    let gain1 = t1[0] / t1[2];
    let gain8 = t8[0] / t8[2];
    assert!(
        gain8 > gain1,
        "gain grows with nodes: {gain1:.2} → {gain8:.2}"
    );
    within_budget("gain vs Cluster at 8 nodes", gain8, 1.38);
    // "1.34× faster than on the Booster alone"
    let gain8b = t8[1] / t8[2];
    within_budget("gain vs Booster at 8 nodes", gain8b, 1.34);

    // "The C+B mode also achieves a better parallel efficiency (85%) than
    // using the Cluster (79%) and Booster (77%) as stand-alone systems."
    let eff = |t1: hwmodel::SimTime, t8: hwmodel::SimTime| t1.as_secs() / (8.0 * t8.as_secs());
    let (ec, eb, ecb) = (eff(t1[0], t8[0]), eff(t1[1], t8[1]), eff(t1[2], t8[2]));
    assert!(
        ecb > ec && ec > eb,
        "efficiency ordering C+B > Cluster > Booster: {ecb:.2} {ec:.2} {eb:.2}"
    );
    within_budget("C+B efficiency at 8 nodes", ecb, 0.85);
    within_budget("Cluster efficiency at 8 nodes", ec, 0.79);
    within_budget("Booster efficiency at 8 nodes", eb, 0.77);
}

#[test]
fn cluster_booster_resources_allocate_independently() {
    // §II-A: "resources are reserved and allocated independently", enabling
    // any CN/BN combination and complementary co-scheduling.
    let launcher = Launcher::new(deep_er_prototype());
    let rm = launcher.resources();
    let a = rm.allocate(0, 8).unwrap(); // Booster-only
    let b = rm.allocate(16, 0).unwrap(); // Cluster-only, concurrently
    assert_eq!(rm.free_cluster(), 0);
    assert_eq!(rm.free_booster(), 0);
    rm.release(&a).unwrap();
    rm.release(&b).unwrap();
}
