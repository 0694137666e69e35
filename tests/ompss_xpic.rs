//! xPic's blocking C+B step (`overlap = false`, one node per solver) written
//! as an OmpSs task graph costs what `xpic::run_mode` charges for it: the
//! abstraction adds nothing to the `comm_spawn` mechanism it lowers onto.

use cluster_booster::presets::deep_er_prototype;
use cluster_booster::Launcher;
use hwmodel::WorkSpec;
use ompss::{DataStore, Device, TaskGraph};
use xpic::{run_mode, Mode, XpicConfig};

/// Append a task that writes `out` (if any) as a zero block of `len`
/// doubles; the timing, not the data, is under test.
fn kernel(
    g: &mut TaskGraph,
    device: Device,
    work: WorkSpec,
    ins: &[&str],
    out: Option<(&str, usize)>,
) {
    let outs: Vec<&str> = out.iter().map(|&(name, _)| name).collect();
    let out = out.map(|(name, len)| (name.to_string(), len));
    g.add_task(work.name.clone(), ins, &outs, device, work, move |s| {
        if let Some((name, len)) = &out {
            s.put(name.clone(), vec![0.0; *len]);
        }
    });
}

#[test]
fn blocking_cb_step_as_a_task_graph_costs_what_run_mode_charges() {
    let config = XpicConfig {
        overlap: false,
        ..XpicConfig::test_small()
    };
    let launcher = Launcher::new(deep_er_prototype());
    let xpic = run_mode(&launcher, Mode::ClusterBooster, 1, &config);
    let run_mode_step = xpic.total.as_secs() / f64::from(config.steps);

    // `aux_phase`'s per-step output record is a `Rank::advance`; as a task
    // it is a work descriptor with no flops and that fixed overhead.
    let output = || {
        WorkSpec::named("output")
            .overhead(config.output_overhead())
            .build()
    };
    let base_ppc = config.sim_particles_per_cell.max(1) as f64;
    let shares: Vec<f64> = config
        .species_specs()
        .iter()
        .map(|s| s.ppc as f64 / base_ppc)
        .collect();
    let (fields, moments) = (
        Some(("E,B", config.wire_fields() / 8)),
        Some(("rho,J", config.wire_moments() / 8)),
    );
    let (c, b) = (Device::Cluster, Device::Booster);
    let mut g = TaskGraph::new();
    for _ in 0..config.steps {
        // Cluster: calculateE + cpyToArr_F + aux, which writes E,B.
        let cg = config.model.cg_iters as f64;
        kernel(&mut g, c, config.work_cg_iter().scaled(cg), &[], None);
        kernel(&mut g, c, config.work_cpy(), &[], None);
        kernel(
            &mut g,
            c,
            config.work_aux(config.model.cells_per_node),
            &[],
            None,
        );
        kernel(&mut g, c, output(), &[], fields);
        // Booster: cpy + push + moments + cpy + aux, which reads E,B and
        // writes ρ,J.
        kernel(&mut g, b, config.work_cpy(), &["E,B"], None);
        for &share in &shares {
            kernel(&mut g, b, config.work_push().scaled(share), &[], None);
            kernel(&mut g, b, config.work_moments().scaled(share), &[], None);
        }
        kernel(&mut g, b, config.work_cpy(), &[], None);
        let particles = config.model.particles_per_node() / 100;
        kernel(&mut g, b, config.work_aux(particles), &[], None);
        kernel(&mut g, b, output(), &[], moments);
        // Cluster: calculateB + cpyFromArr_M, which reads ρ,J.
        kernel(&mut g, c, config.work_curl(), &["rho,J"], None);
        kernel(&mut g, c, config.work_cpy(), &[], None);
    }
    let report = ompss::run(&launcher, &mut g, &mut DataStore::new()).expect("launch");

    // A step ends with the Cluster's cpyFromArr_M, as `run_mode`'s Cluster
    // step ends with its calculateB + cpyFromArr_M.
    let step_ends: Vec<f64> = report
        .tasks
        .chunks(report.tasks.len() / config.steps as usize)
        .map(|step| step.last().expect("a step has tasks").end.as_secs())
        .collect();
    let graph_step = (step_ends[step_ends.len() - 1] - step_ends[0]) / (step_ends.len() - 1) as f64;

    // The one-rank halo exchanges, halo-adds, migrations and allreduces of
    // `run_mode` cost no virtual time, so no term is missing from the
    // graph. The two steps differ only in rounding (2.6e-18 s at the time
    // of writing), since the runs start their steady steps at different
    // clocks; 1 ps is far below any price either charges.
    assert!(
        (graph_step - run_mode_step).abs() < 1e-12,
        "task-graph step {graph_step} s, run_mode step {run_mode_step} s"
    );
}
