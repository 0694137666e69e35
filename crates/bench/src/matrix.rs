//! The equivalence matrix: one xPic shape, `XpicConfig::paper_bench(3)` on
//! 2 nodes per solver, run in the paper's three placements ([`run_mode`]:
//! C+B overlapped and blocking, then Listing 1's combined loop on the
//! Cluster and on the Booster) and in each [`CkptMode`] under each
//! `Fault` class ([`run_resilient`], a Buddy checkpoint after every
//! step): sixteen rows, each at every one of `THREADS` with an
//! [`obs::Recorder`] attached. The checks are [`Matrix::errors`], plus the
//! leftovers each cell asserts: no rank awake, no drain in flight, at most
//! two checkpoints held. A fault class names the event its deaths follow,
//! and each faulted row takes the instant from its mode's clean row
//! ([`obs::Trace::after_checkpoint`]) and must resume as its class says.
//! Faulted rows' blocking is not compared: each reports the incarnation
//! that finished, and those took different numbers of checkpoints.
//! Overlap is not crossed with the checkpoint modes: the checkpointed
//! solver world steps the combined loop, which honours
//! [`XpicConfig::overlap`], and its rows run overlapped.
//!
//! `tests/full_stack.rs` pins [`Matrix::render`] across commits to
//! `tests/golden/matrix.golden` through [`crate::golden`]: the makespans,
//! waits, field and particle times, energies and block times are prices,
//! the counts, resume steps and `FINAL` line program.

use crate::golden::{first_byte_diff, first_line_diff};
use hwmodel::{NodeId, SimTime};
use obs::{Recorder, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scr::{FailureModel, ScrConfig, ScrManager};
use simnet::FaultPlan;
use sionio::ParallelFs;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use xpic::resilience::{run_resilient, RecoveryConfig};
use xpic::{run_mode, CkptMode, Mode, XpicConfig};

const STEPS: u32 = 3;
const NODES: usize = 2;

/// Host kernel thread counts every row runs at.
const THREADS: [usize; 3] = [1, 2, 4];

/// Minimum fractional cut of C+B `interface` + `halo` wait that overlap
/// must deliver against blocking.
const MIN_WAIT_REDUCTION: f64 = 0.30;

/// The checkpoint the after-stage and buddy+owner deaths follow: the
/// run's last, taken after step `LAST`.
const LAST: u32 = STEPS - 1;

/// How a resilient row's solver nodes die.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// None.
    Clean,
    /// The second solver node, after checkpoint `LAST` was staged: the
    /// async modes lose its drain.
    AfterStage,
    /// Both solver nodes at that instant, a buddy copy with its owner.
    BuddyOwner,
    /// A seeded exponential schedule, MTBF 0.05 s per node, over 0.2 s.
    Mtbf,
}

impl Fault {
    const ALL: [Fault; 4] = [
        Fault::Clean,
        Fault::AfterStage,
        Fault::BuddyOwner,
        Fault::Mtbf,
    ];

    fn label(self) -> &'static str {
        match self {
            Fault::Clean => "clean",
            Fault::AfterStage => "after-stage",
            Fault::BuddyOwner => "buddy+owner",
            Fault::Mtbf => "mtbf",
        }
    }

    /// The plan over the solver `nodes`; the after-stage and buddy+owner
    /// deaths fall at `staged`, the middle of the window after checkpoint
    /// `LAST` in the mode's clean row.
    fn plan(self, nodes: &[NodeId], seed: u64, staged: Option<SimTime>) -> Option<FaultPlan> {
        let staged = || staged.expect("its mode's clean row took checkpoint LAST");
        match self {
            Fault::Clean => None,
            Fault::AfterStage => Some(FaultPlan::from_node_faults([(staged(), nodes[1])])),
            Fault::BuddyOwner => Some(FaultPlan::from_node_faults(
                nodes.iter().map(|&n| (staged(), n)),
            )),
            Fault::Mtbf => {
                let mtbf = SimTime::from_secs(0.05);
                let mut rng = StdRng::seed_from_u64(seed);
                Some(FailureModel::new(mtbf).fault_plan(&mut rng, nodes, mtbf * 4.0))
            }
        }
    }

    /// The steps recoveries of this class resume from in `mode`: Sync
    /// promoted checkpoint `LAST` on the spot, the async modes only the one
    /// before it; the buddy+owner's second death finds no copy left.
    /// `None` for the classes without a defining outcome.
    fn resumes(self, mode: CkptMode) -> Option<Vec<u32>> {
        let from = if mode == CkptMode::Sync {
            LAST
        } else {
            LAST - 1
        };
        match self {
            Fault::AfterStage => Some(vec![from]),
            Fault::BuddyOwner => Some(vec![from, 0]),
            Fault::Clean | Fault::Mtbf => None,
        }
    }
}

/// How one row runs the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Row {
    /// One placement through [`run_mode`], overlapped (`true`) or
    /// blocking: the combined loop rows run overlapped, C+B both ways.
    Placement(Mode, bool),
    /// A supervised Booster solver world through [`run_resilient`] under
    /// one [`Fault`] class.
    Resilient(CkptMode, Fault),
}

impl Row {
    /// C+B, overlapped (`true`) or blocking.
    fn cb(overlap: bool) -> Row {
        Row::Placement(Mode::ClusterBooster, overlap)
    }

    /// The sixteen rows, in table order (each clean row before its mode's
    /// faulted ones).
    fn all() -> Vec<Row> {
        let modes = [CkptMode::Sync, CkptMode::Async, CkptMode::AsyncDelta];
        let combined = [Mode::ClusterOnly, Mode::BoosterOnly].map(|m| Row::Placement(m, true));
        let placements = [[Row::cb(true), Row::cb(false)], combined].concat();
        let faulted = Fault::ALL.map(|f| modes.map(|m| Row::Resilient(m, f)));
        [placements, faulted.concat()].concat()
    }

    /// The row's name in the table and in errors.
    fn label(self) -> String {
        match self {
            Row::Placement(Mode::ClusterBooster, true) => "C+B overlap".into(),
            Row::Placement(Mode::ClusterBooster, false) => "C+B blocking".into(),
            Row::Placement(mode, _) => mode.label().into(),
            Row::Resilient(mode, fault) => format!("{mode:?} {}", fault.label()),
        }
    }
}

/// What one row printed at one thread count, and what the gates read.
#[derive(Default)]
struct Cell {
    /// The row's values as the table prints them.
    line: String,
    final_line: String,
    /// Every step's energy bits (placement rows only).
    history: Vec<u64>,
    makespan: SimTime,
    /// C+B `interface` + `halo` wait.
    wait: SimTime,
    ckpt_block: SimTime,
    /// The step each recovery resumed from (resilient rows only).
    resumed: Vec<u32>,
    trace: Trace,
}

fn final_line(field_energy: f64, kinetic_energy: f64, steps: u32) -> String {
    let (fe, ke) = (field_energy.to_bits(), kinetic_energy.to_bits());
    format!("FINAL fe={fe:016x} ke={ke:016x} steps={steps}")
}

/// One row at `threads`; `staged` is where its mode's clean row shows the
/// window after checkpoint `LAST` ([`Fault::plan`]).
fn run_cell(row: Row, threads: usize, staged: Option<SimTime>) -> Cell {
    let launcher = crate::prototype_launcher();
    let rec = Recorder::new();
    launcher.universe().attach_obs(rec.clone());
    let mut cfg = XpicConfig::paper_bench(STEPS);
    cfg.threads = threads;
    let cell = match row {
        Row::Placement(mode, overlap) => {
            // The per-node model load deep into the Fig. 8 sweep, where
            // transfers are comparable to the per-step compute so overlap
            // dominates (EXPERIMENTS.md). Model scale only: same physics.
            cfg.overlap = overlap;
            cfg.model.cells_per_node = 2048;
            cfg.model.particles_per_cell = 64;
            cfg.model.cg_iters = 10;
            let r = run_mode(&launcher, mode, NODES, &cfg);
            let profile = rec.snapshot().profile();
            let wait_of = |m| profile.modules.get(m).map_or(SimTime::ZERO, |b| b.wait);
            let wait = wait_of("interface") + wait_of("halo");
            let makespan = profile.makespan;
            let (m, w) = (makespan.as_secs(), wait.as_secs());
            let (f, p) = (r.field_time.as_secs(), r.particle_time.as_secs());
            Cell {
                line: match mode {
                    Mode::ClusterBooster => format!("makespan_s={m:.9} wait_s={w:.9}"),
                    _ => format!("makespan_s={m:.9} field_s={f:.9} particle_s={p:.9}"),
                },
                final_line: final_line(r.field_energy, r.kinetic_energy, r.steps),
                history: r.energy_history.iter().map(|e| e.to_bits()).collect(),
                makespan,
                wait,
                ..Cell::default()
            }
        }
        Row::Resilient(ckpt_mode, fault) => {
            let nodes = &launcher.system().booster_nodes()[..NODES];
            let fabric = launcher.system().fabric();
            let specs = nodes
                .iter()
                .map(|&n| fabric.node(n).expect("prototype Booster node").clone());
            let pfs = ParallelFs::deep_er();
            let scr = ScrManager::new(ScrConfig::default(), nodes.to_vec(), specs.collect(), pfs);
            let recovery = RecoveryConfig {
                checkpoint_every: 1,
                max_recoveries: 32,
                ckpt_mode,
                ..RecoveryConfig::default()
            };
            let plan = fault.plan(nodes, cfg.seed, staged);
            let r = run_resilient(&launcher, NODES, &cfg, &scr, &recovery, plan);
            // The last promotion dominates every earlier checkpoint.
            let (drains, held) = (scr.drains_in_flight(), scr.record_count());
            assert!(
                drains == 0 && held <= 2,
                "{row:?} at threads {threads} left {drains} drains in flight, {held} checkpoints"
            );
            let (b, m) = (r.ckpt_block.as_secs(), r.makespan.as_secs());
            let (n, k, resumed) = (r.ckpts_taken, r.recoveries, &r.resume_steps);
            Cell {
                line: format!(
                    "block_s={b:.9} ckpts={n} recoveries={k} makespan_s={m:.9} resumed={resumed:?}"
                ),
                final_line: final_line(r.field_energy, r.kinetic_energy, r.steps),
                ckpt_block: r.ckpt_block,
                resumed: r.resume_steps,
                ..Cell::default()
            }
        }
    };
    let awake = launcher.universe().router().awake_ranks();
    assert_eq!(awake, 0, "{row:?} at threads {threads} left ranks awake");
    Cell {
        trace: rec.snapshot(),
        ..cell
    }
}

/// Every row with its cells, in `THREADS` order.
pub struct Matrix {
    rows: Vec<(Row, Vec<Cell>)>,
}

/// Run all 48 cells; a faulted row places its deaths by its mode's clean
/// row, which runs first.
pub fn run() -> Matrix {
    let mut matrix = Matrix { rows: Vec::new() };
    for row in Row::all() {
        let staged = match row {
            Row::Resilient(mode, fault) if fault != Fault::Clean => {
                let clean = matrix.cell(Row::Resilient(mode, Fault::Clean));
                clean.trace.after_checkpoint(LAST as usize)
            }
            _ => None,
        };
        let cells = THREADS.map(|t| run_cell(row, t, staged));
        matrix.rows.push((row, Vec::from(cells)));
    }
    matrix
}

impl Matrix {
    /// The threads-1 cell of `row`.
    fn cell(&self, row: Row) -> &Cell {
        let found = self.rows.iter().find(|(r, _)| *r == row);
        &found.expect("every row is in the matrix").1[0]
    }

    /// Fractional cut of C+B `interface` + `halo` wait, overlap against
    /// blocking.
    fn wait_cut(&self) -> f64 {
        let wait = |overlap| self.cell(Row::cb(overlap)).wait;
        1.0 - wait(true) / wait(false)
    }

    fn finals(&self) -> BTreeSet<&str> {
        let cells = self.rows.iter().flat_map(|(_, cells)| cells);
        cells.map(|c| c.final_line.as_str()).collect()
    }

    /// The table: a header, one line per row (its threads-1 cell), and the
    /// `FINAL` line.
    pub fn render(&self) -> String {
        let mut out = format!(
            "equivalence matrix: xPic paper_bench({STEPS}), {NODES} nodes per solver, \
             checkpoint every step, threads {THREADS:?}\n"
        );
        for (row, cells) in &self.rows {
            let _ = write!(out, "{:<22} {}", row.label(), cells[0].line);
            if *row == Row::cb(true) {
                let _ = write!(out, " wait_cut={:.1}%", 100.0 * self.wait_cut());
            }
            out.push('\n');
        }
        for final_line in self.finals() {
            let _ = writeln!(out, "{final_line}");
        }
        out
    }

    /// Every failed check, each naming what failed; empty when the matrix
    /// holds.
    pub fn errors(&self) -> Vec<String> {
        let mut errors = Vec::new();
        for (row, cells) in &self.rows {
            for (cell, t) in cells.iter().zip(THREADS).skip(1) {
                if let Some(at) = divergence(&cells[0], cell) {
                    let (row, t0) = (row.label(), THREADS[0]);
                    errors.push(format!("{row}: threads {t0} and {t} differ in the {at}"));
                }
            }
        }
        let finals = self.finals();
        if finals.len() > 1 {
            errors.push(format!("{} FINAL values: {finals:?}", finals.len()));
        }
        let [on, off] = [true, false].map(|overlap| self.cell(Row::cb(overlap)));
        let bit_exact = (&on.final_line, &on.history) == (&off.final_line, &off.history);
        let (cut, on_m, off_m) = (self.wait_cut(), on.makespan, off.makespan);
        if !(bit_exact && on_m < off_m && cut >= MIN_WAIT_REDUCTION) {
            errors.push(format!(
                "overlap gate: bit-exact {bit_exact}, makespan {on_m} against blocking's \
                 {off_m}, interface+halo wait cut {cut:.3} (at least {MIN_WAIT_REDUCTION})"
            ));
        }
        for (row, cells) in &self.rows {
            let (label, got) = (row.label(), &cells[0].resumed);
            match *row {
                Row::Placement(..) if cells[0].history != on.history => {
                    errors.push(format!("{label}: energy history differs from C+B's"));
                }
                Row::Resilient(mode, fault) => {
                    if let Some(want) = fault.resumes(mode).filter(|want| want != got) {
                        errors.push(format!(
                            "{label}: resumed from {got:?}, its class from {want:?}"
                        ));
                    }
                }
                Row::Placement(..) => {}
            }
        }
        let block = |mode| self.cell(Row::Resilient(mode, Fault::Clean)).ckpt_block;
        for mode in [CkptMode::Async, CkptMode::AsyncDelta] {
            if block(mode) >= block(CkptMode::Sync) {
                let (b, sync) = (block(mode), block(CkptMode::Sync));
                errors.push(format!("clean {mode:?} blocked {b}, Sync {sync}"));
            }
        }
        errors
    }
}

/// Where two cells of one row part: the first differing line of their
/// text reports; if those agree, the first differing byte of their Chrome
/// JSONs; if those agree too, their row lines.
fn divergence(a: &Cell, b: &Cell) -> Option<String> {
    let lines = |c: &Cell| format!("`{} {}`", c.line, c.final_line);
    first_line_diff(&a.trace.report(), &b.trace.report())
        .map(|at| format!("report at {at}"))
        .or_else(|| {
            let [a, b] = [a, b].map(|c| c.trace.chrome_json());
            first_byte_diff(&a, &b).map(|at| format!("Chrome JSON at {at}"))
        })
        .or_else(|| {
            (lines(a) != lines(b)).then(|| format!("row line: {} vs {}", lines(a), lines(b)))
        })
}
