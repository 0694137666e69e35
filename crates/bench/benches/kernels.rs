//! Criterion bench for the shared-memory PIC kernels at the paper's
//! Table II scale (4096 cells × 2048 particles/cell ≈ 8.4 M particles),
//! with a machine-readable `BENCH_kernels.json` emitter: serial vs.
//! threaded Boris push and moment deposit across thread counts 1/2/4/8,
//! plus the CG operator (`FieldSolver::apply`) on the same grid.
//!
//! Speedups are wall-clock only; the determinism contract (`xpic::par`)
//! keeps every result bit-identical across thread counts. `threads=1` must
//! cost what `serial` costs or the run fails and writes nothing (see
//! [`bench_kernel`]). Every other host-speed number of this repository —
//! message path, codec, figure runs, scheduler — comes from the repo
//! benchmark (`benchmark/README.md`), not from here.
//!
//! The JSON lands in the workspace root. On a single-core container the
//! thread-count speedups are ≈1× (see EXPERIMENTS.md); the
//! `available_parallelism` field records the machine so readers can tell.

use criterion::{black_box, Criterion, Measurement};
use std::fmt::Write as _;
use xpic::fields::FieldSolver;
use xpic::moments::{deposit, deposit_threads};
use xpic::mover::{boris_push, boris_push_threads};
use xpic::{Fields, Grid, Moments, Species, XpicConfig};

/// Table II: 4096 cells per node, 2048 particles per cell.
const NX: usize = 64;
const NY: usize = 64;
const PPC: usize = 2048;
const DT: f64 = 0.05;
const THREADS: [usize; 4] = [1, 2, 4, 8];
/// Operator applications per `kernels/field_apply` sample (one is ~µs).
const APPLY_REPS: usize = 1000;
/// How much slower than `serial` a `threads=1` sample may be.
const THREADS_1_OVERHEAD: f64 = 0.02;
/// Adjacent (`serial`, `threads=1`) sample pairs the gate takes per kernel.
const GATE_PAIRS: usize = 20;

/// One kernel's rows. `run(None)` is the serial kernel, `run(Some(t))` the
/// threaded one.
///
/// The gate: one thread runs the serial kernel (mover) or the chunk grid
/// through one reused partial buffer (deposit) — no spawn, no per-chunk
/// allocation, so no cost of its own. Single samples on this host scatter
/// by 3–14 % and its speed drifts by a quarter over seconds, so neither
/// means nor fastest samples taken apart resolve [`THREADS_1_OVERHEAD`].
/// The two are sampled in strict alternation inside one criterion benchmark
/// (the untimed warm-up call is a `threads=1` pass; then serial, threads=1,
/// serial, …) and each `threads=1` sample is compared with the serial one
/// taken just before it. The run fails when three quarters of the pairs are
/// over the allowance: a one-sided sign test on the paired ratio, which
/// noise alone trips in under 2.1 % of runs however loud the host.
fn bench_kernel(c: &mut Criterion, kernel: &str, mut run: impl FnMut(Option<usize>)) {
    let group = format!("kernels/{kernel}");
    let mut g = c.benchmark_group(&group);
    let mut pass = 0;
    g.sample_size(2 * GATE_PAIRS);
    g.bench_function("serial~threads=1", |b| {
        b.iter(|| {
            pass += 1;
            run((pass % 2 == 1).then_some(1));
        })
    });
    g.finish();
    let mixed = c.measurements.pop().expect("just measured").samples;
    let over = mixed
        .chunks(2)
        .filter(|p| p[1].as_secs_f64() > p[0].as_secs_f64() * (1.0 + THREADS_1_OVERHEAD))
        .count();
    assert!(
        4 * over < 3 * GATE_PAIRS,
        "{kernel}: threads=1 was over {THREADS_1_OVERHEAD} slower than serial in {over} of {GATE_PAIRS} pairs"
    );
    for (k, label) in ["serial", "threads=1"].into_iter().enumerate() {
        c.measurements.push(Measurement {
            id: format!("{group}/{label}"),
            samples: mixed.iter().skip(k).step_by(2).copied().collect(),
        });
    }

    let mut g = c.benchmark_group(&group);
    g.sample_size(3);
    for t in &THREADS[1..] {
        g.bench_function(format!("threads={t}"), |b| b.iter(|| run(Some(*t))));
    }
    g.finish();
}

fn bench_kernels(c: &mut Criterion) {
    let grid = Grid::slab(NX, NY, 0, 1);
    let fields = Fields::zeros(&grid);
    let mut species = Species::maxwellian_charged(&grid, PPC, 0.05, -1.0, -1.0, 0xC0FFEE);
    let mut moments = Moments::zeros(&grid);

    // Pushed forth and back: nothing migrates particles here, and one that
    // kept drifting in y would leave the slab's ghost rows after ~40 pushes.
    let mut dt = -DT;
    bench_kernel(c, "mover", |threads| {
        dt = -dt;
        match threads {
            None => boris_push(&grid, &fields, &mut species, dt),
            Some(t) => boris_push_threads(&grid, &fields, &mut species, dt, t),
        }
    });
    bench_kernel(c, "deposit", |threads| {
        moments.clear();
        match threads {
            None => deposit(&grid, &species, &mut moments),
            Some(t) => deposit_threads(&grid, &species, &mut moments, t),
        }
    });

    let solver = FieldSolver::new(
        grid,
        &XpicConfig {
            threads: 1,
            ..XpicConfig::test_small()
        },
    );
    let kappa = vec![0.3; grid.len()];
    let x: Vec<f64> = (0..grid.len()).map(|k| (k as f64 * 0.37).sin()).collect();
    let mut y = vec![0.0; grid.len()];
    let mut g = c.benchmark_group("kernels/field_apply");
    g.sample_size(5);
    g.bench_function(format!("x{APPLY_REPS}"), |b| {
        b.iter(|| {
            for _ in 0..APPLY_REPS {
                solver.apply(&kappa, black_box(&x), &mut y);
            }
        });
    });
    g.finish();
}

fn write_json(rows: &[Measurement]) {
    let mean_s = |id: String| -> f64 {
        let found = rows.iter().find(|m| m.id == id);
        let row = found.unwrap_or_else(|| panic!("{id} was measured"));
        row.mean().as_secs_f64()
    };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"scale\": {{\"cells\": {}, \"particles_per_cell\": {}, \"particles\": {}}},",
        NX * NY,
        PPC,
        NX * NY * PPC
    );
    let _ = writeln!(out, "  \"available_parallelism\": {cores},");

    out.push_str("  \"results\": [\n");
    for (i, m) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"id\": \"{}\", \"mean_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \"samples\": {}}}{comma}",
            m.id,
            m.mean().as_nanos(),
            m.min().as_nanos(),
            m.max().as_nanos(),
            m.samples.len()
        );
    }
    out.push_str("  ],\n");

    for (k, kernel) in ["mover", "deposit"].into_iter().enumerate() {
        let serial = mean_s(format!("kernels/{kernel}/serial"));
        let _ = writeln!(out, "  \"speedup_vs_serial_{kernel}\": {{");
        for (i, t) in THREADS.iter().enumerate() {
            let speedup = serial / mean_s(format!("kernels/{kernel}/threads={t}"));
            let comma = if i + 1 < THREADS.len() { "," } else { "" };
            let _ = writeln!(out, "    \"{t}\": {speedup:.3}{comma}");
        }
        out.push_str(if k == 0 { "  },\n" } else { "  }\n" });
    }
    out.push_str("}\n");

    // The workspace root is two levels above this crate's manifest —
    // resolved at compile time, so the artifact lands in a stable place
    // no matter where the bench is launched from.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
        .join("BENCH_kernels.json");
    std::fs::write(&path, out).expect("write BENCH_kernels.json");
    println!("wrote {}", path.display());
}

fn main() {
    let mut criterion = Criterion::default();
    bench_kernels(&mut criterion);
    write_json(&criterion.measurements);
}
