//! The whole benchmark in one command: every workload, plain then traced,
//! each pass in a fresh process so that peak memory is the workload's own;
//! the results file; and the comparison of two results files.

use crate::harness::Ctx;
use crate::json::{self, Value};
use crate::metrics::{self, END_TO_END};
use crate::stats;
use crate::workloads::WORKLOADS;
use crate::DEFAULT_SECONDS;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

fn num(n: f64) -> Value {
    Value::Num(n)
}

fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

fn obj(members: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// `BENCHMARK.json`, from the metric table and the workload list.
pub fn benchmark_json() -> Value {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    obj(vec![
        (
            "command",
            Value::Arr(command.iter().map(|s| text(s)).collect()),
        ),
        ("paths", Value::Arr(vec![text("benchmark")])),
        ("run_seconds", num(f64::from(DEFAULT_SECONDS))),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|d| {
                        obj(vec![
                            ("name", text(d.name)),
                            ("unit", text(d.unit)),
                            ("better", text(d.better.as_str())),
                            (
                                "bound",
                                num(d.bound.expect("end-to-end metrics carry a bound")),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                metrics::per_layer()
                    .iter()
                    .map(|d| {
                        obj(vec![
                            ("name", text(d.name)),
                            ("unit", text(d.unit)),
                            ("better", text(d.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// First line of a command's standard output, or "unknown".
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// What the numbers were measured on and from.
fn fingerprint(ctx: &Ctx) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj(vec![
        (
            "commit",
            text(&first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", text(&first_line_of("rustc", &["--version"]))),
        ("nproc", num(nproc as f64)),
        ("seed", num(ctx.seed as f64)),
        ("seconds", num(ctx.seconds)),
        ("quick", Value::Bool(ctx.quick)),
    ])
}

/// One pass of one workload in a child process: its metric lines echoed
/// and collected, and its result object.
fn run_pass(ctx: &Ctx, workload: &str, traced: bool) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &ctx.seed.to_string()])
        .args(["--seconds", &ctx.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&ctx.out_dir);
    if ctx.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let stdout =
        String::from_utf8(output.stdout).map_err(|_| format!("{workload}: output is not UTF-8"))?;
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = json::parse(
        lines
            .pop()
            .ok_or_else(|| format!("{workload} printed nothing"))?,
    )?;
    let mut measured = Vec::new();
    for line in lines {
        println!("{line}");
        let fields: Vec<&str> = line.split(' ').collect();
        if let [w, metric, value, _unit] = fields[..] {
            if w == workload {
                let value: f64 = value
                    .parse()
                    .map_err(|_| format!("bad metric line: {line}"))?;
                measured.push((metric.to_string(), num(value)));
            }
        }
    }
    Ok((measured, result))
}

type Pass = (Vec<(String, Value)>, Value);

/// Several plain passes of one workload as one: the median of every
/// metric, the operations summed, correct only if every pass was. On a
/// host whose speed drifts, one 15 s pass is too few to compare two sets
/// by.
fn merge_passes(passes: &[Pass]) -> Pass {
    let (first, _) = &passes[0];
    let measured = first
        .iter()
        .map(|(name, _)| {
            let values: Vec<f64> = passes
                .iter()
                .filter_map(|(m, _)| m.iter().find(|(n, _)| n == name))
                .filter_map(|(_, v)| v.as_f64())
                .collect();
            (name.clone(), num(stats::median(&values)))
        })
        .collect();
    let total = |key: &str| -> f64 {
        passes
            .iter()
            .filter_map(|(_, r)| r.get(key).and_then(Value::as_f64))
            .sum()
    };
    let correct = passes
        .iter()
        .all(|(_, r)| r.get("correct") == Some(&Value::Bool(true)));
    let result = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", num(total("attempted"))),
        ("failed", num(total("failed"))),
    ]);
    (measured, result)
}

/// Run every workload, `plain_runs` plain passes then one traced pass, and
/// write the results file.
pub fn run(ctx: &Ctx, results: Option<&Path>, plain_runs: usize) -> ExitCode {
    let mut workloads = Vec::new();
    let mut mismatches = Vec::new();
    let mut all_correct = true;
    for w in &WORKLOADS {
        let passes: Result<Vec<Pass>, String> = (0..plain_runs)
            .map(|_| run_pass(ctx, w.name, false))
            .collect();
        let (plain, traced) = match (passes, run_pass(ctx, w.name, true)) {
            (Ok(passes), Ok(traced)) => (merge_passes(&passes), traced),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("cb-benchmark: {e}");
                return ExitCode::FAILURE;
            }
        };
        // A virtual-time result or a count may not depend on which pass
        // measured it.
        for (name, value) in &plain.0 {
            let exact = metrics::lookup(name).is_some_and(|d| d.exact);
            let other = traced.0.iter().find(|(n, _)| n == name).map(|(_, v)| v);
            if exact && other.is_some_and(|o| o != value) {
                mismatches.push(text(&format!("{} {name}", w.name)));
            }
        }
        let mut entry = vec![("name", text(w.name))];
        for (pass, (measured, result)) in [("plain", plain), ("traced", traced)] {
            let correct = result.get("correct") == Some(&Value::Bool(true));
            all_correct &= correct;
            entry.push((
                pass,
                obj(vec![
                    ("correct", Value::Bool(correct)),
                    (
                        "attempted",
                        result.get("attempted").cloned().unwrap_or(Value::Null),
                    ),
                    (
                        "failed",
                        result.get("failed").cloned().unwrap_or(Value::Null),
                    ),
                    ("metrics", Value::Obj(measured)),
                ]),
            ));
        }
        workloads.push(obj(entry));
    }
    for m in &mismatches {
        eprintln!(
            "cb-benchmark: exact metric differs between the plain and the traced pass: {}",
            m.as_str().unwrap_or_default()
        );
    }
    let ok = all_correct && mismatches.is_empty();
    let doc = obj(vec![
        ("fingerprint", fingerprint(ctx)),
        ("exact_mismatches", Value::Arr(mismatches)),
        ("workloads", Value::Arr(workloads)),
    ]);
    let path = results.map_or_else(|| ctx.out_dir.join("results.json"), Path::to_path_buf);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, doc.pretty()));
    if let Err(e) = written {
        eprintln!("cb-benchmark: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    eprintln!("cb-benchmark: wrote {}", path.display());
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("cb-benchmark: some operation failed its check or an exact metric moved");
        ExitCode::FAILURE
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compare two results files of the same code, metric by metric. Fails
/// when an end-to-end metric differs by more than its bound, when an exact
/// metric differs at all, or when either file records a failed check.
pub fn compare(a_path: &Path, b_path: &Path) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("cb-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let mut problems = 0usize;
    for (label, doc) in [("A", &a), ("B", &b)] {
        let mismatches = doc.get("exact_mismatches").and_then(Value::as_arr);
        if mismatches.is_none_or(|m| !m.is_empty()) {
            println!("FAIL set {label}: exact metrics moved between its plain and traced passes");
            problems += 1;
        }
    }
    let workloads = |doc: &Value| -> Vec<Value> {
        doc.get("workloads")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
            .to_vec()
    };
    let (workloads_a, workloads_b) = (workloads(&a), workloads(&b));
    println!(
        "{:<18} {:<7} {:<36} {:>16} {:>16} {:>9}",
        "workload", "pass", "metric", "A", "B", "diff"
    );
    for wa in &workloads_a {
        let name = wa
            .get("name")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string();
        let Some(wb) = workloads_b
            .iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(&name))
        else {
            println!("FAIL {name}: missing from set B");
            problems += 1;
            continue;
        };
        for pass in ["plain", "traced"] {
            let (pa, pb) = (wa.get(pass), wb.get(pass));
            for (label, p) in [("A", pa), ("B", pb)] {
                if p.and_then(|p| p.get("correct")) != Some(&Value::Bool(true)) {
                    println!("FAIL {name} {pass}: set {label} records a failed check");
                    problems += 1;
                }
            }
            let members = |p: Option<&Value>| -> Vec<(String, Value)> {
                p.and_then(|p| p.get("metrics"))
                    .and_then(Value::as_obj)
                    .unwrap_or(&[])
                    .to_vec()
            };
            let in_b = members(pb);
            for (metric, va) in members(pa) {
                let va = va.as_f64().unwrap_or(f64::NAN);
                let Some(vb) = in_b
                    .iter()
                    .find(|(n, _)| *n == metric)
                    .and_then(|(_, v)| v.as_f64())
                else {
                    println!("FAIL {name} {pass} {metric}: missing from set B");
                    problems += 1;
                    continue;
                };
                let diff = if va == vb { 0.0 } else { (vb - va) / va.abs() };
                let def = metrics::lookup(&metric);
                let verdict = match def {
                    Some(d) if d.exact && va.to_bits() != vb.to_bits() => "FAIL exact metric moved",
                    Some(d) if !d.exact && d.bound.is_some_and(|bound| diff.abs() > bound) => {
                        "FAIL beyond its bound"
                    }
                    Some(d) if d.exact => "exact",
                    Some(d) if d.bound.is_some() => "within bound",
                    _ => "",
                };
                if verdict.starts_with("FAIL") {
                    problems += 1;
                }
                println!(
                    "{name:<18} {pass:<7} {metric:<36} {va:>16.6e} {vb:>16.6e} {:>8.2}% {verdict}",
                    diff * 100.0
                );
            }
        }
    }
    if problems == 0 {
        println!("sets A and B agree: every end-to-end metric within its bound, every exact metric identical");
        ExitCode::SUCCESS
    } else {
        println!("{problems} disagreement(s) between sets A and B");
        ExitCode::FAILURE
    }
}
