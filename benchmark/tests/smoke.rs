//! Smoke test of the whole benchmark at tiny shapes (`--quick`): every
//! workload in both passes, through the same binary and the same result
//! line the driver reads.

use cb_benchmark::json::{self, Value};
use cb_benchmark::metrics::{self, END_TO_END};
use cb_benchmark::suite::benchmark_json;
use cb_benchmark::workloads::WORKLOADS;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_cb-benchmark");

fn out_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// One `--quick` pass: the metric lines (name -> value, unit) and the
/// result object.
struct Pass {
    lines: BTreeMap<String, (f64, String)>,
    result: Value,
}

fn run(workload: &str, traced: bool, extra: &[&str]) -> Pass {
    let output = Command::new(BIN)
        .args(["--quick", "--workload", workload, "--seed", "7"])
        .args(["--seconds", "1", "--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(out_dir("smoke-out"))
        .args(extra)
        .output()
        .expect("start the benchmark binary");
    assert!(
        output.status.success(),
        "{workload} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    let mut all: Vec<&str> = stdout.lines().collect();
    let result = json::parse(all.pop().expect("a result line")).expect("the last line is JSON");
    let mut lines = BTreeMap::new();
    for line in all {
        let fields: Vec<&str> = line.split(' ').collect();
        let [w, name, value, unit] = fields[..] else {
            panic!("not a `workload metric value unit` line: {line}");
        };
        assert_eq!(w, workload);
        let value: f64 = value.parse().expect("a numeric value");
        let previous = lines.insert(name.to_string(), (value, unit.to_string()));
        assert!(previous.is_none(), "{workload} printed {name} twice");
    }
    Pass { lines, result }
}

fn names_of(doc: &Value, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Value::as_arr)
        .expect("an array")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// The result line holds exactly the contract's keys and exactly the
/// metrics of `table`, each with a finite value and its unit.
fn check_result_line(pass: &Pass, table: &[String], benchmark: &Value, table_key: &str) {
    let keys: Vec<&str> = pass
        .result
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let reported = pass
        .result
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics");
    let reported_names: Vec<&str> = reported.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        reported_names,
        table.iter().map(String::as_str).collect::<Vec<_>>()
    );
    let defs = benchmark
        .get(table_key)
        .and_then(Value::as_arr)
        .expect("the table");
    for ((name, metric), def) in reported.iter().zip(defs) {
        let members = metric.as_obj().expect("value and unit");
        assert_eq!(members.len(), 2, "{name} carries exactly value and unit");
        let value = metric
            .get("value")
            .and_then(Value::as_f64)
            .expect("a value");
        assert!(value.is_finite(), "{name} = {value}");
        assert_eq!(metric.get("unit"), def.get("unit"), "unit of {name}");
    }
}

#[test]
fn benchmark_json_at_the_repo_root_is_the_one_the_table_generates() {
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&committed).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    assert_eq!(
        json::parse(&text).expect("BENCHMARK.json parses"),
        benchmark_json(),
        "regenerate it: cargo run --release --manifest-path benchmark/Cargo.toml -- \
         --print-benchmark-json > BENCHMARK.json"
    );
    let printed = Command::new(BIN)
        .arg("--print-benchmark-json")
        .output()
        .expect("start the benchmark binary");
    assert_eq!(String::from_utf8(printed.stdout).unwrap(), text);
}

#[test]
fn every_workload_emits_every_metric_once_in_both_passes() {
    let benchmark = benchmark_json();
    let keys: Vec<&str> = benchmark
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let workloads = names_of(&benchmark, "workloads");
    let end_to_end = names_of(&benchmark, "end_to_end");
    let per_layer = names_of(&benchmark, "per_layer");
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!(
        (1..=128).contains(&per_layer.len()),
        "{} per-layer",
        per_layer.len()
    );
    let mut all_names = BTreeSet::new();
    for name in workloads.iter().chain(&end_to_end).chain(&per_layer) {
        assert!(valid_name(name), "bad name {name:?}");
        assert!(all_names.insert(name.clone()), "{name} is used twice");
    }
    assert!(end_to_end.iter().any(|n| n == "setup_s"));
    assert_eq!(
        workloads,
        WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
    );

    let mut measured_somewhere = BTreeSet::new();
    for w in &workloads {
        let plain = run(w, false, &[]);
        check_result_line(&plain, &end_to_end, &benchmark, "end_to_end");
        assert_eq!(plain.result.get("correct"), Some(&Value::Bool(true)), "{w}");
        assert_eq!(
            plain.result.get("failed").and_then(Value::as_f64),
            Some(0.0)
        );
        assert!(
            plain
                .result
                .get("attempted")
                .and_then(Value::as_f64)
                .unwrap()
                >= 1.0
        );
        for name in &end_to_end {
            let (value, _) = plain
                .lines
                .get(name)
                .unwrap_or_else(|| panic!("{w} lacks {name}"));
            assert!(
                *value > 0.0,
                "{w} {name} = {value}: end-to-end metrics are never 0"
            );
        }

        let traced = run(w, true, &[]);
        check_result_line(&traced, &per_layer, &benchmark, "per_layer");
        assert_eq!(
            traced.result.get("correct"),
            Some(&Value::Bool(true)),
            "{w}"
        );
        // Exactly the per-layer metrics the table assigns to this workload
        // are measured; the result line pads the others with 0.
        let expected: BTreeSet<&str> = metrics::per_layer()
            .iter()
            .filter(|d| d.workloads.contains(&w.as_str()))
            .map(|d| d.name)
            .collect();
        let measured: BTreeSet<&str> = traced.lines.keys().map(String::as_str).collect();
        assert_eq!(measured, expected, "per-layer metrics of {w}");
        for (name, (value, unit)) in &traced.lines {
            let def = metrics::lookup(name).expect("a table entry");
            assert_eq!(unit, def.unit);
            let in_line = traced.result.get("metrics").unwrap().get(name).unwrap();
            assert_eq!(in_line.get("value").and_then(Value::as_f64), Some(*value));
            // A count or a virtual-time result does not depend on the pass.
            if let (true, Some((plain_value, _))) = (def.exact, plain.lines.get(name)) {
                assert_eq!(plain_value.to_bits(), value.to_bits(), "{w} {name}");
            }
            measured_somewhere.insert(name.clone());
        }

        let trace_file = out_dir("smoke-out").join(format!("{w}.trace.json"));
        let trace = json::parse(&std::fs::read_to_string(&trace_file).expect("a trace file"))
            .expect("the trace file is JSON");
        let events = trace.get("traceEvents").and_then(Value::as_arr).unwrap();
        assert!(events.len() > 1, "{w} recorded no span");
        assert!(events
            .iter()
            .skip(1)
            .all(|e| e.get("ph").and_then(Value::as_str) == Some("X")));
    }
    let per_layer: BTreeSet<String> = per_layer.into_iter().collect();
    assert_eq!(
        measured_somewhere, per_layer,
        "a per-layer metric no workload measures"
    );
    assert_eq!(END_TO_END.len(), end_to_end.len());
}

#[test]
fn an_injected_corruption_is_counted_as_failed_operations() {
    for w in &WORKLOADS {
        let pass = run(w.name, false, &["--inject-corruption"]);
        let failed = pass.result.get("failed").and_then(Value::as_f64).unwrap();
        let attempted = pass
            .result
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap();
        assert!(
            failed >= 1.0 && failed <= attempted,
            "{}: {failed} of {attempted}",
            w.name
        );
        assert_eq!(
            pass.result.get("correct"),
            Some(&Value::Bool(false)),
            "{}",
            w.name
        );
    }
}

#[test]
fn a_debug_build_refuses_to_measure() {
    if !cfg!(debug_assertions) {
        return;
    }
    let output = Command::new(BIN)
        .args([
            "--workload",
            "sched_trace",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("start the benchmark binary");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty(), "no result may be printed");
}

#[test]
fn the_suite_writes_results_that_compare_equal_to_themselves() {
    let dir = out_dir("smoke-suite");
    let results = dir.join("results.json");
    let status = Command::new(BIN)
        .args(["--quick", "--seed", "11", "--seconds", "1"])
        .args(["--plain-runs", "2", "--out"])
        .arg(&dir)
        .arg("--results")
        .arg(&results)
        .status()
        .expect("start the suite");
    assert!(status.success());
    let doc = json::parse(&std::fs::read_to_string(&results).unwrap()).unwrap();
    let fingerprint = doc.get("fingerprint").expect("a fingerprint");
    for key in ["commit", "rustc", "nproc", "seed", "seconds", "quick"] {
        assert!(fingerprint.get(key).is_some(), "fingerprint lacks {key}");
    }
    assert_eq!(fingerprint.get("seed").and_then(Value::as_f64), Some(11.0));
    assert_eq!(
        doc.get("exact_mismatches")
            .and_then(Value::as_arr)
            .map(<[Value]>::len),
        Some(0)
    );
    assert_eq!(
        doc.get("workloads").and_then(Value::as_arr).unwrap().len(),
        WORKLOADS.len()
    );

    let same = Command::new(BIN)
        .arg("--compare")
        .args([&results, &results])
        .output()
        .expect("start the comparison");
    assert!(
        same.status.success(),
        "{}",
        String::from_utf8_lossy(&same.stdout)
    );

    // Move one exact metric in a copy: the comparison must fail.
    let text = std::fs::read_to_string(&results).unwrap();
    let needle = "\"psmpi.msgs_sent\": ";
    let at = text.find(needle).expect("a message count in the results") + needle.len();
    let moved = format!("{}9{}", &text[..at], &text[at..]);
    let moved_path = dir.join("moved.json");
    std::fs::write(&moved_path, moved).unwrap();
    let differs = Command::new(BIN)
        .arg("--compare")
        .args([&results, &moved_path])
        .output()
        .expect("start the comparison");
    assert_eq!(differs.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&differs.stdout).contains("FAIL exact metric moved"));
}
