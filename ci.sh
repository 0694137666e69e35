#!/usr/bin/env bash
# Local CI gate: build, test, lint. Fully offline — every external crate is
# vendored under vendor/, so no registry access is needed (or attempted).
#
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "== format check =="
cargo fmt --all -- --check

echo "== build (release) =="
cargo build --release

echo "== tests (workspace) =="
cargo test -q --workspace

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== deepcheck (determinism contract + lock discipline + MPI protocol) =="
# Fails on any finding (D001-D008, M001-M002) not covered by allowlist.toml
# or ranked in lockorder.toml; writes DEEPCHECK_REPORT.json with every
# finding, verdict, scan stats, and the allowlist hash.
cargo run -q --release -p deepcheck -- --root . --report DEEPCHECK_REPORT.json --stats

echo "== lock witness (runtime lock-order graph stays acyclic) =="
# The dynamic half of D006: psmpi's instrumented lock sites record every
# cross-lock acquisition edge actually exercised; the stress and fault
# tests assert the union is cycle-free (catches cross-function orders the
# static pass cannot see).
cargo test -q -p psmpi --features lockcheck

echo "== repo benchmark (benchmark/ builds and smokes against the workspace API) =="
# benchmark/ is its own [workspace] with path deps on crates/*, so the
# workspace stages above never compile it: an API change in psmpi or xpic
# could break the repo benchmark (BENCHMARK.json) unnoticed. Build it as
# the benchmark driver does, then run its tests — the --quick smoke of all
# five workloads plus the BENCHMARK.json/metric-table consistency check.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== host smoke (ring, scheduler and xPic rates, typed/bytes ratio and allreduce time within 1.5x of the recorded runs, pool misses counted, checkpointed-step rate above its floor) =="
# The one host-speed gate, read from the benchmark binary built above: its
# `workload metric value unit` lines, its last line for the failed count.
# Floor: the lowest ring_latency median of PRs 13-15 (5.15e5 msg/s) / 1.5.
# Ceiling: the highest typed/bytes ratio recorded up to PR 15 (2.13) x 1.5.
# Floor: the lowest xpic_ckpt ops_per_s of twenty 5 s runs at PR 17 (45.8
# steps/s) / 1.5. Ten quiet runs read 179-195 and ten taken right after
# this script's own build and test stages 46-159 (the parent binary read
# 41-101 beside those): the host throttles after sustained load, so this
# floor catches a collapse of the checkpointed step, not a 2x regression.
# Ceiling: the highest psmpi.allreduce_ms of ten 5 s traced runs at PR 19
# (1.17-1.53 ms; the parent read 1.5-1.8) x 1.5: a reduction that decodes
# its partner's block into a scratch buffer again fails it on a quiet host.
# Ceiling: psmpi.pool_misses 200 per repetition, a count, not a time: 96
# root buffers of the segmented bcasts plus start-up read 125-163 in those
# runs, and a pool that leaks the non-roots' reassembly buffers reads 388.
# Floor: the lowest sched_trace ops_per_s of ten 5 s runs at PR 23 (417,
# 436, 433, 435, 365, 371, 353, 427, 427, 439 k jobs/s; PR 20 read
# 154-238 k, its parent 52-57 k) / 1.5: an engine that deals expansions
# node by node at every event or works out a candidate's worst case in the
# backfill scan again reads under it on a quiet host.
# Floor: the lowest xpic_fig7 ops_per_s of ten 5 s runs at PR 23 (9.10,
# 8.96, 8.76, 8.83, 9.33, 7.39, 8.83, 8.46, 7.62, 8.63 M particle pushes/s)
# / 1.5; no PR has claimed this workload, the gate keeps it where it is.
# A 2x regression of either of the first two fails; benchmark/README.md
# says how to read the rest.
BM="${CARGO_TARGET_DIR:-benchmark/target}/release/cb-benchmark"
HS_TMP=$(mktemp -d)
"$BM" --workload ring_latency --seed 20180521 --seconds 5 --trace 0 > "$HS_TMP/ring.txt"
"$BM" --workload bulk_collectives --seed 20180521 --seconds 5 --trace 1 > "$HS_TMP/bulk.txt"
"$BM" --workload xpic_fig7 --seed 20180521 --seconds 5 --trace 0 > "$HS_TMP/fig7.txt"
"$BM" --workload xpic_ckpt --seed 20180521 --seconds 5 --trace 0 > "$HS_TMP/ckpt.txt"
"$BM" --workload sched_trace --seed 20180521 --seconds 5 --trace 0 > "$HS_TMP/sched.txt"
tail -n 1 "$HS_TMP/ring.txt" | grep -q '"failed": 0,'
tail -n 1 "$HS_TMP/bulk.txt" | grep -q '"failed": 0,'
tail -n 1 "$HS_TMP/fig7.txt" | grep -q '"failed": 0,'
tail -n 1 "$HS_TMP/ckpt.txt" | grep -q '"failed": 0,'
tail -n 1 "$HS_TMP/sched.txt" | grep -q '"failed": 0,'
awk '$2 == "ops_per_s" { v = $3 }
     END { if (v + 0 < 3.4e5) { print "host smoke: ring_latency ops_per_s " v " is under 3.4e5"; exit 1 } }' \
    "$HS_TMP/ring.txt"
awk '$2 == "psmpi.typed_bytes_ratio" { v = $3 }
     END { if (v == "" || v + 0 > 3.2) { print "host smoke: typed_bytes_ratio " v " is over 3.2"; exit 1 } }' \
    "$HS_TMP/bulk.txt"
awk '$2 == "psmpi.allreduce_ms" { v = $3 }
     END { if (v == "" || v + 0 > 2.3) { print "host smoke: allreduce_ms " v " is over 2.3"; exit 1 } }' \
    "$HS_TMP/bulk.txt"
awk '$2 == "psmpi.pool_misses" { v = $3 }
     END { if (v == "" || v + 0 > 200) { print "host smoke: pool_misses " v " is over 200"; exit 1 } }' \
    "$HS_TMP/bulk.txt"
awk '$2 == "ops_per_s" { v = $3 }
     END { if (v + 0 < 30) { print "host smoke: xpic_ckpt ops_per_s " v " is under 30"; exit 1 } }' \
    "$HS_TMP/ckpt.txt"
awk '$2 == "ops_per_s" { v = $3 }
     END { if (v + 0 < 2.35e5) { print "host smoke: sched_trace ops_per_s " v " is under 2.35e5"; exit 1 } }' \
    "$HS_TMP/sched.txt"
awk '$2 == "ops_per_s" { v = $3 }
     END { if (v + 0 < 4.9e6) { print "host smoke: xpic_fig7 ops_per_s " v " is under 4.9e6"; exit 1 } }' \
    "$HS_TMP/fig7.txt"
rm -rf "$HS_TMP"

echo "== bench compile check =="
cargo bench --workspace --no-run

echo "== sched smoke (1200-job trace through the workload engine) =="
# The bursty production trace through the scheduler service, independent
# vs node-locked reservation: must schedule every job with backfill,
# malleability, and at least one fault-driven requeue, and beat the
# node-locked makespan (sched.rs). The --out file is pure virtual time and
# must come out byte-identical across host thread counts — and across
# commits: sched_smoke.metrics holds the metrics written at commit 3e02c27,
# when `core` still had a scheduler loop of its own. The --trace-out file
# (one track per job, sched::chrome_trace) is compared across thread
# counts only.
SCHED_TMP=$(mktemp -d)
cargo run -q --release -p cb-bench --bin sched -- \
    --smoke --threads 1 --out "$SCHED_TMP/t1.json" --trace-out "$SCHED_TMP/t1.trace.json" > /dev/null
cargo run -q --release -p cb-bench --bin sched -- \
    --smoke --threads 2 --out "$SCHED_TMP/t2.json" --trace-out "$SCHED_TMP/t2.trace.json" > /dev/null
cmp "$SCHED_TMP/t1.json" crates/bench/src/sched_smoke.metrics
cmp "$SCHED_TMP/t2.json" crates/bench/src/sched_smoke.metrics
cmp "$SCHED_TMP/t1.trace.json" "$SCHED_TMP/t2.trace.json"
rm -rf "$SCHED_TMP"

echo "== obs determinism (virtual-time traces are thread-invariant) =="
# The same workload, instrumented, at two thread counts: both the Chrome
# trace and the text report must come out byte-for-byte identical.
OBS_TMP=$(mktemp -d)
cargo run -q --release -p cb-bench --bin fig8 -- \
    --obs "$OBS_TMP/a.json" --steps 3 --nodes 2 --threads 1 > /dev/null
cargo run -q --release -p cb-bench --bin fig8 -- \
    --obs "$OBS_TMP/b.json" --steps 3 --nodes 2 --threads 2 > /dev/null
cmp "$OBS_TMP/a.json" "$OBS_TMP/b.json"
cmp "$OBS_TMP/a.json.report.txt" "$OBS_TMP/b.json.report.txt"
rm -rf "$OBS_TMP"

echo "== overlap gate (nonblocking transfers: bit-exact and faster) =="
# The C+B job overlapped vs. blocking at the strong-scaling smoke shape
# (overlap_run.rs): FINAL bits must match, the makespan must shrink, and
# interface+halo wait_s must drop by the stored minimum. The whole report
# must also come out byte-identical across host thread counts.
OV_TMP=$(mktemp -d)
cargo run -q --release -p cb-bench --bin fig8 -- \
    --overlap --steps 3 --nodes 2 --threads 1 > "$OV_TMP/t1.txt"
cargo run -q --release -p cb-bench --bin fig8 -- \
    --overlap --steps 3 --nodes 2 --threads 2 > "$OV_TMP/t2.txt"
grep -q '^OVERLAP_GATE ok=1' "$OV_TMP/t1.txt"
cmp "$OV_TMP/t1.txt" "$OV_TMP/t2.txt"
rm -rf "$OV_TMP"

echo "== fault injection (recovery is bit-exact and thread-invariant) =="
# Kill a Booster node mid-run: the job must restart from the newest SCR
# checkpoint and print a FINAL energy line bit-identical to a clean run's,
# at 1 and 2 kernel threads.
FI_TMP=$(mktemp -d)
cargo run -q --release -p cb-bench --bin fig8 -- \
    --steps 3 --nodes 2 --threads 1 --ckpt-every 1 > "$FI_TMP/clean.txt"
cargo run -q --release -p cb-bench --bin fig8 -- \
    --steps 3 --nodes 2 --threads 1 --ckpt-every 1 --fault-at 0.052 > "$FI_TMP/f1.txt"
cargo run -q --release -p cb-bench --bin fig8 -- \
    --steps 3 --nodes 2 --threads 2 --ckpt-every 1 --fault-at 0.052 > "$FI_TMP/f2.txt"
grep -q '^RECOVERIES n=0' "$FI_TMP/clean.txt"
grep -q '^RECOVERIES n=[1-9]' "$FI_TMP/f1.txt"
# 0.052 s lands past the step-2 checkpoint: the restart must come from a
# real surviving checkpoint, not a from-scratch replay.
grep -q 'resumed from step [1-9]' "$FI_TMP/f1.txt"
grep '^FINAL' "$FI_TMP/clean.txt" > "$FI_TMP/clean.final"
grep '^FINAL' "$FI_TMP/f1.txt" > "$FI_TMP/f1.final"
grep '^FINAL' "$FI_TMP/f2.txt" > "$FI_TMP/f2.final"
# ... and to the bits recorded at commit d0a74c4, before the wrap-free
# kernels: a pin across commits, where the two below compare one build.
cmp "$FI_TMP/clean.final" crates/bench/src/resilience_run.final
cmp "$FI_TMP/clean.final" "$FI_TMP/f1.final"
cmp "$FI_TMP/f1.final" "$FI_TMP/f2.final"
rm -rf "$FI_TMP"

echo "== async checkpoint gate (drain overlaps, bits invariant) =="
# The sync/async/async+delta comparison at equal protection, clean and
# under an MTBF-sampled fault schedule: async blocking must sit strictly
# below sync (ASYNC_CKPT_GATE), every mode's FINAL physics line must be
# bit-identical within a run, and the whole faulted report must come out
# byte-identical across host thread counts.
AC_TMP=$(mktemp -d)
cargo run -q --release -p cb-bench --bin fig8 -- \
    --async-ckpt --smoke --threads 1 > "$AC_TMP/clean.txt"
cargo run -q --release -p cb-bench --bin fig8 -- \
    --async-ckpt --mtbf 0.5 --smoke --threads 1 > "$AC_TMP/f1.txt"
cargo run -q --release -p cb-bench --bin fig8 -- \
    --async-ckpt --mtbf 0.5 --smoke --threads 2 > "$AC_TMP/f2.txt"
grep -q '^ASYNC_CKPT_GATE ok=1' "$AC_TMP/clean.txt"
grep -q '^ASYNC_CKPT_GATE ok=1' "$AC_TMP/f1.txt"
# Both reports are pure virtual-time text, so they are also pinned across
# commits: the files below were written at commit e2a7c79, before the three
# modes shared one stage/promote path (every other check in this stage
# compares a build with itself). tests/full_stack.rs pins the small shape
# to the bit, where these print nine decimals.
cmp "$AC_TMP/clean.txt" crates/bench/src/async_ckpt_clean.report
cmp "$AC_TMP/f1.txt" crates/bench/src/async_ckpt_mtbf.report
# All three modes agree on the physics bits, clean and faulted alike:
# one unique FINAL line per report, the same one in both.
test "$(grep '^FINAL' "$AC_TMP/clean.txt" | sort -u | wc -l)" -eq 1
test "$(grep '^FINAL' "$AC_TMP/f1.txt" | sort -u | wc -l)" -eq 1
grep '^FINAL' "$AC_TMP/clean.txt" | sort -u > "$AC_TMP/clean.final"
grep '^FINAL' "$AC_TMP/f1.txt" | sort -u > "$AC_TMP/f1.final"
cmp "$AC_TMP/clean.final" "$AC_TMP/f1.final"
cmp "$AC_TMP/f1.txt" "$AC_TMP/f2.txt"
rm -rf "$AC_TMP"

echo "CI green."
