#!/usr/bin/env bash
# Local CI gate: build, test, lint. Fully offline — every external crate is
# vendored under vendor/, so no registry access is needed (or attempted).
#
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "== format check =="
cargo fmt --all -- --check

echo "== declared dependencies are used =="
# A [dependencies] or [dev-dependencies] entry that no .rs file under the
# crate's src/ tests/ examples/ benches/ names (a `-` in the crate name
# read as `_`) is a dead edge: it builds, links and pins a crate that
# nothing calls. Covers every workspace member, the vendored ones too.
unused_deps=0
for manifest in Cargo.toml crates/*/Cargo.toml vendor/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    src_dirs=()
    for d in src tests examples benches; do
        [ -d "$dir/$d" ] && src_dirs+=("$dir/$d")
    done
    for dep in $(awk '
        /^\[(dev-)?dependencies\]$/ { in_deps = 1; next }
        /^\[(dev-)?dependencies\.[A-Za-z0-9_-]+\]$/ {
            name = $0; sub(/^\[(dev-)?dependencies\./, "", name); sub(/\]$/, "", name)
            print name; in_deps = 0; next
        }
        /^\[/ { in_deps = 0; next }
        in_deps && /^[A-Za-z0-9_-]+ *=/ { name = $0; sub(/ *=.*/, "", name); print name }
    ' "$manifest"); do
        if ! grep -rqw --include='*.rs' "${dep//-/_}" "${src_dirs[@]}"; then
            echo "$manifest: declares \`$dep\`, which no .rs file of the crate names"
            unused_deps=1
        fi
    done
done
[ "$unused_deps" -eq 0 ]

echo "== public functions, fields, constants and variants have a use outside tests =="
# Every public item of crates/*/src must be used by some tracked .rs file
# outside a tests/ directory (benchmark/src and examples/ count), read
# with each file's #[cfg(test)] and #[cfg(all(test, ..))] items and its
# comment lines removed and its `fn` and `use` lines skipped:
# - a `pub fn` is called: `name(`, `name::<..>(`, or a `::name` path that
#   passes the function by value;
# - a `pub` field is read: `.name` followed by neither an identifier
#   character nor `(`;
# - a `pub const` is named on a line other than its own definition;
# - a variant of a `pub enum` is constructed: `Enum::V` or `Self::V`,
#   except left of a `=>` on its line, inside `matches!(`, or after
#   `if let`/`while let` (those are patterns, which build nothing).
# An item that only tests use is API that its own tests hold up: delete
# it, make it private, or move it into the test module that uses it. The
# keep-list below names the exceptions by file and name, each with its
# reason; the keep-list paragraph of DESIGN.md §7 gives them in full.
# The match is by name, not by type: a use of any item of the same name
# counts, so an unused item whose name something else carries passes
# unseen (`PendingDrain::drain` passed on the benchmark's unrelated
# `trace::drain()`, `RankOutcome.comm_time` on `Rank`'s private
# `comm_time` field). A census pass finds those by type with a one-off
# probe in a scratch copy of the repo, never in this tree: mark every
# `pub fn`, `pub const` and `pub` field of crates/*/src with
# `#[deprecated = "<id>"]`, one id each, then run
#   cargo check --offline --workspace --lib --bins --examples
#   cargo check --offline --manifest-path benchmark/Cargo.toml --lib --bins --tests
# (about 4 s each). An id that no warning names has no use outside tests:
# delete it, make it private or move it into its tests, unless this
# keep-list names it or it is an `is_empty` that clippy's
# `len_without_is_empty` asks for beside a used `len`. The probe counts a
# struct literal as a use, so it cannot judge a field read: fields stay
# with this stage.
surface_keep=$(cat <<'KEEP'
crates/psmpi/src/universe.rs:outcomes        JobReport's per-rank records, which the full-stack pins read
crates/sched/src/engine.rs:starts_of         which job started when, the backfill tests' oracle
crates/core/src/launch.rs:resources          the launcher's resource manager, through which paper_claims checks §II-A
crates/bench/src/golden.rs:assert_pinned     the one golden check every tier-1 pin calls
crates/psmpi/src/pool.rs:pooled              buffers home after a run, the pool tests' leak probe
crates/psmpi/src/universe.rs:with_buffer_pool a universe drawing from a pool of its own, which the tests that count pool draws read
crates/sionio/src/pfs.rs:list                the PFS namespace, which the one-shared-file tests read
crates/xpic/src/grid.rs:idx                  the plain cell index the row and stencil kernels are checked against
crates/psmpi/src/envelope.rs:source          a receive's sender, which the posted-order and wildcard tests read
crates/psmpi/src/envelope.rs:arrival         a receive's delivery clock, which tier-1's spawned-worlds test reads
KEEP
)
strip_tests() {
    awk '
        /^[ \t]*#\[cfg\((test|all\(([^()]*[ ,])?test[ ,)].*)\)\]/ { skip = 1; depth = 0; opened = 0; next }
        skip {
            line = $0
            gsub(/'"'"'.'"'"'/, "", line)
            o = gsub(/\{/, "{", line)
            c = gsub(/\}/, "}", line)
            depth += o - c
            if (o > 0) opened = 1
            if ((opened && depth <= 0) || (!opened && line ~ /;[ \t]*$/)) skip = 0
            next
        }
        /^[ \t]*\/\// { next }
        { print }
    ' "$@"
}
# `kind name [enum]` per public item of a stripped source file: fn, field,
# const, and variant with the name of its enum.
public_items() {
    awk '
        function word(s, prefix) { sub(prefix, "", s); sub(/[^A-Za-z0-9_].*/, "", s); return s }
        in_enum {
            if (depth == 1 && $0 ~ /^[ \t]*[A-Z][A-Za-z0-9_]*[ \t]*([,({=]|$)/)
                print "variant", word($0, "^[ \t]*"), enum
        }
        !in_enum && /^[ \t]*pub enum [A-Za-z0-9_]+/ {
            enum = word($0, "^[ \t]*pub enum "); in_enum = 1; depth = 0; opened = 0
        }
        in_enum {
            line = $0
            gsub(/"[^"]*"/, "", line)
            o = gsub(/[{(]/, "", line)
            c = gsub(/[})]/, "", line)
            depth += o - c
            if (o > 0) opened = 1
            if (opened && depth <= 0) in_enum = 0
            next
        }
        /^[ \t]*pub ((const|unsafe|async) )*fn [a-z0-9_]+/ {
            print "fn", word($0, "^[ \t]*pub ((const|unsafe|async) )*fn "); next
        }
        /^[ \t]*pub const [A-Z][A-Z0-9_]*[ \t]*:/ { print "const", word($0, "^[ \t]*pub const "); next }
        /^[ \t]+pub [a-z_][a-z0-9_]*[ \t]*:/ { print "field", word($0, "^[ \t]+pub ") }
    ' | sort -u
}
callers=$(mktemp)
constructs=$(mktemp)
git ls-files -z '*.rs' | grep -zv '\(^\|/\)tests/' | while IFS= read -r -d '' f; do
    strip_tests "$f"
done | grep -Ev '^[ \t]*(pub(\([a-z]+\))? )?(((const|unsafe|async) )*fn|use) ' > "$callers"
# The caller lines with every pattern position cut away: the text left of
# the last `=>`, an `if let`/`while let` to the line's end, a `matches!(..)`.
sed -E 's/.*=>//; s/(if|while) let .*//; s/matches!\([^)]*\)?//g' "$callers" > "$constructs"
keep=" $(echo "$surface_keep" | awk '{ printf "%s ", $1 }')"
unused=0
for f in $(git ls-files 'crates/*/src/*.rs'); do
    while read -r kind name enum; do
        case "$keep" in *" $f:$name "*) continue ;; esac
        case "$kind" in
        fn)
            grep -Eq "(^|[^A-Za-z0-9_])$name(::<.*>)?\(|::$name([^A-Za-z0-9_:]|\$)" "$callers" ||
                { echo "$f: \`pub fn $name\` has no caller outside tests"; unused=1; } ;;
        field)
            grep -Eq "\.$name([^A-Za-z0-9_(]|\$)" "$callers" ||
                { echo "$f: \`pub $name\` is a field that no code outside tests reads"; unused=1; } ;;
        const)
            uses=$(grep -E "(^|[^A-Za-z0-9_])$name([^A-Za-z0-9_]|\$)" "$callers" |
                grep -Evc "^[ \t]*(pub(\([a-z]+\))? )?const $name[ \t]*:" || true)
            [ "$uses" -gt 0 ] ||
                { echo "$f: \`pub const $name\` is named by no code outside tests"; unused=1; } ;;
        variant)
            grep -Eq "($enum|Self)::$name([^A-Za-z0-9_]|\$)" "$constructs" ||
                { echo "$f: \`$enum::$name\` is constructed by no code outside tests"; unused=1; } ;;
        esac
    done < <(strip_tests "$f" | public_items)
done
rm -f "$callers" "$constructs"
[ "$unused" -eq 0 ]

echo "== build (release) =="
cargo build --release

echo "== tests (workspace) =="
# A debug build, so this is the stage that checks lock order: every
# lockrank lock/read/write panics, naming both sites, unless its rank is
# above every rank its thread holds, and a receive entered under any
# ranked guard panics (DESIGN.md §3.8). Release builds carry no check.
cargo test -q --workspace

echo "== tests (psmpi and bytes, release) =="
# The message path's concurrent code (the mailbox index, the per-rank pool
# hit counts that `BufferPool::stats` sums mid-job, the vendored `bytes`
# last-holder reclaim that ranks race to) is reordered by the optimiser
# differently from the debug build above, so it is tested again as the
# benchmark builds it.
cargo test -q --release -p psmpi -p bytes

echo "== clippy (deny warnings; clippy.toml is the determinism contract and the lock ban) =="
# The root clippy.toml bans, by resolved path, the host clock and
# environment, HashMap/HashSet, available_parallelism and
# thread::scope/spawn (DESIGN.md §3.3), and the unranked locks
# std::sync::{Mutex, RwLock} (§3.8), in
# every target, tests and examples included. A sanctioned site carries
# #[expect(clippy::disallowed_…, reason = "…")]; the workspace denies
# #[allow] and reasonless waivers, and -D warnings fails an #[expect] that
# no longer matches. Only lockrank, which is built on them, waives the lock
# ban.
cargo clippy --workspace --all-targets -- -D warnings

echo "== doc links (rustdoc, deny warnings) =="
# A deleted or renamed item that a doc comment still links to fails here,
# and so does a paper citation left as `[6]` (write `\[6\]`). --lib: the
# cb-bench `sched` binary's doc output would collide with the `sched` crate.
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --lib \
    -p hwmodel -p simnet -p psmpi -p cluster-booster -p ompss -p sionio -p scr \
    -p sched -p xpic -p obs -p lockrank -p cb-bench -p cluster-booster-repro

echo "== examples (each runs to exit 0) =="
# `cargo test` builds examples but never runs them. The list is every
# tracked examples/*.rs, so a new example runs here without an edit and a
# deleted one leaves no stale name behind. Several assert at run time:
# ompss_offload (ompss::run's only non-test caller) that its task graph,
# lowered onto comm_spawn, absorbed two injected task failures by input
# saving + retry and ended on the data its actions leave when run in
# program order, checkpoint_restart that the newest surviving state is
# restored, xpic_partitioned that Cluster-only, Booster-only and C+B end
# on bit-identical field and kinetic energies.
examples=$(git ls-files 'examples/*.rs' | sed -E 's|^examples/||; s|\.rs$||')
[ -n "$examples" ]
for example in $examples; do
    cargo run -q --release --example "$example" > /dev/null
done

echo "== figure binaries (each runs twice to exit 0 and prints the same bytes) =="
# No other stage runs these five: a figure binary that panics, or whose
# output stops being a function of its arguments, fails here. Their
# printed tables are what EXPERIMENTS.md reproduces; `matrix` is a tier-1
# test and `sched` has its own smoke below, so both are left out. The
# five took 2, 747, 24, 520 and 261 ms per run in release on 2 cores
# (`ablations`: the median of five runs, against 321 ms for the same five
# with its weak-scaling block, which is gone).
FIG_TMP=$(mktemp -d)
for bin in table1 fig3 fig7 fig8 ablations; do
    for run in 1 2; do
        cargo run -q --release -p cb-bench --bin "$bin" > "$FIG_TMP/$bin.$run.txt"
    done
    cmp "$FIG_TMP/$bin.1.txt" "$FIG_TMP/$bin.2.txt"
done
rm -rf "$FIG_TMP"

echo "== repo benchmark (benchmark/ builds and smokes against the workspace API) =="
# benchmark/ is its own [workspace] with path deps on crates/*, so the
# workspace stages above never compile it: an API change in psmpi or xpic
# could break the repo benchmark (BENCHMARK.json) unnoticed. Build it as
# the benchmark driver does, then run its tests — the --quick smoke of all
# five workloads plus the BENCHMARK.json/metric-table consistency check.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== host smoke (ring, scheduler and xPic rates, the scheduler's set-up time, the xPic fidelity ceiling, typed/bytes ratio and allreduce time within 1.5x of the recorded runs, pool misses counted, checkpointed-step rate above its floor, and both xPic workloads' peak RSS under a ceiling) =="
# The one host-speed gate, read from the benchmark binary built above: its
# `workload metric value unit` lines, its last line for the failed count.
# Floor: the lowest ring_latency ops_per_s of ten 5 s runs at PR 26 (1.437,
# 1.229, 1.281, 1.207, 1.240, 1.273, 1.166, 1.209, 1.282, 1.228 M msg/s) /
# 1.5: its parent, which notified on every deposit and took the pool's lock
# twice a message, read 0.70-0.73 M in 15 s runs and is under it.
# Ceiling: the highest typed/bytes ratio recorded up to PR 15 (2.13) x 1.5.
# The typed shift writes each wire byte once, straight into the staged
# buffer, and decodes it once; the bytes shift copies once.
# Floor: the lowest xpic_ckpt ops_per_s of ten 5 s runs with checkpoints
# packed into recycled buffers (373.2, 402.9, 342.3, 321.9, 294.5, 359.0,
# 278.4, 267.8, 268.3, 265.9 steps/s) / 1.5. The host throttles after
# sustained load (at PR 17 one binary read 46-159 right after this
# script's build and test stages and 179-195 when quiet), so rerun a
# failure on a quiet host before suspecting the code.
# Ceiling: xpic_ckpt host.peak_rss_mb 45, set when checkpoint retention
# landed as the highest of ten traced 5 s runs (24.6-30.3 MiB) x 1.5.
# Re-taken when universes alive at once began to share one buffer pool,
# ten traced 5 s runs a side: 31.0-40.4 MiB before, 35.0-42.1 with it.
# A manager that keeps every checkpoint to the end of the run again, as
# before retention, reads 57-65; a pool kept for the life of the process
# read 47-49.
# Ceiling: the highest psmpi.allreduce_ms of ten 5 s traced runs at PR 19
# (1.17-1.53 ms; the parent read 1.5-1.8) x 1.5: a reduction that decodes
# its partner's block into a scratch buffer again fails it on a quiet host.
# Ceiling: psmpi.pool_misses 200 per repetition, a count, not a time: 96
# root buffers of the segmented bcasts plus start-up read 125-163 in those
# runs, and a pool that leaks the non-roots' reassembly buffers reads 388.
# Since the last holder of a broadcast's buffer brings it home,
# only start-up and the buffers a root running ahead of its receivers
# needs are left: 24-32 in thirty 15 s runs (the parent read 123-159).
# Floor: the lowest sched_trace ops_per_s of ten 5 s runs at PR 23 (417,
# 436, 433, 435, 365, 371, 353, 427, 427, 439 k jobs/s; PR 20 read
# 154-238 k, its parent 52-57 k) / 1.5: an engine that deals expansions
# node by node at every event or works out a candidate's worst case in the
# backfill scan again reads under it on a quiet host.
# Ceiling: the highest sched_trace setup_s of ten 5 s runs with trace jobs
# that store no name and topologies whose nodes share one spec per
# add_nodes call (1.144, 0.887, 1.097, 1.092, 1.083, 0.985, 0.843, 0.907,
# 0.852, 1.113 ms) x 1.5, the counterpart of the floors' "lowest / 1.5":
# a generator that formats a name per job again read 1.64-2.91 ms in
# twenty 15 s runs, all but one of them over it.
# Floor: the lowest xpic_fig7 ops_per_s of ten 5 s runs with the stencil
# floor taken by grid::floor_index (10.77, 11.19, 11.17, 11.22, 11.62,
# 10.74, 10.53, 10.81, 11.48, 12.25 M particle pushes/s) / 1.5. The kernels
# that called f64::floor read 8.1-10.1 M in 15 s runs, above it too: a 1.5x
# slowdown of the whole workload fails it, a lost floor alone may not.
# A 2x regression of either of the first two fails; benchmark/README.md
# says how to read the rest.
# Ceiling: xpic_fig7 host.peak_rss_mb 115, the highest of ten traced 5 s
# runs with the process-wide plasma memo (74.0-76.9 MiB) x 1.5. The memo
# holds one configuration's rows, one population of 20 MiB here (the
# parent, which has no memo, read 53.8-56.7); a memo per mode, three
# populations, would read about 114-117.
# Ceiling: fidelity_max_rel_err 0.02825514721985648, the value the fitted
# kernel prices give (DESIGN.md §3.11; 0.120095 before the fit). The
# metric is virtual time only, exact and host-independent, so the gate is
# the printed value itself: any price change that moves a scored paper row
# further off fails it, and one that improves the fit must lower it here.
BM="${CARGO_TARGET_DIR:-benchmark/target}/release/cb-benchmark"
HS_TMP=$(mktemp -d)
"$BM" --workload ring_latency --seed 20180521 --seconds 5 --trace 0 > "$HS_TMP/ring.txt"
"$BM" --workload bulk_collectives --seed 20180521 --seconds 5 --trace 1 > "$HS_TMP/bulk.txt"
"$BM" --workload xpic_fig7 --seed 20180521 --seconds 5 --trace 0 > "$HS_TMP/fig7.txt"
"$BM" --workload xpic_fig7 --seed 20180521 --seconds 5 --trace 1 > "$HS_TMP/fig7_traced.txt"
"$BM" --workload xpic_ckpt --seed 20180521 --seconds 5 --trace 0 > "$HS_TMP/ckpt.txt"
"$BM" --workload xpic_ckpt --seed 20180521 --seconds 5 --trace 1 > "$HS_TMP/ckpt_traced.txt"
"$BM" --workload sched_trace --seed 20180521 --seconds 5 --trace 0 > "$HS_TMP/sched.txt"
tail -n 1 "$HS_TMP/ring.txt" | grep -q '"failed": 0,'
tail -n 1 "$HS_TMP/bulk.txt" | grep -q '"failed": 0,'
tail -n 1 "$HS_TMP/fig7.txt" | grep -q '"failed": 0,'
tail -n 1 "$HS_TMP/fig7_traced.txt" | grep -q '"failed": 0,'
tail -n 1 "$HS_TMP/ckpt.txt" | grep -q '"failed": 0,'
tail -n 1 "$HS_TMP/ckpt_traced.txt" | grep -q '"failed": 0,'
tail -n 1 "$HS_TMP/sched.txt" | grep -q '"failed": 0,'
awk '$2 == "ops_per_s" { v = $3 }
     END { if (v + 0 < 7.7e5) { print "host smoke: ring_latency ops_per_s " v " is under 7.7e5"; exit 1 } }' \
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
     END { if (v + 0 < 177) { print "host smoke: xpic_ckpt ops_per_s " v " is under 177"; exit 1 } }' \
    "$HS_TMP/ckpt.txt"
awk '$2 == "host.peak_rss_mb" { v = $3 }
     END { if (v == "" || v + 0 > 45) { print "host smoke: xpic_ckpt peak_rss_mb " v " is over 45"; exit 1 } }' \
    "$HS_TMP/ckpt_traced.txt"
awk '$2 == "ops_per_s" { v = $3 }
     END { if (v + 0 < 2.35e5) { print "host smoke: sched_trace ops_per_s " v " is under 2.35e5"; exit 1 } }' \
    "$HS_TMP/sched.txt"
awk '$2 == "setup_s" { v = $3 }
     END { if (v == "" || v + 0 > 1.72e-3) { print "host smoke: sched_trace setup_s " v " is over 1.72e-3"; exit 1 } }' \
    "$HS_TMP/sched.txt"
awk '$2 == "ops_per_s" { v = $3 }
     END { if (v + 0 < 7.0e6) { print "host smoke: xpic_fig7 ops_per_s " v " is under 7.0e6"; exit 1 } }' \
    "$HS_TMP/fig7.txt"
awk '$2 == "host.peak_rss_mb" { v = $3 }
     END { if (v == "" || v + 0 > 115) { print "host smoke: xpic_fig7 peak_rss_mb " v " is over 115"; exit 1 } }' \
    "$HS_TMP/fig7_traced.txt"
awk '$2 == "fidelity_max_rel_err" { v = $3 }
     END { if (v == "" || v + 0 > 0.02825514721985648) { print "fidelity gate: xpic_fig7 fidelity_max_rel_err " v " is over 0.02825514721985648"; exit 1 } }' \
    "$HS_TMP/fig7.txt"
rm -rf "$HS_TMP"

echo "== sched smoke (1200-job trace through the workload engine) =="
# The bursty production trace through the scheduler service, independent
# vs node-locked reservation: must schedule every job with backfill,
# malleability, and at least one fault-driven requeue, and beat the
# node-locked makespan (sched.rs). The --out file is pure virtual time; its
# metrics are pinned across commits by the tier-1 test
# sched_smoke_metrics_are_pinned_across_commits (tests/golden/
# sched_smoke.golden). The smoke runs twice with the same arguments, and
# the two --out files and the two --trace-out files (one track per job,
# sched::chrome_trace) must match: a run-to-run determinism check on the
# metrics and on the whole event log.
SCHED_TMP=$(mktemp -d)
for run in 1 2; do
    cargo run -q --release -p cb-bench --bin sched -- --smoke \
        --out "$SCHED_TMP/run$run.json" --trace-out "$SCHED_TMP/run$run.trace.json" > /dev/null
done
cmp "$SCHED_TMP/run1.json" "$SCHED_TMP/run2.json"
cmp "$SCHED_TMP/run1.trace.json" "$SCHED_TMP/run2.trace.json"
rm -rf "$SCHED_TMP"

# The tier-1 test equivalence_matrix_matches_its_golden (cb_bench::matrix) now holds the obs, overlap, fault and async-checkpoint checks.

echo "CI green."
