#!/usr/bin/env bash
# Tier-1 verification gate: release build, full test suite, strict clippy,
# formatting, warning-free docs.
# Run from the repository root. Requires no network access (the workspace
# has zero external dependencies; see README.md "Offline builds").
set -euo pipefail
cd "$(dirname "$0")"

# No step may write a tracked file or leave an untracked one behind: the
# working tree's status is snapshotted here and compared at the end.
in_git=false
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    in_git=true
    status_before="$(git status --porcelain)"
fi

echo "== cargo build --release =="
cargo build --release

echo "== simbench build (the benchmark package, a workspace of its own) =="
# simbench depends on the simulator crates by path, so an API change that
# breaks the benchmark fails here instead of at benchmark time.
cargo build --release --offline --manifest-path simbench/Cargo.toml

echo "== cargo test -q =="
cargo test -q

echo "== cargo clippy --all-targets -- -D warnings =="
cargo clippy --all-targets -- -D warnings

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo doc (broken intra-doc links fail) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# Scratch space for the sweep and report runs below.
fault_dir="$(mktemp -d)"
trap 'rm -rf "$fault_dir"' EXIT

echo "== shared-trace sweep smoke (1 worker vs 3 workers, diff) =="
# A sweep records each (config, workload) group's trace once and every
# system of the group replays it. Three workers split the three-system
# groups between them; the JSON must still match a one-worker run byte for
# byte.
SHARE_ARGS=(--sweep ci-share --workloads swaptions,mix2 --systems base-2l,d2m-fs,d2m-ns-r
            --instructions 20000 --warmup 5000)
for jobs in 1 3; do
    cargo run --release -q -p d2m-sim --bin d2m-simulate -- \
        "${SHARE_ARGS[@]}" --jobs "$jobs" --out "$fault_dir/share-$jobs.json"
done
cmp "$fault_dir/share-1.json" "$fault_dir/share-3.json" \
    || { echo "sweep JSON differs between 1 and 3 workers"; exit 1; }

echo "== full sweep byte identity (quick length, pinned digest) =="
# All 225 cells of the `full` sweep (every catalog workload on all five
# systems) at a short length; the JSON's sha256 must equal the digest
# pinned in tests/golden/full_sweep_quick.sha256, so any change to
# simulated output fails here. After a deliberate output change, re-bless
# with:
#   target/release/d2m-simulate --sweep full --instructions 40000 \
#       --warmup 10000 --jobs 2 | sha256sum | cut -d' ' -f1 \
#       > tests/golden/full_sweep_quick.sha256
full_digest="$(target/release/d2m-simulate --sweep full --instructions 40000 \
    --warmup 10000 --jobs 2 2>/dev/null | sha256sum | cut -d' ' -f1)"
[ "$full_digest" = "$(cat tests/golden/full_sweep_quick.sha256)" ] \
    || { echo "full sweep output digest $full_digest differs from the pinned one"; exit 1; }

echo "== observation byte identity (tpc-c --trace-out on every system, pinned digest) =="
# The sweep digest above covers the scalar metrics only. An observed run also
# writes the probe histograms, the traffic matrix and the energy breakdown,
# and the late-hit latencies in them come from the L1 slots' fill-completion
# cycles. The sha256 of the five systems' --trace-out files, concatenated in
# SystemKind::ALL order, must equal tests/golden/observation_quick.sha256.
# After a deliberate output change, re-bless with:
#   for s in base-2l base-3l d2m-fs d2m-ns d2m-ns-r; do
#       target/release/d2m-simulate --system "$s" --workload tpc-c \
#           --instructions 40000 --warmup 10000 --trace-out "/tmp/obs-$s.json" >/dev/null
#   done
#   cat /tmp/obs-{base-2l,base-3l,d2m-fs,d2m-ns,d2m-ns-r}.json | sha256sum \
#       | cut -d' ' -f1 > tests/golden/observation_quick.sha256
obs_files=()
for system in base-2l base-3l d2m-fs d2m-ns d2m-ns-r; do
    target/release/d2m-simulate --system "$system" --workload tpc-c --instructions 40000 \
        --warmup 10000 --trace-out "$fault_dir/obs-$system.json" >/dev/null
    obs_files+=("$fault_dir/obs-$system.json")
done
obs_digest="$(cat "${obs_files[@]}" | sha256sum | cut -d' ' -f1)"
[ "$obs_digest" = "$(cat tests/golden/observation_quick.sha256)" ] \
    || { echo "observation digest $obs_digest differs from the pinned one"; exit 1; }

echo "== fault-tolerant sweep smoke (inject, kill, resume, diff) =="
# End-to-end proof of the sweep engine's fault-tolerance contract, against
# the real release binary and a real process death (not an in-process
# simulation): a cell panic must not abort the sweep, and a sweep killed
# mid-run must resume to byte-identical JSON.
SWEEP_ARGS=(--sweep ci-fault --workloads swaptions,mix2 --systems base-2l,d2m-ns-r
            --instructions 20000 --warmup 5000 --jobs 2)

# 1. Clean run with one injected cell panic: exit 0, failure recorded in JSON.
D2M_FAULT="cell@ci-fault:1:panic" \
    cargo run --release -q -p d2m-sim --bin d2m-simulate -- \
    "${SWEEP_ARGS[@]}" --out "$fault_dir/clean.json"
grep -q '"error"' "$fault_dir/clean.json" \
    || { echo "injected panic left no error in the sweep JSON"; exit 1; }

# 2. Same sweep, killed right after the second checkpointed cell.
set +e
D2M_FAULT="cell@ci-fault:1:panic,checkpoint@ci-fault:2:exit" \
    cargo run --release -q -p d2m-sim --bin d2m-simulate -- \
    "${SWEEP_ARGS[@]}" --checkpoint "$fault_dir/sweep.ckpt"
kill_status=$?
set -e
[ "$kill_status" -eq 43 ] \
    || { echo "injected kill exited with $kill_status, expected 43"; exit 1; }

# 3. Resume past the kill (same injected panic, still deterministic) and
#    require byte-identity with the uninterrupted run.
D2M_FAULT="cell@ci-fault:1:panic" \
    cargo run --release -q -p d2m-sim --bin d2m-simulate -- \
    "${SWEEP_ARGS[@]}" --checkpoint "$fault_dir/sweep.ckpt" --resume \
    --out "$fault_dir/resumed.json"
cmp "$fault_dir/clean.json" "$fault_dir/resumed.json" \
    || { echo "resumed sweep JSON differs from the uninterrupted run"; exit 1; }

echo "== examples (each runs once in release) =="
# `cargo test` only compiles examples/. Running each one makes an example
# that panics, or breaks an assert such as dynamic_coherence's
# `coherence_errors() == 0`, fail the gate.
for example in examples/*.rs; do
    example="$(basename "$example" .rs)"
    echo "-- example $example"
    cargo run --release -q --example "$example" >/dev/null
done

echo "== paper artifacts (every report at --quick length, pinned digest) =="
# Without an artifact, `report` prints its usage, including the line
# `artifacts: <name>...`, and exits 2. Each listed artifact then runs once, so
# a report that panics fails the gate. They run in a scratch directory: the
# sweep journals they write under `target/` start fresh and are discarded.
# The sha256 of their 16 stdouts, concatenated in usage order, must equal
# tests/golden/report_quick.sha256, so a change to any printed number fails
# here. After a deliberate output change, re-bless from an empty directory
# with:
#   r=/path/to/repo/target/release/report
#   for a in $("$r" 2>&1 | sed -n 's/^artifacts: //p'); do
#       D2M_JOBS=2 "$r" "$a" --quick 2>/dev/null
#   done | sha256sum | cut -d' ' -f1 > /path/to/repo/tests/golden/report_quick.sha256
report="$PWD/target/release/report"
set +e
usage="$("$report" 2>&1)"
usage_status=$?
set -e
[ "$usage_status" -eq 2 ] \
    || { echo "report without an artifact exited $usage_status, expected 2"; exit 1; }
artifacts="$(sed -n 's/^artifacts: //p' <<<"$usage")"
[ -n "$artifacts" ] || { echo "report usage lists no artifacts"; exit 1; }
mkdir "$fault_dir/report"
report_outs=()
for artifact in $artifacts; do
    echo "-- report $artifact --quick"
    (cd "$fault_dir/report" && D2M_JOBS=2 "$report" "$artifact" --quick >"$artifact.out")
    report_outs+=("$fault_dir/report/$artifact.out")
done
report_digest="$(cat "${report_outs[@]}" | sha256sum | cut -d' ' -f1)"
[ "$report_digest" = "$(cat tests/golden/report_quick.sha256)" ] \
    || { echo "report --quick output digest $report_digest differs from the pinned one"; exit 1; }

echo "== published artifact with a failed cell (inject, expect nonzero exit) =="
# Unlike `d2m-simulate --sweep`, a report must not print tables built from a
# failed cell's placeholder metrics. `calibrate` is the cheapest artifact on
# the journaled sweep path. It runs in its own directory: the failed cell is
# journaled, and a later clean run there would resume it.
mkdir "$fault_dir/report-fault"
set +e
fault_err="$(cd "$fault_dir/report-fault" && D2M_JOBS=2 D2M_FAULT="cell@calibrate:0:panic" \
    "$report" calibrate --quick 2>&1 >/dev/null)"
fault_status=$?
set -e
[ "$fault_status" -ne 0 ] \
    || { echo "report calibrate with a failed cell exited 0"; exit 1; }
grep -q "1 failed cell" <<<"$fault_err" \
    || { echo "report calibrate failed without naming its failed cell"; exit 1; }

echo "== single-run artifacts with a failed run (inject, expect nonzero exit, empty stdout) =="
# energy_breakdown, pkmo, traffic_debug, lockbits and the three D2M
# ablations run one system at a time through the runner, not a sweep, and
# print only after every run has passed, so a run that fails part-way leaves
# no partial report on stdout. Each of the three artifacts below fails at its
# first D2M-FS run, inside the runner, when AnySystem::build's `build` fault
# point fires; energy_breakdown and traffic_debug have passed runs before it.
mkdir "$fault_dir/report-direct-fault"
for artifact in energy_breakdown pkmo traffic_debug; do
    set +e
    direct_out="$(cd "$fault_dir/report-direct-fault" && D2M_FAULT="build@D2M-FS:*:panic" \
        "$report" "$artifact" --quick 2>/dev/null)"
    direct_status=$?
    set -e
    [ "$direct_status" -ne 0 ] \
        || { echo "report $artifact with a failed build exited 0"; exit 1; }
    [ -z "$direct_out" ] \
        || { echo "report $artifact printed a partial report before failing"; exit 1; }
done

echo "== simbench (every workload once, untraced, 1 s) =="
# Each run repeats its workload against the simulator's public API and exits
# nonzero when a named correctness check fails (failed_cell, pass_mismatch,
# jobs_mismatch, resume_mismatch, observed_mismatch, ...), so those checks
# gate every change, not only benchmark runs.
for workload in figure-matrix deep-run journaled-observed; do
    echo "-- simbench --workload $workload --seconds 1"
    simbench/target/release/simbench --workload "$workload" --seconds 1 >/dev/null
done

if $in_git; then
    echo "== working tree unchanged by ci.sh =="
    status_after="$(git status --porcelain)"
    if [ "$status_before" != "$status_after" ]; then
        echo "ci.sh changed the status of these paths:"
        { diff <(echo "$status_before") <(echo "$status_after") || true; } \
            | sed -n 's/^[<>] ...//p' | sort -u
        exit 1
    fi
fi

echo "== ci.sh: all checks passed =="
