#!/usr/bin/env bash
# Offline CI gate: formatting, lints, and the full test suite.
# Everything resolves against the vendored stand-in crates (vendor/),
# so no network or registry access is needed.
set -euo pipefail
cd "$(dirname "$0")/.."

# Run one filtered `cargo test` stage and fail it when its runs report 0
# tests passed in total: `cargo test` exits 0 when a filter matches
# nothing, so a renamed test would otherwise drop out of CI silently.
run_filtered() {
    local out passed
    if ! out=$(cargo test "$@" 2>&1); then
        printf '%s\n' "$out"
        return 1
    fi
    printf '%s\n' "$out"
    passed=$(printf '%s\n' "$out" |
        sed -n 's/^test result: [A-Za-z]*\. \([0-9]*\) passed.*/\1/p' |
        awk '{ total += $1 } END { print total + 0 }')
    if [ "$passed" -eq 0 ]; then
        echo "error: 'cargo test $*' ran 0 tests; its filter matches nothing" >&2
        return 1
    fi
}

# Run one example (`cargo run` arguments follow the file name) and fail
# unless its stdout equals scripts/example_outputs/<file>. The drills
# run fixed seeds, so any difference is a behaviour change; a change
# meant to make one regenerates the file and says why.
check_output() {
    local expected="scripts/example_outputs/$1" out
    shift
    out=$(cargo run -q --offline "$@")
    printf '%s\n' "$out"
    if ! diff -u "$expected" <(printf '%s\n' "$out"); then
        echo "error: 'cargo run $*' printed other output than $expected" >&2
        return 1
    fi
}

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

# Rustdoc with warnings denied, so a deleted or renamed item cannot
# leave a dangling intra-doc link behind. Both feature sets: an
# obs-gated item resolves only when obs is on. The public pass never
# renders crate-private docs, so a second pass documents private items
# too and checks their links.
echo "==> cargo doc (deny warnings, default + obs)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace --features obs
echo "==> cargo doc --document-private-items (deny warnings, default + obs)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace --document-private-items
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace --document-private-items --features obs

echo "==> cargo test (default features: obs compiled out)"
cargo test -q --offline --workspace

echo "==> cargo test (--features obs: metrics + tracing instrumented)"
cargo test -q --offline --workspace --features obs

# The chaos differential suite is the contract of the fault/scrub
# subsystem: run it explicitly under both feature sets (it is part of
# the workspace runs above, but a rename must not silently drop it).
echo "==> chaos fault-recovery suite (default)"
cargo test -q --offline -p dsp-cam-core --test fault_recovery
echo "==> chaos fault-recovery suite (obs)"
cargo test -q --offline -p dsp-cam-core --features obs --test fault_recovery

# The exact-match index suite is the contract of a binary unit's Turbo
# candidate walk: it answers and charges exactly as a walk over every
# block, under shadow faults and faults of the index itself. Run it and
# the index's own unit tests explicitly under both feature sets, through
# run_filtered so a rename cannot drop them.
echo "==> exact-match index suite (default)"
run_filtered -q --offline -p dsp-cam-core --test exact_index
run_filtered -q --offline -p dsp-cam-core --lib -- exact::
echo "==> exact-match index suite (obs)"
run_filtered -q --offline -p dsp-cam-core --features obs --test exact_index
run_filtered -q --offline -p dsp-cam-core --features obs --lib -- exact::

# The modelled cycle schedule: StreamingCam's issue/retire timing
# against its reference model at both search latencies, and two seeded
# replay_cluster runs on write-buffered shards (fault-free, and through
# a crash and a stall) whose ticks, issues, stalls, queue peak, per-shard
# retire counts and latency percentiles, retries and recovery ticks are
# pinned exactly. Both feature sets, through run_filtered so a rename
# cannot drop them.
echo "==> cycle schedule pins (default)"
run_filtered -q --offline -p dsp-cam-core --test streaming_timing
run_filtered -q --offline -p dsp-cam-cluster --test replay_timing
echo "==> cycle schedule pins (obs)"
run_filtered -q --offline -p dsp-cam-core --features obs --test streaming_timing
run_filtered -q --offline -p dsp-cam-cluster --features obs --test replay_timing

# Table IX's cycle check: the hardware-model triangle count takes each
# edge's compute cycles from the driven unit's issue counter, and must
# agree with the analytical model's formula, at the case-study geometry
# and at one small enough that most edges are compute bound. Run it and
# tc-accel's own unit tests (the same check on a chunked hub) explicitly
# under both feature sets, through run_filtered so a rename cannot drop
# them.
echo "==> case-study cycle check (default)"
run_filtered -q --offline --test case_study -- hardware_simulation_validates_the_cycle_model
run_filtered -q --offline -p tc-accel --lib
echo "==> case-study cycle check (obs)"
run_filtered -q --offline --features obs --test case_study -- hardware_simulation_validates_the_cycle_model
run_filtered -q --offline -p tc-accel --features obs --lib

# The fault drill runs a fixed-seed chaos campaign against a
# scrub-enabled Turbo unit (inject -> degrade -> scrub -> restore),
# under both feature sets, each output checked against its committed
# copy.
echo "==> fault-drill example smoke run (fixed seed, default + obs)"
check_output fault_drill.txt --example fault_drill
check_output fault_drill.obs.txt --example fault_drill --features obs

# The write-heavy drill walks the CAM-fronted update queue end to end
# (capture at II=1, read-your-writes overlap flushes, budgeted idle
# drain) on a fixed seed, under both feature sets.
echo "==> write-burst example smoke run (fixed seed, default + obs)"
cargo run -q --offline --example write_burst
cargo run -q --offline --example write_burst --features obs

# The workload-replay drill generates a fixed-seed Zipfian mixed-op
# trace and proves both replay arms (StreamingCam ticks vs direct
# CamUnit transactions) observe identical per-pipe completions and
# quiescent state, under both feature sets.
echo "==> workload-replay example smoke run (fixed seed, default + obs)"
cargo run -q --offline --example workload_replay
cargo run -q --offline --example workload_replay --features obs

# The cluster-reshard drill replays a fixed-seed write-heavy trace
# through a 4-shard cluster across a live slot migration and proves the
# reshard was invisible: zero dropped queries, hits/rejections/contents
# identical to a never-resharded run, snapshot fan-out agreeing with
# the live cluster. Under both feature sets (obs additionally publishes
# the per-shard retire and migration-stall histograms), each output
# checked against its committed copy.
echo "==> cluster-reshard example smoke run (fixed seed, default + obs)"
check_output cluster_reshard.txt --example cluster_reshard
check_output cluster_reshard.obs.txt --example cluster_reshard --features obs

# The shard-failover drill crashes one shard and stalls another in a
# failover-enabled cluster mid-ingest, and proves both outages were
# absorbed: availability >= 0.99 with zero shed writes, the crashed
# shard rebuilt from epoch + journal, quiescent contents identical to a
# never-faulted twin. Under both feature sets (obs additionally
# publishes the cluster/failover counters and recovery histogram), each
# output checked against its committed copy.
echo "==> shard-failover example smoke run (fixed seed, default + obs)"
check_output shard_failover.txt --example shard_failover
check_output shard_failover.obs.txt --example shard_failover --features obs

# The remaining examples, run once each under default features: among
# them database_index and packet_classifier are the only examples that
# exercise range and per-entry ternary writes end to end, and
# triangle_counting replays the paper's case study on a quarter-scale
# as20000102 stand-in. Their outputs (RTL, VCD) land under target/.
echo "==> example smoke runs (default)"
for ex in quickstart packet_classifier database_index dynamic_groups \
          stream_dedup rtl_export waveform_dump; do
    echo "--- example: $ex"
    cargo run -q --offline --example "$ex"
done
echo "--- example: triangle_counting as20000102 4"
cargo run -q --offline --example triangle_counting as20000102 4

echo "==> clippy + compile-check the obs example"
cargo clippy --offline --features obs --example trace_report -- -D warnings

echo "==> cargo bench --no-run (benches must keep compiling)"
cargo bench --offline --workspace --no-run

# The repository benchmark (BENCHMARK.json) is its own cargo workspace,
# so the builds above never compile it: build it here so a core API it
# uses cannot disappear unnoticed. --locked also fails the stage when a
# dependency change would rewrite perfbench/Cargo.lock.
echo "==> perfbench benchmark build (release, --locked)"
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml

# Behaviour pins of the repository benchmark: every BENCHMARK.json
# workload at seeds 1 and 2 must pass its own correctness gate
# ("correct": true, "failed": 0) and print exactly the `pin` lines of
# scripts/perfbench_pins.txt. Pins depend on neither run length nor host
# speed, so a one-second run checks them; a change meant to alter
# behaviour regenerates the file and says why.
echo "==> perfbench pins (every BENCHMARK.json workload, seeds 1 and 2)"
pins=""
for workload in $(sed -n '/"workloads"/,/^  \]/s/.*"name": "\([^"]*\)".*/\1/p' BENCHMARK.json); do
    for seed in 1 2; do
        out=$(cargo run --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds 1 --trace 0)
        result=$(printf '%s\n' "$out" | tail -n 1)
        if ! grep -q '"correct": true' <<<"$result" || ! grep -q '"failed": 0,' <<<"$result"; then
            echo "error: perfbench $workload seed $seed failed its correctness gate: $result" >&2
            exit 1
        fi
        pins+=$(printf '%s\n' "$out" | sed -n "s/^pin /$workload $seed pin /p")$'\n'
    done
done
if ! diff <(grep -v '^#' scripts/perfbench_pins.txt) <(printf '%s' "$pins"); then
    echo "error: perfbench pin lines differ from scripts/perfbench_pins.txt" >&2
    exit 1
fi

# Release-mode perf floors on a fixed-seed key stream: the key-parallel
# batch kernel must beat its one-key degenerate >= 2x at 8192 entries on
# a ternary(32, 0) plane walk, binary Turbo stream throughput must hold
# its per-entry floor and one-key search its rate floor at 64k and at 1M
# entries (one unit per size, ~230 MB peak RSS at 1M; a candidate walk
# whose per-key work grew with group capacity again would fail the 1M
# stream floor, and a search that scanned its group once per call the 1M
# point-search floor), and the Turbo tier must stay >= 50x the
# bit-accurate tier at 8192 entries (BENCH_search.json regression
# guards, from the FLOORS table in crates/bench/src/artefact.rs). Run
# under both feature sets — the obs build must not tax the kernel
# either.
echo "==> release large-capacity perf smoke (default)"
run_filtered -q --offline --release -p dsp-cam-bench --lib -- --ignored large_capacity_smoke
echo "==> release large-capacity perf smoke (obs)"
run_filtered -q --offline --release -p dsp-cam-bench --lib --features obs -- --ignored large_capacity_smoke

# Update-queue floors on the write-heavy 50:45:5 mix at 8192 entries:
# buffered update p99 <= 0.5x inline, search throughput under writes
# >= 2x the inline baseline (BENCH_search.json regression guards).
echo "==> release update-queue perf smoke (default)"
run_filtered -q --offline --release -p dsp-cam-bench --lib -- --ignored update_queue_smoke
echo "==> release update-queue perf smoke (obs)"
run_filtered -q --offline --release -p dsp-cam-bench --lib --features obs -- --ignored update_queue_smoke

# End-to-end workload floors: the three canonical trace-driven
# scenarios (read-heavy 90:9:1, write-heavy 50:45:5, bursty Zipfian
# s=1.0) at 1M ops each, replayed through both arms with cross-arm
# agreement asserted, then validated against the BENCH_workloads.json
# throughput floors and deterministic retire-latency ceilings.
echo "==> release workload scenario smoke (default)"
run_filtered -q --offline --release -p dsp-cam-bench --lib -- --ignored workload_smoke
echo "==> release workload scenario smoke (obs)"
run_filtered -q --offline --release -p dsp-cam-bench --lib --features obs -- --ignored workload_smoke

# Sharding-cluster floors (BENCH_search.json capacity_scaling and
# cluster_migration regression guards): the 4-shard capacity race of
# ternary(32, 0) plane-walk shards must hold >= 2.5x single-unit
# throughput on the 1M-op write-heavy trace (summed per-shard CPU
# time), and the live-migration ingest replay
# must complete every query it issues (zero-dropped-query invariant)
# while the frozen replica serves reads through the window.
echo "==> release cluster perf + migration smoke (default)"
run_filtered -q --offline --release -p dsp-cam-bench --lib -- --ignored cluster_smoke
echo "==> release cluster perf + migration smoke (obs)"
run_filtered -q --offline --release -p dsp-cam-bench --lib --features obs -- --ignored cluster_smoke

# Cluster failover floors (BENCH_search.json failover_rows and
# BENCH_workloads.json degraded_mode regression guards): the crash and
# stall drills must hold availability >= 0.99 with zero dropped queries
# and shed writes, and recover within the deterministic recovery-tick
# ceiling. Lockstep numbers — a violation means the failover protocol
# changed, not that the machine was slow.
echo "==> release failover smoke (default)"
run_filtered -q --offline --release -p dsp-cam-bench --lib -- --ignored failover_smoke
echo "==> release failover smoke (obs)"
run_filtered -q --offline --release -p dsp-cam-bench --lib --features obs -- --ignored failover_smoke

echo "CI green."
