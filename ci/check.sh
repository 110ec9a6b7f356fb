#!/usr/bin/env bash
# The repo's CI gate: build, test, format, lint — in that order, so the
# cheapest failure mode (a broken build) surfaces before the slow test
# run, and style gates never mask a real breakage.
#
# Run locally before pushing: ./ci/check.sh
set -euo pipefail

cd "$(dirname "$0")/.."

# Every temp dir any step allocates lands here; the single EXIT trap
# sweeps them all, so later steps can add dirs without clobbering it.
TMP_DIRS=()
cleanup() {
    for d in ${TMP_DIRS[@]+"${TMP_DIRS[@]}"}; do
        rm -rf "$d"
    done
}
trap cleanup EXIT

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> cargo test perfbench"
# The benchmark is a package of its own that reaches crates/* by path;
# testing it here makes a public-API change that breaks it fail CI.
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "==> perfbench correctness gate (paper + light)"
# A one-second run of each workload. perfbench checks every output it
# times (each matrix cell places every VM and repeats its outcome on
# every visit, PA-0.5 beats FF, replays conserve verdicts, recovery
# matches) and exits 1 when any check fails. Building it here also
# fails CI when the benchmark stops compiling against the crates.
# About 16 s per workload on 2 vCPUs.
for wl in paper light; do
    PB_OUT="$(cargo run --release -q --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$wl" --seed 59118 --seconds 1 --trace 0)" \
        || { echo "perfbench: $wl correctness gate failed"; \
             echo "$PB_OUT" | tail -1; exit 1; }
done

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> eavm lint --deny (workspace invariant checker)"
# Statically enforces the determinism/panic-safety/codec invariants
# (DESIGN.md §10, §15). Any unwaived violation — including deleting the
# reason from an existing allow-pragma, or leaving a pragma whose line
# no longer violates — fails the gate.
cargo run --release -q -p eavm-cli -- lint --deny

echo "==> eavm lint report determinism (json + sarif byte-diff)"
# The linter scans files in parallel; the merged report must not care.
# Run each machine format twice and byte-diff — the same drill the
# scenario library gets. The SARIF copy is kept under target/ so the
# workflow can upload it as an artifact.
LINT_DIR="$(mktemp -d)"
TMP_DIRS+=("$LINT_DIR")
cargo run --release -q -p eavm-cli -- lint --format json  > "$LINT_DIR/lint.1.json"
cargo run --release -q -p eavm-cli -- lint --format json  > "$LINT_DIR/lint.2.json"
cmp "$LINT_DIR/lint.1.json" "$LINT_DIR/lint.2.json" \
    || { echo "lint: json report not byte-deterministic"; \
         diff "$LINT_DIR/lint.1.json" "$LINT_DIR/lint.2.json" | head -20; exit 1; }
cargo run --release -q -p eavm-cli -- lint --format sarif > "$LINT_DIR/lint.1.sarif"
cargo run --release -q -p eavm-cli -- lint --format sarif > "$LINT_DIR/lint.2.sarif"
cmp "$LINT_DIR/lint.1.sarif" "$LINT_DIR/lint.2.sarif" \
    || { echo "lint: sarif report not byte-deterministic"; \
         diff "$LINT_DIR/lint.1.sarif" "$LINT_DIR/lint.2.sarif" | head -20; exit 1; }
mkdir -p target
cp "$LINT_DIR/lint.1.sarif" target/eavm-lint.sarif

echo "==> cargo bench --no-run"
cargo bench --no-run --workspace

echo "==> cargo doc --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> results drift gate (committed figures re-run byte for byte)"
# Every deterministic experiment binary must print exactly its
# committed results/<name>.txt, so a change that moves a number has to
# commit the new file. overload_shed reads the wall clock: not gated.
DRIFT_DIR="$(mktemp -d)"
TMP_DIRS+=("$DRIFT_DIR")
for f in results/*.txt; do
    name="$(basename "$f" .txt)"
    if [ "$name" = overload_shed ]; then continue; fi
    cargo run --release -q -p eavm-bench --bin "$name" > "$DRIFT_DIR/$name.txt" 2> /dev/null
    cmp -s "$f" "$DRIFT_DIR/$name.txt" \
        || { echo "results drift: $f differs from what $name prints"; \
             diff "$f" "$DRIFT_DIR/$name.txt" | head -20; exit 1; }
done

echo "==> chaos smoke (deterministic fault injection)"
# A short replay with a nonzero fault rate must exit 0, conserve VM
# placements (trace + restarts), and survive an injected shard-worker
# kill with every submission resolved to a final verdict.
CHAOS_DIR="$(mktemp -d)"
TMP_DIRS+=("$CHAOS_DIR")
CLI=(cargo run --release -q -p eavm-cli --)
"${CLI[@]}" build-db --out-dir "$CHAOS_DIR/db" --exact --threads 4 > /dev/null
"${CLI[@]}" gen-trace --out "$CHAOS_DIR/t.swf" --jobs 200 --seed 5 > /dev/null
REPLAY_OUT="$("${CLI[@]}" replay-online --db-dir "$CHAOS_DIR/db" \
    --trace "$CHAOS_DIR/t.swf" --servers 6 --vms 200 \
    --fault-seed 42 --fault-rate 1.0)"
echo "$REPLAY_OUT" | grep -q "faults: seed=42" \
    || { echo "chaos smoke: no faults line"; echo "$REPLAY_OUT"; exit 1; }
echo "$REPLAY_OUT" | grep -q "conservation: ok" \
    || { echo "chaos smoke: conservation violated"; echo "$REPLAY_OUT"; exit 1; }
SERVE_OUT="$("${CLI[@]}" serve --db-dir "$CHAOS_DIR/db" \
    --trace "$CHAOS_DIR/t.swf" --servers 6 --shards 2 --vms 200 \
    --fault-rate 1.0 --kill-shard 0 --kill-after 5 2>/dev/null)"
echo "$SERVE_OUT" | grep -q "conservation: ok" \
    || { echo "chaos smoke: service lost verdicts"; echo "$SERVE_OUT"; exit 1; }
echo "$SERVE_OUT" | grep -q "respawns=1" \
    || { echo "chaos smoke: shard never respawned"; echo "$SERVE_OUT"; exit 1; }

echo "==> crash-loop smoke (durable service recovery)"
# Control: a full paced run under a journal; its verdict log is the
# ground truth. Then the same run is killed mid-stream by the crash
# schedule (the process SIGABRTs after N journal appends), recovered
# from whatever hit the disk, and the reconstructed verdict log must be
# byte-identical to the control's.
"${CLI[@]}" serve --db-dir "$CHAOS_DIR/db" \
    --trace "$CHAOS_DIR/t.swf" --servers 6 --shards 2 --vms 200 \
    --paced --journal-dir "$CHAOS_DIR/ctrl" --checkpoint-every 16 \
    --verdicts-out "$CHAOS_DIR/ctrl.log" > /dev/null
test -s "$CHAOS_DIR/ctrl.log" \
    || { echo "crash-loop smoke: control wrote no verdicts"; exit 1; }
# The crashed run aborts by design: a nonzero exit here is the point.
"${CLI[@]}" serve --db-dir "$CHAOS_DIR/db" \
    --trace "$CHAOS_DIR/t.swf" --servers 6 --shards 2 --vms 200 \
    --paced --journal-dir "$CHAOS_DIR/crash" --checkpoint-every 16 \
    --crash-after-events 37 > /dev/null 2>&1 || true
test -s "$CHAOS_DIR/crash/wal.log" \
    || { echo "crash-loop smoke: crashed run left no WAL"; exit 1; }
"${CLI[@]}" recover --db-dir "$CHAOS_DIR/db" \
    --trace "$CHAOS_DIR/t.swf" --servers 6 --shards 2 --vms 200 \
    --journal-dir "$CHAOS_DIR/crash" --checkpoint-every 16 \
    --verdicts-out "$CHAOS_DIR/rec.log" > /dev/null
cmp "$CHAOS_DIR/ctrl.log" "$CHAOS_DIR/rec.log" \
    || { echo "crash-loop smoke: recovered verdict log diverged"; \
         diff "$CHAOS_DIR/ctrl.log" "$CHAOS_DIR/rec.log" | head -20; exit 1; }

echo "==> unpaced crash drill (recovery re-runs the journaled batches)"
# An unpaced run batches whatever its mailbox holds, so no control run
# can reproduce it. Recovery re-executes the journaled batches and
# checks every frame against the disk, then drives the rest of the
# trace paced: two recoveries of the same crashed journal must both
# succeed and write the same verdict log. The trace holds 72 requests,
# so a crash after 120 appends with no checkpoint yet leaves decision
# frames in the WAL that recovery must re-derive (an uncrashed run
# writes over 200).
if "${CLI[@]}" serve --db-dir "$CHAOS_DIR/db" \
    --trace "$CHAOS_DIR/t.swf" --servers 6 --shards 2 --vms 200 \
    --journal-dir "$CHAOS_DIR/unpaced" --checkpoint-every 1000 \
    --crash-after-events 120 > /dev/null 2>&1; then
    echo "unpaced crash drill: the run finished before its crash point"; exit 1
fi
test -s "$CHAOS_DIR/unpaced/wal.log" \
    || { echo "unpaced crash drill: crashed run left no WAL"; exit 1; }
for side in a b; do
    cp -r "$CHAOS_DIR/unpaced" "$CHAOS_DIR/unpaced-$side"
    UNPACED_OUT="$("${CLI[@]}" recover --db-dir "$CHAOS_DIR/db" \
        --trace "$CHAOS_DIR/t.swf" --servers 6 --shards 2 --vms 200 \
        --journal-dir "$CHAOS_DIR/unpaced-$side" --checkpoint-every 1000 \
        --verdicts-out "$CHAOS_DIR/unpaced-$side.log")" \
        || { echo "unpaced crash drill: recover $side failed"; exit 1; }
    # More frames replayed than submissions left open: some of the
    # re-executed frames were decisions checked against the disk.
    echo "$UNPACED_OUT" | awk '/^recovered / {
            for (i = 1; i <= NF; i++) { split($i, kv, "="); v[kv[1]] = kv[2] }
            ok = v["frames_replayed"] + 0 > v["resumed_inflight"] + 0
        } END { exit !ok }' \
        || { echo "unpaced crash drill: recovery verified no decision frame"; \
             echo "$UNPACED_OUT" | head -3; exit 1; }
done
cmp "$CHAOS_DIR/unpaced-a.log" "$CHAOS_DIR/unpaced-b.log" \
    || { echo "unpaced crash drill: two recoveries of one journal diverged"; \
         diff "$CHAOS_DIR/unpaced-a.log" "$CHAOS_DIR/unpaced-b.log" | head -20; exit 1; }

echo "==> consolidation crash drill (mid-sweep recovery parity)"
# Same drill with online consolidation sweeps running between
# admissions: Migrate frames are journaled *before* their moves
# execute, so a crash landing mid-sweep must recover — re-planning the
# sweep and checking it against the journaled frame — to a verdict log
# byte-identical to the uncrashed control's.
CONS_FLAGS=(--consolidate-every 50 --drain-threshold 2)
CONS_OUT="$("${CLI[@]}" serve --db-dir "$CHAOS_DIR/db" \
    --trace "$CHAOS_DIR/t.swf" --servers 8 --shards 2 --vms 200 \
    --paced --journal-dir "$CHAOS_DIR/cons-ctrl" --checkpoint-every 16 \
    "${CONS_FLAGS[@]}" --verdicts-out "$CHAOS_DIR/cons-ctrl.log")"
echo "$CONS_OUT" | grep -q "consolidation: sweeps=" \
    || { echo "consolidation drill: no sweeps ran"; echo "$CONS_OUT"; exit 1; }
"${CLI[@]}" serve --db-dir "$CHAOS_DIR/db" \
    --trace "$CHAOS_DIR/t.swf" --servers 8 --shards 2 --vms 200 \
    --paced --journal-dir "$CHAOS_DIR/cons-crash" --checkpoint-every 16 \
    "${CONS_FLAGS[@]}" --crash-after-events 53 > /dev/null 2>&1 || true
test -s "$CHAOS_DIR/cons-crash/wal.log" \
    || { echo "consolidation drill: crashed run left no WAL"; exit 1; }
"${CLI[@]}" recover --db-dir "$CHAOS_DIR/db" \
    --trace "$CHAOS_DIR/t.swf" --servers 8 --shards 2 --vms 200 \
    --journal-dir "$CHAOS_DIR/cons-crash" --checkpoint-every 16 \
    "${CONS_FLAGS[@]}" --verdicts-out "$CHAOS_DIR/cons-rec.log" > /dev/null
cmp "$CHAOS_DIR/cons-ctrl.log" "$CHAOS_DIR/cons-rec.log" \
    || { echo "consolidation drill: recovered verdict log diverged"; \
         diff "$CHAOS_DIR/cons-ctrl.log" "$CHAOS_DIR/cons-rec.log" | head -20; exit 1; }

echo "==> corruption matrix drill (scrub + degraded-mode recovery parity)"
# Four storage-fault cells, each driven back to the uncrashed control's
# verdict log byte for byte: a bit-flipped newest snapshot, a torn WAL
# tail, ENOSPC mid-run, and a crash with every fsync dropped. Scrub
# reports are seeded-deterministic: the same corruption seed on an
# identical journal copy must render the identical report.
CORR_DIR="$(mktemp -d)"
TMP_DIRS+=("$CORR_DIR")
RECOVER=("${CLI[@]}" recover --db-dir "$CHAOS_DIR/db" \
    --trace "$CHAOS_DIR/t.swf" --servers 6 --shards 2 --vms 200 \
    --checkpoint-every 16)

# Cell 1: bit-flip the newest snapshot — twice, on two identical
# copies, to pin the scrub report's determinism.
for side in a b; do
    mkdir "$CORR_DIR/flip-$side"
    cp "$CHAOS_DIR/ctrl/"* "$CORR_DIR/flip-$side/"
    "${CLI[@]}" corrupt --journal-dir "$CORR_DIR/flip-$side" \
        --kind snapshot-bit-flip --seed 9 > /dev/null
    "${CLI[@]}" scrub --journal-dir "$CORR_DIR/flip-$side" \
        > "$CORR_DIR/flip-$side.report"
done
cmp "$CORR_DIR/flip-a.report" "$CORR_DIR/flip-b.report" \
    || { echo "corruption drill: scrub report not deterministic"; \
         diff "$CORR_DIR/flip-a.report" "$CORR_DIR/flip-b.report"; exit 1; }
grep -q "quarantined=1" "$CORR_DIR/flip-a.report" \
    || { echo "corruption drill: flipped snapshot not quarantined"; \
         cat "$CORR_DIR/flip-a.report"; exit 1; }
"${RECOVER[@]}" --journal-dir "$CORR_DIR/flip-a" \
    --verdicts-out "$CORR_DIR/flip.log" > /dev/null
cmp "$CHAOS_DIR/ctrl.log" "$CORR_DIR/flip.log" \
    || { echo "corruption drill: snapshot-bit-flip cell diverged"; exit 1; }

# Cell 2: torn WAL tail — a frame header promising bytes that never
# landed. Scrub repairs the tail; a second scrub must come back clean.
mkdir "$CORR_DIR/torn"
cp "$CHAOS_DIR/ctrl/"* "$CORR_DIR/torn/"
"${CLI[@]}" corrupt --journal-dir "$CORR_DIR/torn" \
    --kind wal-torn-tail --seed 7 > /dev/null
"${CLI[@]}" scrub --journal-dir "$CORR_DIR/torn" > "$CORR_DIR/torn.report"
grep -q "torn_tails_repaired=1" "$CORR_DIR/torn.report" \
    || { echo "corruption drill: torn tail not repaired"; \
         cat "$CORR_DIR/torn.report"; exit 1; }
"${CLI[@]}" scrub --journal-dir "$CORR_DIR/torn" | grep -q "verdict: clean" \
    || { echo "corruption drill: scrub not idempotent on torn tail"; exit 1; }
"${RECOVER[@]}" --journal-dir "$CORR_DIR/torn" \
    --verdicts-out "$CORR_DIR/torn.log" > /dev/null
cmp "$CHAOS_DIR/ctrl.log" "$CORR_DIR/torn.log" \
    || { echo "corruption drill: wal-torn-tail cell diverged"; exit 1; }

# Cell 3: ENOSPC mid-checkpoint — the byte budget runs dry mid-stream,
# the service degrades (WAL-only, then read-only shed) but must still
# conserve verdicts; recovery on healthy storage re-drives the
# undecided suffix back to parity.
ENOSPC_OUT="$("${CLI[@]}" serve --db-dir "$CHAOS_DIR/db" \
    --trace "$CHAOS_DIR/t.swf" --servers 6 --shards 2 --vms 200 \
    --paced --journal-dir "$CORR_DIR/enospc" --checkpoint-every 16 \
    --storage-enospc-after 6000 --storage-fault-seed 3)"
echo "$ENOSPC_OUT" | grep -q "conservation: ok" \
    || { echo "corruption drill: ENOSPC run lost verdicts"; echo "$ENOSPC_OUT"; exit 1; }
echo "$ENOSPC_OUT" | grep -q "storage: faults-injected=" \
    || { echo "corruption drill: ENOSPC run injected no faults"; echo "$ENOSPC_OUT"; exit 1; }
"${RECOVER[@]}" --journal-dir "$CORR_DIR/enospc" --scrub \
    --verdicts-out "$CORR_DIR/enospc.log" > /dev/null
cmp "$CHAOS_DIR/ctrl.log" "$CORR_DIR/enospc.log" \
    || { echo "corruption drill: ENOSPC cell diverged"; \
         diff "$CHAOS_DIR/ctrl.log" "$CORR_DIR/enospc.log" | head -20; exit 1; }

# Cell 4: every fsync dropped, then a hard crash — the WAL bytes that
# reached the page cache must still replay to the control's log.
"${CLI[@]}" serve --db-dir "$CHAOS_DIR/db" \
    --trace "$CHAOS_DIR/t.swf" --servers 6 --shards 2 --vms 200 \
    --paced --journal-dir "$CORR_DIR/dropsync" --checkpoint-every 16 \
    --storage-drop-sync 1.0 --storage-fault-seed 11 \
    --crash-after-events 37 > /dev/null 2>&1 || true
test -s "$CORR_DIR/dropsync/wal.log" \
    || { echo "corruption drill: dropped-fsync run left no WAL"; exit 1; }
"${RECOVER[@]}" --journal-dir "$CORR_DIR/dropsync" --scrub \
    --verdicts-out "$CORR_DIR/dropsync.log" > /dev/null
cmp "$CHAOS_DIR/ctrl.log" "$CORR_DIR/dropsync.log" \
    || { echo "corruption drill: dropped-fsync cell diverged"; \
         diff "$CHAOS_DIR/ctrl.log" "$CORR_DIR/dropsync.log" | head -20; exit 1; }

echo "==> overload drill (brownout ladder + crash parity under load)"
# A dense flash crowd (5 s mean burst gap, ~5x the 4-server fleet's
# capacity) through the armed overload plane: the brownout ladder must
# shed Batch first and hold Interactive goodput at >= 90% of its
# offered load, and a crash mid-crowd must recover to the uncrashed
# control's verdict log byte for byte under the same overload flags.
OVL_DIR="$(mktemp -d)"
TMP_DIRS+=("$OVL_DIR")
OVL_FLAGS=(--queue 48 --overload --limit-max 8
           --queue-target 7200 --queue-interval 7200)
"${CLI[@]}" gen-trace --out "$OVL_DIR/crowd.swf" \
    --jobs 200 --seed 5 --burst-gap 5 > /dev/null
OVL_OUT="$("${CLI[@]}" serve --db-dir "$CHAOS_DIR/db" \
    --trace "$OVL_DIR/crowd.swf" --servers 4 --shards 2 --vms 200 \
    --paced --journal-dir "$OVL_DIR/ctrl" --checkpoint-every 16 \
    "${OVL_FLAGS[@]}" --verdicts-out "$OVL_DIR/ctrl.log")"
echo "$OVL_OUT" | grep -q "conservation: ok" \
    || { echo "overload drill: verdicts not conserved"; echo "$OVL_OUT"; exit 1; }
echo "$OVL_OUT" | awk '
    /^shed:/ {
        for (i = 1; i <= NF; i++)
            if (split($i, kv, "=") == 2 && kv[1] == "brownout-class")
                brownout = kv[2]
    }
    /^classes:/ {
        for (i = 1; i <= NF; i++)
            if (split($i, kv, "=") == 2) c[kv[1]] = kv[2]
    }
    END {
        if (brownout + 0 <= 0) {
            print "overload drill: ladder never shed (brownout-class=" brownout ")"
            exit 1
        }
        if (c["admitted-interactive"] < 0.9 * c["submitted-interactive"]) {
            print "overload drill: Interactive goodput below 90% (" \
                c["admitted-interactive"] "/" c["submitted-interactive"] ")"
            exit 1
        }
        if (c["admitted-batch"] / c["submitted-batch"] >= \
            c["admitted-interactive"] / c["submitted-interactive"]) {
            print "overload drill: Batch was not shed before Interactive"
            exit 1
        }
    }' || { echo "$OVL_OUT"; exit 1; }
"${CLI[@]}" serve --db-dir "$CHAOS_DIR/db" \
    --trace "$OVL_DIR/crowd.swf" --servers 4 --shards 2 --vms 200 \
    --paced --journal-dir "$OVL_DIR/crash" --checkpoint-every 16 \
    "${OVL_FLAGS[@]}" --crash-after-events 37 > /dev/null 2>&1 || true
test -s "$OVL_DIR/crash/wal.log" \
    || { echo "overload drill: crashed run left no WAL"; exit 1; }
"${CLI[@]}" recover --db-dir "$CHAOS_DIR/db" \
    --trace "$OVL_DIR/crowd.swf" --servers 4 --shards 2 --vms 200 \
    --journal-dir "$OVL_DIR/crash" --checkpoint-every 16 \
    "${OVL_FLAGS[@]}" --verdicts-out "$OVL_DIR/rec.log" > /dev/null
cmp "$OVL_DIR/ctrl.log" "$OVL_DIR/rec.log" \
    || { echo "overload drill: recovered verdict log diverged"; \
         diff "$OVL_DIR/ctrl.log" "$OVL_DIR/rec.log" | head -20; exit 1; }

echo "==> scenario library (byte-deterministic replays)"
# Every committed scenario must check clean and produce byte-identical
# outcome CSVs across two runs (against the exact model database the
# chaos smoke already built). Any diff fails the gate — scenarios are
# replay-critical artifacts, not examples.
SCEN_DIR="$(mktemp -d)"
TMP_DIRS+=("$SCEN_DIR")
for f in scenarios/*.eavm; do
    name="$(basename "$f" .eavm)"
    "${CLI[@]}" scenario check "$f" > /dev/null \
        || { echo "scenario library: $f failed check"; exit 1; }
    "${CLI[@]}" scenario run "$f" --db-dir "$CHAOS_DIR/db" \
        --out "$SCEN_DIR/$name.1.csv" > /dev/null 2>&1 \
        || { echo "scenario library: $f failed first run"; exit 1; }
    "${CLI[@]}" scenario run "$f" --db-dir "$CHAOS_DIR/db" \
        --out "$SCEN_DIR/$name.2.csv" > /dev/null 2>&1 \
        || { echo "scenario library: $f failed second run"; exit 1; }
    cmp "$SCEN_DIR/$name.1.csv" "$SCEN_DIR/$name.2.csv" \
        || { echo "scenario library: $f is not byte-deterministic"; \
             diff "$SCEN_DIR/$name.1.csv" "$SCEN_DIR/$name.2.csv" | head -20; exit 1; }
    echo "    $name: deterministic ($(wc -l < "$SCEN_DIR/$name.1.csv") rows)"
done

echo "CI checks passed."
