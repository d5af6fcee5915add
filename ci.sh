#!/usr/bin/env bash
# Tier-1 gate plus style/lint checks. Run from the repo root.
#
# The workspace builds fully offline: the only non-crates.io dependencies
# are the vendored std-only `proptest`/`criterion` shims under vendor/.
set -euo pipefail
cd "$(dirname "$0")"

# Prefer offline mode when the registry is unreachable; drop the flag if a
# populated cargo cache is available and you want index freshness checks.
CARGO_FLAGS=${CARGO_FLAGS:---offline}

echo "== cargo build --release =="
cargo build --workspace --release $CARGO_FLAGS

echo "== cargo test -q =="
# --workspace matters: the root manifest is both a package and a workspace,
# so a bare `cargo test` would only cover the root `greencell` crate.
cargo test -q --workspace $CARGO_FLAGS

echo "== chaos tests (fault injection) =="
cargo test -p greencell-sim --test chaos -q $CARGO_FLAGS

echo "== s1 kernel equivalence gate =="
# The incremental S1 power-control kernel must match the cold-start
# reference bit-for-bit: golden fingerprints over the seed scenario plus
# fault scenarios, and property tests probing random instances.
cargo test -p greencell-sim --test s1_kernel_equivalence -q $CARGO_FLAGS
cargo test -p greencell-core --test prop_s1_kernel -q $CARGO_FLAGS

echo "== s4 kernel equivalence gate =="
# The warm-started S4 energy kernel must match the cold-bisection oracle
# bit-for-bit: golden fingerprints plus an in-process lockstep over the
# scenario battery (faults, degradation policies, policy axes, V = 0),
# and lockstep property tests dragging stale warm state across random
# instances.
cargo test -p greencell-sim --test s4_kernel_equivalence -q $CARGO_FLAGS
cargo test -p greencell-core --test prop_s4_kernel -q $CARGO_FLAGS

echo "== pipeline equivalence gate =="
# The staged S1–S4 pipeline driver must match the frozen pre-refactor
# oracle bit-for-bit: seed scenarios, all four fault scenarios, both
# degradation policies, every policy axis, plus a property test over
# random controller configurations. The zero-alloc audit pins the
# steady-state arena discipline.
cargo test -p greencell-sim --test pipeline_equivalence -q $CARGO_FLAGS
cargo test -p greencell-core --test prop_pipeline_config -q $CARGO_FLAGS
cargo test -p greencell-core --test s1_zero_alloc -q $CARGO_FLAGS

echo "== one slot driver golden gate =="
# Fingerprints recorded before the dense and city drivers were merged:
# pruned city runs (greedy, sequential-fix, aggressive sleep, cooperation;
# 1 and 2 workers) and dense paper runs with active sleep + cooperation,
# with and without BS outages, must reproduce byte for byte.
cargo test -p greencell-sim --test one_driver -q $CARGO_FLAGS

echo "== snapshot equivalence gate =="
# Crash-safe restore: snapshot at any slot boundary, round-trip through
# the on-disk image, restore, and replay — SlotReports, RunMetrics, and
# watchdog verdicts must be bit-identical to the uninterrupted run across
# all four fault archetypes and both schedulers, and on a partitioned city
# with sleep, cooperation and outages live; corrupt/mismatched snapshot
# files must surface as typed errors. The fsio unit tests open damaged
# images of every container format (snapshot, sweep manifest, sweep
# result) and demand a typed rejection each time.
cargo test -p greencell-sim --test snapshot_equivalence -q $CARGO_FLAGS
cargo test -p greencell-sim --lib fsio -q $CARGO_FLAGS
# One container: the two-line header is formatted only in fsio.rs.
if grep -rnF --exclude=fsio.rs '\"checksum\":\"0x' crates/sim/src; then echo "container header formatted outside fsio.rs" >&2; exit 1; fi

echo "== networkstate equivalence gate =="
# Dynamic network-state layer: inert policies (never-triggering sleep,
# zero-efficiency cooperation) must replay the static default controller
# bit-for-bit across every fault archetype and on the partitioned city
# path; an aggressive city sleep policy must stay worker-count invariant.
cargo test -p greencell-sim --test networkstate_equivalence -q $CARGO_FLAGS

echo "== policy ablation gate =="
# ROADMAP-mandated ablation: at equal V, energy cooperation strictly
# reduces grid draw on a renewable-imbalanced run, BS sleeping strictly
# reduces it at low load with service continuing, and both policies stay
# watchdog-stable under all four fault archetypes.
cargo test -p greencell-sim --test policy_ablation -q $CARGO_FLAGS

echo "== sweep resume gate =="
# Resumable sweeps run the distrib work-dir protocol on worker threads:
# interrupt after k points, resume the same work dir at 1, 2 and 4
# threads, byte-compare the deterministic stability report against a
# one-shot sweep. A corrupt or edited point's result is quarantined and
# only that point recomputed; a failing sweep reports the first failure
# by submission order.
cargo test -p greencell-sim --test sweep_resume -q $CARGO_FLAGS

echo "== distributed sweep gate =="
# Multi-process work-stealing driver: the merged stability report must be
# byte-identical to the in-process engine at 1 and 3 worker processes,
# including after a worker is killed mid-sweep (its stale claim is stolen
# and the point recomputed); claim races admit exactly one owner and
# corrupt results are quarantined, requeued, and never re-read.
cargo test -p greencell-sim --test distrib_equivalence -q $CARGO_FLAGS

echo "== adaptive frontier gate =="
# The adaptive V-frontier search must reproduce a dense fixed-grid
# frontier within its max-gap tolerance using at most half the points,
# stay deterministic, and produce byte-identical maps through the
# in-process and distributed evaluation engines.
cargo test -p greencell-sim --test frontier -q $CARGO_FLAGS

echo "== city equivalence gate =="
# City scenarios run through the same slot driver as the paper: with the
# cutoff disabled a city is one part and must replay the frozen dense
# oracle bit-for-bit, a connected pruned network keeps the exact dense
# network, and pruning may only zero gains that sit below the thermal
# noise floor (property-tested over random shadowed layouts).
cargo test -p greencell-sim --test city_equivalence -q $CARGO_FLAGS
cargo test -p greencell-phy --test prop_pruning -q $CARGO_FLAGS

echo "== city determinism gate =="
# Partitioned city runs are bit-identical across worker counts and seeds
# reproduce byte-identical layouts; the steady-state partitioned slot
# allocates nothing at one worker.
cargo test -p greencell-sim --test city_determinism -q $CARGO_FLAGS
cargo test -p greencell-sim --test city_zero_alloc -q $CARGO_FLAGS

echo "== faults x city gate =="
# Every fault archetype, the chaos preset and a Markov grid chain run on a
# pruned (partitioned) city: each completes, 1 and 2 workers agree byte for
# byte, energy-starved variants drive the ladder, and the unpruned runs
# replay the frozen dense oracle. Traced city runs emit every stage span
# and engine gauge with a worker-count-invariant deterministic section.
cargo test -p greencell-sim --test city_faults -q $CARGO_FLAGS
cargo test -p greencell-sim --test city_trace -q $CARGO_FLAGS

echo "== serve smoke gate =="
# End-to-end service posture through the release binary: pipe a short
# observation feed (including a malformed line) through `greencell serve`
# twice against the same state dir; the second session must restore from
# the snapshot the first one wrote.
SERVE_DIR=$(mktemp -d)
printf '%s\n' \
  '{"renewable_w":[2.0,1.0,0.0,3.0,1.0],"grid":[true,true,false,true,true],"demand":[2,1]}' \
  'not json' \
  '{"renewable_w":[1.0,0.0,2.0,1.0,0.0],"grid":[true,true,true,true,false],"demand":[1,2]}' \
  '{"cmd":"snapshot"}' \
  '{"cmd":"stop"}' \
  | ./target/release/greencell serve --tiny --users 4 --sessions 2 \
      --state-dir "$SERVE_DIR" --status-every 1 --snapshot-every 0 \
      > "$SERVE_DIR/events1.jsonl"
grep -q '"event":"snapshot"' "$SERVE_DIR/events1.jsonl"
grep -q '"event":"reject"' "$SERVE_DIR/events1.jsonl"
printf '%s\n' '{"cmd":"status"}' '{"cmd":"stop"}' \
  | ./target/release/greencell serve --tiny --users 4 --sessions 2 \
      --state-dir "$SERVE_DIR" \
      > "$SERVE_DIR/events2.jsonl"
grep -q '"event":"start","slot":2,"restored":true' "$SERVE_DIR/events2.jsonl"
rm -rf "$SERVE_DIR"
echo "serve smoke: restore-on-startup verified"

echo "== city run smoke (release binary, n = 10^4) =="
# A 10 000-user city is partitioned by its interference clusters and never
# assembles the dense n x n network, so it runs in well under a second.
./target/release/greencell run --city 10000 --horizon 2 >/dev/null
echo "city smoke: 10^4 users stepped"

echo "== criterion benches compile =="
cargo bench --workspace --no-run -q $CARGO_FLAGS

echo "== benchmark harness compiles =="
# The frozen perfbench/ harness builds against the library API, so an API
# break fails here instead of in a benchmark run.
cargo build --release --manifest-path perfbench/Cargo.toml $CARGO_FLAGS

echo "== city_scale bench smoke (n = 10^2) =="
# Run the smallest city tier end-to-end so the scaling bench can never
# silently bit-rot; the full n ∈ {10^2..10^4} sweep (and the 10^5 XL tier)
# stays a manual `cargo bench --bench city_scale` run.
CITY_SCALE_SMOKE=1 cargo bench -p greencell-bench --bench city_scale -q $CARGO_FLAGS

echo "== frontier run-smoke (release binary) =="
# One-command frontier map on the tiny scenario through the release
# binary, evaluated by 2 worker processes (the sweep_worker sibling built
# above): the run must converge and emit both artifacts.
FRONTIER_DIR=$(mktemp -d)
./target/release/greencell frontier --tiny --horizon 10 \
  --v-min 1e4 --v-max 1e6 --max-gap 0.6 --budget 10 --init-points 3 \
  --procs 2 --out "$FRONTIER_DIR" >/dev/null
test -s "$FRONTIER_DIR/frontier.json"
test -s "$FRONTIER_DIR/frontier.csv"
grep -q '"converged": true' "$FRONTIER_DIR/frontier.json"
rm -rf "$FRONTIER_DIR"
echo "frontier smoke: converged map written"

echo "== trace determinism gate =="
# Short paper-scenario traced run. --check re-parses the chrome-trace JSON
# with the workspace's strict parser and byte-compares the deterministic
# trace section across 1 vs 4 workers.
cargo run --release -q -p greencell-sim --bin trace_run $CARGO_FLAGS -- \
  --horizon 20 --workers 4 --check --out results >/dev/null

echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q $CARGO_FLAGS

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --workspace -- -D warnings =="
cargo clippy --workspace $CARGO_FLAGS -- -D warnings

echo "== cargo clippy (no unwrap in core/sim/trace/phy library code) =="
# Library and binary targets only: test code may unwrap freely, the
# controller/simulator/tracing/power-control production path must not.
# greencell-core's audit covers every module on the per-slot control path:
# controller, pipeline (stage registry + fallback ladder), s1–s4, dpp
# (drift constants), netstate (the sleep/cooperation machine), and
# lower_bound (the relaxed P̄3 controller).
cargo clippy -p greencell-core -p greencell-sim -p greencell-trace \
  -p greencell-phy --lib --bins $CARGO_FLAGS -- \
  -D warnings -D clippy::unwrap_used

echo "ci: all checks passed"
