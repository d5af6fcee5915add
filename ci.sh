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
# The incremental S1 power-control kernel, fed by the per-link key merge,
# must match the cold-start, fully sorted reference bit-for-bit: golden
# fingerprints over the seed scenario plus fault scenarios, and property
# tests probing random instances with 2-5 bands, repeated bandwidths and
# backlogs (id tiebreaks), some of which schedule a link off its best band.
cargo test -p greencell-sim --test s1_kernel_equivalence -q $CARGO_FLAGS
cargo test -p greencell-core --test prop_s1_kernel -q $CARGO_FLAGS

echo "== s4 sweep lockstep gate =="
# The S4 breakpoint sweep and the bisection reference run on the same
# input on every S4 solve: through the live pipeline over the scenario
# battery (faults, strict degradation, one-hop, grid-only, V = 0), and on
# random instances (unit and paper scale, lossy batteries, deficits,
# V = 0). Errors must be identical, grid draw and objective within 1e-9
# relative, and per-node modes equal wherever the reference's two mode
# objectives differ by more than EPS.
cargo test -p greencell-sim --test s4_kernel_equivalence -q $CARGO_FLAGS \
  sweep_matches_reference_in_lockstep_on_every_scenario
cargo test -p greencell-core --test prop_s4_kernel -q $CARGO_FLAGS \
  sweep_matches_reference_in_lockstep

echo "== slot driver golden gate =="
# Fingerprints recorded in lockstep with the pre-pipeline controller: seed
# scenarios, all four fault scenarios under both degradation policies,
# chaos, every policy axis, the unpruned city cells, energy-starved runs
# and a 48-case grid of controller configurations must reproduce byte for
# byte, and every rung of the degradation ladder (shed, grid-only
# fallback, drop schedule, safe mode) must fire, as must the strict
# policy's abort. The zero-alloc audit pins the steady-state arena
# discipline.
cargo test -p greencell-sim --test driver_golden -q $CARGO_FLAGS
cargo test -p greencell-core --test s1_zero_alloc -q $CARGO_FLAGS

echo "== one slot driver golden gate =="
# Fingerprints recorded before the dense and city drivers were merged:
# pruned city runs (greedy, sequential-fix, aggressive sleep, cooperation;
# 1 and 2 workers) and dense paper runs with active sleep + cooperation,
# with and without BS outages, must reproduce byte for byte.
cargo test -p greencell-sim --test one_driver -q $CARGO_FLAGS

echo "== lower bound gate =="
# The relaxed P̄3 controller behind Theorem 5's bound: recorded relaxed
# cost series, relaxed admissions and bounds over the paper and tiny
# seeds, the four fault archetypes, sleep + cooperation and sweep_lb-shaped
# points must reproduce (the exact controller's outputs ride along), and
# on every slot of that battery the relaxed S1's activations must reach
# the dense simplex's objective. The fractional matching solver must match
# the simplex on random multigraphs and return half-integral vertices.
cargo test -p greencell-sim --test lower_bound_golden -q $CARGO_FLAGS
cargo test -p greencell-lp --test prop_matching -q $CARGO_FLAGS

echo "== snapshot equivalence gate =="
# Crash-safe restore: snapshot at any slot boundary, round-trip through
# the on-disk image, restore, and replay — SlotReports, RunMetrics, and
# watchdog verdicts must be bit-identical to the uninterrupted run across
# all four fault archetypes and both schedulers, and on a partitioned city
# with sleep, cooperation and outages live; corrupt/mismatched snapshot
# files must surface as typed errors. The fsio unit tests open damaged
# images of every container format (snapshot, sweep result) and demand a
# typed rejection each time.
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
# Checkpointed sweeps persist each point's result as it lands: interrupt
# after k points, resume the same work dir at 1, 2 and 4 threads,
# byte-compare the deterministic stability report against a one-shot
# sweep. A corrupt or edited point's result is quarantined and only that
# point recomputed; a failing sweep reports the first failure by
# submission order; a finished work dir, including one written by the
# earlier work-queue driver, resumes without recomputing anything.
cargo test -p greencell-sim --test sweep_resume -q $CARGO_FLAGS

echo "== adaptive frontier gate =="
# The adaptive V-frontier search must reproduce a dense fixed-grid
# frontier within its max-gap tolerance using at most half the points,
# stay deterministic, and produce byte-identical maps at 1 and 3 sweep
# threads.
cargo test -p greencell-sim --test frontier -q $CARGO_FLAGS

echo "== city equivalence gate =="
# City scenarios run through the same slot driver as the paper: a
# connected pruned network keeps the exact dense network, a decomposed
# city runs cleanly over its clusters, and pruning may only zero gains
# that sit below the thermal noise floor (property-tested over random
# shadowed layouts). Unpruned cities are pinned by the driver golden.
cargo test -p greencell-sim --test city_equivalence -q $CARGO_FLAGS
cargo test -p greencell-phy --test prop_pruning -q $CARGO_FLAGS

echo "== city determinism gate =="
# Partitioned city runs are bit-identical at 1, 2, 3 and 4 workers (3
# over a part count it does not divide, so the per-part S1–S3 solves and
# the per-part queue advance and Lyapunov terms run on uneven chunks), and
# seeds reproduce byte-identical layouts; the steady-state partitioned
# slot allocates nothing at one worker.
cargo test -p greencell-sim --test city_determinism -q $CARGO_FLAGS
cargo test -p greencell-sim --test city_zero_alloc -q $CARGO_FLAGS

echo "== faults x city gate =="
# Every fault archetype, the chaos preset and a Markov grid chain run on a
# pruned (partitioned) city: each completes, 1 and 2 workers agree byte for
# byte, and energy-starved variants drive the ladder (the unpruned cells
# are pinned by the driver golden). Traced city runs emit every stage span
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

echo "== serve stdin never panics (release binary) =="
# One stdin line nested 50 000 levels deep is a typed reject, not a stack
# overflow: the JSON parser caps nesting, so the session exits 0.
DEEP_DIR=$(mktemp -d)
{ head -c 50000 /dev/zero | tr '\0' '['; head -c 50000 /dev/zero | tr '\0' ']'; echo; } \
  | ./target/release/greencell serve --tiny --state-dir "$DEEP_DIR/state" \
      > "$DEEP_DIR/events.jsonl" 2> "$DEEP_DIR/err.txt"
grep -q '"event":"reject"' "$DEEP_DIR/events.jsonl"
if grep -q 'panicked' "$DEEP_DIR/err.txt"; then cat "$DEEP_DIR/err.txt" >&2; exit 1; fi
rm -rf "$DEEP_DIR"
echo "serve stdin smoke: a deeply nested line is rejected"

echo "== city run smoke (release binary, n = 10^4) =="
# A 10 000-user city is partitioned by its interference clusters, and the
# relaxed lower-bound controller runs on the same parts, so neither run
# assembles the dense n x n network; the tracked run steps under an 8 GB
# address-space cap.
./target/release/greencell run --city 10000 --horizon 2 >/dev/null
(ulimit -v 8000000 && ./target/release/greencell run --city 10000 --horizon 2 \
  --track-lower-bound >/dev/null)
echo "city smoke: 10^4 users stepped, with and without the lower bound"

echo "== argv never panics (release binary) =="
# Settings the simulator cannot run (V = 0 with the lower bound tracked, a
# NaN tariff multiplier, an infinite V or λ) are typed configuration
# errors: each command
# exits non-zero with an `error:` line on stderr and never panics. Run in a
# scratch dir so nothing lands under the checked-in results/.
GREENCELL_BIN="$PWD/target/release/greencell"
ARGV_DIR=$(mktemp -d)
for args in "run --v 0 --horizon 3 --track-lower-bound" \
  "fig2a --tiny --horizon 3 --v-values 0" "run --tou nan" "serve --tiny --tou nan" \
  "run --v inf --horizon 3" "fig2a --tiny --horizon 3 --v-values inf" \
  "run --lambda inf --horizon 3"; do
  if (cd "$ARGV_DIR" && "$GREENCELL_BIN" $args </dev/null >/dev/null 2>err.txt); then
    echo "greencell $args: expected a non-zero exit" >&2; exit 1
  fi
  if grep -q 'panicked' "$ARGV_DIR/err.txt" || ! grep -q '^error:' "$ARGV_DIR/err.txt"; then
    echo "greencell $args: expected a typed error, got:" >&2
    cat "$ARGV_DIR/err.txt" >&2; exit 1
  fi
done
rm -rf "$ARGV_DIR"
echo "argv smoke: unrunnable settings are typed errors"

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
# binary, its rounds fanned across 2 sweep threads: the run must converge
# and emit both artifacts.
FRONTIER_DIR=$(mktemp -d)
GREENCELL_THREADS=2 ./target/release/greencell frontier --tiny --horizon 10 \
  --v-min 1e4 --v-max 1e6 --max-gap 0.6 --budget 10 --init-points 3 \
  --out "$FRONTIER_DIR" >/dev/null
test -s "$FRONTIER_DIR/frontier.json"
test -s "$FRONTIER_DIR/frontier.csv"
grep -q '"converged": true' "$FRONTIER_DIR/frontier.json"
rm -rf "$FRONTIER_DIR"
echo "frontier smoke: converged map written"

echo "== figure run-smoke (release binary) =="
# A tiny Fig. 2(a) sweep through the release binary: the bounds CSV lands
# under --out and the sweep telemetry under results/ of the working
# directory (a scratch dir here, so the checked-in telemetry is untouched).
FIG_DIR=$(mktemp -d)
(cd "$FIG_DIR" && "$GREENCELL_BIN" fig2a --tiny --horizon 5 --v-values 1e5,2e5 \
  --out "$FIG_DIR" >/dev/null)
test -s "$FIG_DIR/fig2a.csv"
test -s "$FIG_DIR/results/fig2a_telemetry.json"
rm -rf "$FIG_DIR"
echo "figure smoke: fig2a.csv and telemetry written"

echo "== trace determinism gate =="
# Short paper-scenario traced run (the scenario and its seed+1 twin).
# --check re-parses the chrome-trace JSON with the workspace's strict
# parser and byte-compares the deterministic trace section across 1 vs 4
# workers; a violation exits non-zero.
./target/release/greencell trace --horizon 20 --check --out results >/dev/null

echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q $CARGO_FLAGS

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets $CARGO_FLAGS -- -D warnings

echo "== cargo clippy (no unwrap in core/sim/trace/phy library code) =="
# Library and binary targets only: test code may unwrap freely, the
# controller/simulator/tracing/power-control production path must not.
# greencell-core's audit covers every module on the per-slot control path:
# controller, pipeline (S4 energy stages + fallback ladder rungs), s1–s4, dpp
# (drift constants), netstate (the sleep/cooperation machine), and
# lower_bound (the relaxed P̄3 controller).
cargo clippy -p greencell-core -p greencell-sim -p greencell-trace \
  -p greencell-phy --lib --bins $CARGO_FLAGS -- \
  -D warnings -D clippy::unwrap_used

echo "ci: all checks passed"
