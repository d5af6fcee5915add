#!/usr/bin/env bash
# Tier-1 gate plus style/lint checks. Run from the repo root.
#
# The workspace builds fully offline: the only non-crates.io dependency is
# the vendored std-only `proptest` shim under vendor/. Performance is
# measured by one harness, the perfbench/ package that BENCHMARK.json
# declares; this script only builds it and smoke-runs its workloads.
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

echo "== s1 power lockstep gate =="
# The S1 kernels and the references (full sort, Foschini-Miljanic
# iteration per probe) run on the same random instances with 2-5 bands,
# repeated bandwidths and backlogs (id tiebreaks), fault masks and zero
# noise, and on crowded ones with 6-64 bands. The kernels take their
# candidates from one frontier grouped by transmitter: one key per link,
# built for the link's head band, which a per-slot memo keyed by the
# link's whole band mask supplies (64 entries, direct-mapped; a link whose
# H_ij or a slot whose packet counts fall outside the memo's exactness
# range scans its bands instead). Each transmitter's keys are one range
# and a heap orders the ranges' minima; a group whose transmitter turned
# busy leaves whole, a key whose receiver turned busy is dropped when its
# group is rescanned, and a rejected link's next band (one scan of its
# bands) takes its key's place. Crowded instances must drop a key for a
# busy receiver, re-offer a band behind its group's minimum and empty a
# group through a link with no band left, and the many-band ones must
# overflow the memo. They probe with one exact M-matrix solve held as one
# block per band (links on different bands never interfere): each band
# keeps an ascending list of its links, and the LU factors of its
# accepted links are bordered by one row and column per probe on it, in
# flat row-major buffers, so a probe walks only its band. Identical
# schedules wherever no reference probe ran out of sweeps, powers within
# 1e-9 relative, and constraint (24) with the caps on every kernel
# outcome; the direct solve must match the iteration wherever the
# iteration converges. The phy unit tests run random probe, push-push-
# solve, pop and clear sequences on crowded instances with 6-64 bands:
# each band's factors bit-equal to a from-scratch elimination of its
# sub-system, verdicts and powers bit-equal to the whole-system
# elimination, row sums bit-equal to a recount in push order after any
# push/pop history, and every reject reason reached (noise floor, row sums,
# pivot, a cap on the new link, a cap on a held one); the s1 unit tests
# hold the memo head
# bit-equal to the band scan and the scan to the per-band minimum, the
# one-scan next band bit-equal to a filter-and-min over the link's keys,
# and the frontier's pops equal to a full sort filtered by random busy
# marks. The net unit tests cover the band-mask bits the memo keys on.
cargo test -p greencell-core --test prop_s1_kernel -q $CARGO_FLAGS
cargo test -p greencell-core --lib s1:: -q $CARGO_FLAGS
cargo test -p greencell-phy --test prop_phy -q $CARGO_FLAGS
cargo test -p greencell-phy --lib workspace -q $CARGO_FLAGS
cargo test -p greencell-net --lib spectrum -q $CARGO_FLAGS

echo "== s4 sweep lockstep gate =="
# The S4 breakpoint sweep and the bisection reference run on the same
# input on every coupled S4 solve (the base stations'; users answer at
# price 0 on their parts): through the live pipeline over the scenario
# battery (faults, strict degradation, one-hop, grid-only, V = 0), and on
# random instances (unit and paper scale, lossy batteries, deficits,
# V = 0). Errors must be identical, grid draw and objective within 1e-9
# relative, and per-node modes equal wherever the reference's two mode
# objectives differ by more than EPS. The per-node modes (three
# compare-exchanges for the discharge order, one objective evaluation per
# charge candidate) must give their sort_by/min_by oracles' solutions bit
# for bit, with z = ±0, lossy batteries, zero demand or g_max, and ties.
cargo test -p greencell-sim --test s4_kernel_equivalence -q $CARGO_FLAGS \
  sweep_matches_reference_in_lockstep_on_every_scenario
cargo test -p greencell-core --test prop_s4_kernel -q $CARGO_FLAGS \
  sweep_matches_reference_in_lockstep
cargo test -p greencell-core --lib s4::tests::modes_match -q $CARGO_FLAGS

echo "== s3 routing lockstep gate =="
# The S3 kernel (phase 1 from each session's backlogged senders, the link
# into the destination found by binary search; phase 2 sender by sender,
# candidates pushed into a heap link by link and popped while the top's
# (w, s) is at most the floor bound B = min (-Q^s_i, s) over the sessions
# with backlog left, B recomputed on a drain, the scan stopped when none is
# left; a link skipped exactly when -q_max + beta*H_ij >= 0) and the
# reference (every link per session in phase 1, one global candidate sort)
# run on the same random instances: 1-6 sessions, often two with one
# destination, tied coefficients, senders the greedy runs dry, phase-1
# deliveries that exhaust a cap, down nodes under both relay policies,
# floor candidates applied mid-scan or capped below the backlog, equal
# floors at one sender, drains that raise B, backlogged senders with no
# link into the destination, and a family at the prune's edge (beta*H_ij
# one ulp below, at or above a sender's largest backlog, or infinite, at
# senders with sessions of unequal backlog). The kernel's flows must equal
# the reference's non-zero entries exactly; debug builds also check that
# no pruned link had a negative coefficient and no pushed candidate lay
# below its floor. The s3 unit tests check the heap's pop order against a
# sort, the binary-search lookup against a scan, and how many out-links
# the bound lets a sender scan.
cargo test -p greencell-core --test prop_s3_kernel -q $CARGO_FLAGS
cargo test -p greencell-core --lib s3 -q $CARGO_FLAGS

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
# the simplex on random multigraphs, small and paper-sized (22 nodes,
# 200-350 edges), and return half-integral vertices. Its single-scan
# Hungarian (one scan of the off-tree columns per step, the previous
# step's minv reduction folded in) and one-pass collapse must give the
# two-pass oracle's assignments, potentials and activations bit for bit.
cargo test -p greencell-sim --test lower_bound_golden -q $CARGO_FLAGS
cargo test -p greencell-lp --test prop_matching -q $CARGO_FLAGS
cargo test -p greencell-lp --lib matching -q $CARGO_FLAGS

echo "== snapshot equivalence gate =="
# Crash-safe restore: snapshot at any slot boundary, round-trip through
# the on-disk image, restore, and replay — SlotReports, RunMetrics, and
# watchdog verdicts must be bit-identical to the uninterrupted run across
# all four fault archetypes and both schedulers, and on a partitioned city
# with sleep, cooperation and outages live; corrupt/mismatched snapshot
# files, and checksummed ones with impossible battery fields, must surface
# as typed errors. Byte identity: the one-pass encoder must reproduce the
# golden images under crates/sim/tests/golden/snapshot_v2/ (a tiny run with
# every payload section, a partitioned city) byte for byte, fresh and after
# parse -> restore -> snapshot (the resume unit tests, run with the
# workspace above, re-encode each checked-in sweep result under
# golden/resume_v1/results to its exact bytes). The fsio unit tests open
# damaged images of every container format (snapshot, sweep result) and
# demand a typed rejection each time; the JSON reader's run-scanning string
# reader must give its per-character oracle's exact value or error.
cargo test -p greencell-sim --test snapshot_equivalence -q $CARGO_FLAGS
cargo test -p greencell-sim --lib fsio -q $CARGO_FLAGS
cargo test -p greencell-trace --lib json -q $CARGO_FLAGS
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
# Partitioned city runs are bit-identical at 1, 2, 3 and 4 workers and at
# 5 workers on a city with fewer parts than that (the fan-out caps its
# threads at the part count for the per-part pass — S1–S3 and the part's
# energy step: shifted levels, demands and every non-BS node's S4 answer —
# and for the per-part advance with its battery update), and seeds
# reproduce byte-identical layouts; the steady-state partitioned slot
# allocates nothing at one worker. The split S4 lockstep: on random
# multi-part instances (base stations and users interleaved, some users in
# no part, deficits at users and base stations in either order, lossy
# batteries, V = 0, all three built-in stages) the parts' answers composed
# with the coupled base-station solve must equal the monolithic
# whole-network solve bit for bit, errors and their nodes included.
cargo test -p greencell-sim --test city_determinism -q $CARGO_FLAGS
cargo test -p greencell-sim --test city_zero_alloc -q $CARGO_FLAGS
cargo test -p greencell-core --lib energy:: -q $CARGO_FLAGS
# One fan-out: scoped threads start only in `fan_out` in partition.rs.
if grep -rn 'thread::scope' crates/*/src src | grep -v '^crates/core/src/partition.rs:'; then
  echo "thread::scope outside the fan-out in crates/core/src/partition.rs" >&2; exit 1
fi

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
# `greencell faults` takes greencell's flags: an unparseable or surplus
# argument is a usage error (exit 2), and nothing runs or is written.
for args in "faults --seed 7x" "faults extra"; do
  status=0
  (cd "$ARGV_DIR" && "$GREENCELL_BIN" $args </dev/null >/dev/null 2>err.txt) || status=$?
  if [ "$status" -ne 2 ]; then
    echo "greencell $args: expected exit 2, got $status" >&2; exit 1
  fi
  if grep -q 'panicked' "$ARGV_DIR/err.txt" || ! grep -q '^error:' "$ARGV_DIR/err.txt"; then
    echo "greencell $args: expected a typed error, got:" >&2
    cat "$ARGV_DIR/err.txt" >&2; exit 1
  fi
  if [ -e "$ARGV_DIR/results" ]; then
    echo "greencell $args: wrote results despite a usage error" >&2; exit 1
  fi
done
rm -rf "$ARGV_DIR"
# A reader that closes stdout first (`greencell run | head -1`) ends the
# command with status 0, no panic and no error line: `run`, `fig2a` and
# `faults`, 20 times each, with the pipe's read end closed before any
# write; `faults` with a plain file where results/ belongs exits 1 with an
# `error:` line.
cargo test --test cli_pipe -q $CARGO_FLAGS
echo "argv smoke: unrunnable settings and bad faults arguments are typed errors; a closed stdout exits 0"

echo "== benchmark harness compiles =="
# The frozen perfbench/ harness builds against the library API, so an API
# break fails here instead of in a benchmark run. --locked: an edit to a
# crate it depends on (greencell-bench's fixtures above all) that would
# rewrite perfbench/Cargo.lock fails here.
cargo build --release --locked --manifest-path perfbench/Cargo.toml $CARGO_FLAGS

echo "== perfbench smoke (every workload, 1 s) =="
# One short run of each workload: perfbench exits non-zero when an output
# check fails (repeated episodes' fingerprints, 1- vs 2-worker agreement,
# a bounded backlog, the serve session's restore, Theorem 5's bound below
# the cost). Run in a scratch dir, since the serve workload keeps its state
# under the working directory.
PERFBENCH_BIN="$PWD/perfbench/target/release/perfbench"
BENCH_DIR=$(mktemp -d)
for workload in paper sweep_lb city serve; do
  if ! (cd "$BENCH_DIR" && "$PERFBENCH_BIN" --workload "$workload" --seed 7 --seconds 1 \
      --trace 0 >/dev/null); then
    echo "perfbench --workload $workload: an output check failed" >&2; exit 1
  fi
done
rm -rf "$BENCH_DIR"
echo "perfbench smoke: paper, sweep_lb, city and serve pass their output checks"

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
# Tiny runs of every figure action and the fault sweep through the release
# binary: the figure CSVs land under --out, the sweep telemetry and the
# fault sweep's stability record under results/ of the working directory
# (a scratch dir here, so the checked-in telemetry is untouched).
FIG_DIR=$(mktemp -d)
for action in fig2a fig2bc fig2de fig2f; do
  (cd "$FIG_DIR" && "$GREENCELL_BIN" $action --tiny --horizon 5 --v-values 1e5,2e5 \
    --out "$FIG_DIR" >/dev/null)
  test -s "$FIG_DIR/results/${action}_telemetry.json"
done
for csv in fig2a fig2b fig2c fig2d fig2e fig2f; do
  test -s "$FIG_DIR/$csv.csv"
done
test -s "$FIG_DIR/results/fig2f_telemetry.csv"
(cd "$FIG_DIR" && "$GREENCELL_BIN" faults --tiny --horizon 5 >/dev/null)
test -s "$FIG_DIR/results/fault_sweep_stability.json"
rm -rf "$FIG_DIR"
echo "figure smoke: fig2a-f CSVs, fig2f telemetry and the fault stability record written"

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

echo "== cargo clippy (no unwrap in library code) =="
# Library and binary targets only: test code may unwrap freely, the
# library must not. The gate holds every library crate: the controller
# (greencell-core: controller, pipeline with the S4 energy stages and the
# fallback ladder rungs, s1–s4, dpp, netstate, lower_bound), the simulator,
# tracing, power control, and the energy, LP, network, queue, stochastic
# and units substrate under them.
cargo clippy -p greencell-core -p greencell-sim -p greencell-trace \
  -p greencell-phy -p greencell-energy -p greencell-lp -p greencell-net \
  -p greencell-queue -p greencell-stochastic -p greencell-units \
  --lib --bins $CARGO_FLAGS -- \
  -D warnings -D clippy::unwrap_used

echo "ci: all checks passed"
