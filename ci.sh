#!/usr/bin/env bash
# Hermetic CI: everything below must pass with the network disabled.
# The workspace has zero external dependencies (see DESIGN.md, "Hermetic
# build"), so --offline is not a restriction — it is the point.
set -euo pipefail
cd "$(dirname "$0")"

# Zero-warning policy for the whole workspace: -Dwarnings turns any
# warning in the release build into a hard error.
RUSTFLAGS="-D warnings" cargo build --release --offline --workspace

# The morsel-driven executor must be invariant under the worker count:
# the whole suite runs serial and again with an 8-thread pool (the env
# var is read once per process, so each setting needs its own run).
PROBKB_THREADS=1 cargo test -q --offline --workspace
PROBKB_THREADS=8 cargo test -q --offline --workspace

# The cost-based planner must be invariant in results: the whole suite
# runs with the optimizer forced off (the unoptimized differential
# oracle) and forced on. Same one-read-per-process caveat as above.
PROBKB_OPTIMIZE=0 cargo test -q --offline --workspace
PROBKB_OPTIMIZE=1 cargo test -q --offline --workspace

# Every Gibbs run (batch expansion, blanket-scoped apply_delta resampling,
# query-time local inference) goes through the one partitioned sampler,
# which must be invariant under its own worker pool: marginals, chain
# states, diagnostics, and R̂ early stops are a pure function of
# (seed, chains) at any PROBKB_GIBBS_WORKERS setting.
PROBKB_GIBBS_WORKERS=1 cargo test -q --offline --workspace
PROBKB_GIBBS_WORKERS=4 cargo test -q --offline --workspace

# Out-of-core storage must be invisible to results: the whole suite runs
# once more with every catalog forced through a hard-capped buffer pool
# (64 pages = 512 KiB) and an aggressive spill threshold, so every table
# larger than 256 rows lives in buffer-managed pages. Any divergence
# between paged and in-memory execution fails the normal assertions.
PROBKB_BUFFER_PAGES=64 PROBKB_SPILL_ROWS=256 cargo test -q --offline --workspace

# Out-of-core grounding smoke: the acceptance harness grounds the same
# KB in memory and through a capped pool and asserts byte-identity of
# facts, factors, and the derivation schedule.
cargo run --release --offline -p probkb-bench --bin outofcore -- --scale 0.02 --pool 64

# Benches (including the join thread-scaling sweep and the out-of-core
# pool sweep) must stay compiling.
cargo bench --offline --no-run --workspace

# Gibbs bench smoke: the sampler sweep and the convergence-control
# comparison (fixed vs R̂-stopped) must run end to end; MICROBENCH_SAMPLES
# keeps it to a smoke pass.
MICROBENCH_SAMPLES=1 cargo bench --offline -p probkb-bench --bench gibbs
cargo run --release --offline -p probkb-bench --bin table2

# Incremental-expansion bench smoke: apply_delta must stay byte-identical
# to the full re-ground oracle (the bench asserts the fingerprints match)
# and the blanket-scoped re-inference path must run end to end. The
# incremental test suites themselves (incremental_differential,
# incremental_inference, incremental_durability, incremental_stats) ride
# in the --workspace test matrix above.
MICROBENCH_SAMPLES=1 cargo bench --offline -p probkb-bench --bench delta

# Local-grounding differential (DESIGN.md, "Local grounding"): answers
# from the budgeted backward-chaining grounder must match the global
# pipeline on every budget-covered fact, and truncated answers must
# honor the budget shape contract. The suite reads PROBKB_LOCAL_BUDGET
# per answer, so it runs once starved (4 nodes/4 factors — almost every
# component truncates) and once unlimited (every component covered; the
# unset default also rides in the --workspace matrix above).
PROBKB_LOCAL_BUDGET=4 cargo test -q --offline --test local_grounding
PROBKB_LOCAL_BUDGET=100000,100000 cargo test -q --offline --test local_grounding

# Local-grounding bench smoke: time-to-first-marginal for one query,
# budgeted local path vs full expand, must run end to end (the ≥50x
# acceptance numbers live in EXPERIMENTS.md).
MICROBENCH_SAMPLES=1 cargo bench --offline -p probkb-bench --bench local

# Join-order microbench: the statistics-driven planner must beat the
# worst-case left-deep order on the skewed workload (the binary asserts
# both plans agree on output size; see EXPERIMENTS.md for numbers).
cargo run --release --offline -p probkb-bench --bin join_order

# Durability smoke (DESIGN.md, "Durability"): a run killed mid-grounding
# must resume at the last completed iteration and produce an export
# byte-identical to an uninterrupted run.
rm -rf target/ci-ckpt-full target/ci-ckpt-crash
PROBKB_CKPT_DIR=target/ci-ckpt-full \
  cargo run --release --offline --example checkpoint_resume
set +e
PROBKB_CKPT_DIR=target/ci-ckpt-crash PROBKB_CRASH_AFTER_ITER=4 \
  cargo run --release --offline --example checkpoint_resume
crash_status=$?
set -e
if [ "$crash_status" -ne 86 ]; then
  echo "ci: expected injected-crash exit code 86, got $crash_status" >&2
  exit 1
fi
PROBKB_CKPT_DIR=target/ci-ckpt-crash \
  cargo run --release --offline --example checkpoint_resume
cmp target/ci-ckpt-full/export.pkb target/ci-ckpt-crash/export.pkb

# Client/server smoke (DESIGN.md, "Client/server architecture"): start
# probkb-server on the Table-2 synthetic KB at smoke scale, drive it with
# probkb-cli one-shots over the real wire protocol, and shut it down
# gracefully through the protocol — zero external dependencies.
server_log=target/ci-server.log
rm -f "$server_log"
cargo run --release --offline -p probkb-server -- \
  --reverb-scale 0.002 --addr 127.0.0.1:0 --burn-in 50 --samples 300 \
  > "$server_log" 2>&1 &
server_pid=$!
for _ in $(seq 1 300); do
  grep -q "probkb-server listening on" "$server_log" && break
  if ! kill -0 "$server_pid" 2>/dev/null; then
    echo "ci: probkb-server died during startup" >&2; cat "$server_log" >&2; exit 1
  fi
  sleep 0.2
done
addr=$(sed -n 's/^probkb-server listening on \([0-9.:]*\) .*/\1/p' "$server_log")
if [ -z "$addr" ]; then
  echo "ci: could not parse server address" >&2; cat "$server_log" >&2; exit 1
fi
cli() { cargo run --release --offline -q -p probkb-client-cli -- --addr "$addr" "$@"; }
cli ping               | grep -q "^PONG epoch=0 protocol=1"
cli stats              | grep -q "^epoch=0 facts="
cli fact --id 0        | grep -q "^epoch=0 \[extracted, P="
cli marginal --id 0    | grep -q "source=stored"
# MARGINAL_LOCAL over the wire: budgeted local grounding served from a
# read session, twice so the second answer comes from the epoch cache.
cli marginal --id 0 --local --budget 64,256 | grep -q "frontier_stops="
cli marginal --id 0 --local --budget 64,256 | grep -q "cache=hit"
cli apply 'fact 0.80 smoke_rel(sx:smokeC, sy:smokeC)' | grep -q "^applied: epoch=1"
cli fact smoke_rel sx sy | grep -q "^epoch=1 \[extracted, P=0.8000\]"
# Retraction is a structured, non-fatal unsupported error (cli exits 1).
retract_out=$(cli retract 'fact 0.80 smoke_rel(sx:smokeC, sy:smokeC)' 2>&1 || true)
echo "$retract_out" | grep -q "retract is not supported"
cli shutdown           | grep -q "server shutting down at epoch=1"
wait "$server_pid"
grep -q "graceful shutdown complete" "$server_log"

echo "ci: all green"
