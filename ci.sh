#!/usr/bin/env bash
# Local mirror of the CI pipeline (.github/workflows/ci.yml):
# formatting, lints, release build, and the full test suite.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test =="
cargo test --workspace -q

echo "== thread pool unit tests (blocking) =="
# The pool underpins every parallel path; its invariants (serial
# fallback, panic propagation, deterministic chunking) are a hard gate.
cargo test --release -p rhb-par -q

echo "== perfbench attack run + int8 floors (blocking) =="
# One traced run of the repository benchmark's attack workload
# (perfbench/README.md). A failed correctness or determinism check
# exits non-zero and fails the step. Two ratio floors, each taken
# inside this one run, must then hold: the serial 192^3 int8 GEMM at
# least 2x faster than f32, and whole-model int8 eval at least 1.5x
# faster than f32. A missing or malformed line fails too.
cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
  --workload attack --seed 41 --seconds 1 --trace 1 | tee ci_perfbench.txt
./ci_floors.sh ci_perfbench.txt

echo "== int8 parity suite (blocking) =="
# The int8 engine must match the fake-quant f32 reference — exact logits
# across thread counts, argmax parity on deployed models — both with the
# pool forced serial and at the default thread count.
RHB_THREADS=1 cargo test --release -p rhb-nn --test int8_parity -q
cargo test --release -p rhb-nn --test int8_parity -q

echo "== CFT exactness (blocking) =="
# CFT computes only the gradients Algorithm 1 reads. Its result must
# stay bit-identical to computing them all: a CFT+BR run must hash to
# the golden constant at pool sizes 1 and 4, and a backward with any
# requires_grad subset must give the exact input gradient and the exact
# gradients of the parameters that require them.
cargo test --release -p rhb-core --test cft_golden
cargo test --release -p rhb-nn --test grad_needs

echo "== int8 eval floor across pool sizes (blocking) =="
# perfbench times evaluation at one thread only. This wall-clock test
# requires int8 eval to be no slower than f32 eval at pool sizes 1, 2
# and 4 (the batch-parallel dispatch regression BATCH_PAR_MIN_FLOPS
# fixed, see DESIGN.md).
cargo test --release -p rhb-bench --test int8_floor -- --ignored

echo "== observability smoke (blocking) =="
# Run the observable attack driver with the live endpoint enabled and
# validate it mid-attack: /status must carry the phase/health/ledger
# schema and /metrics must be well-formed Prometheus text containing
# the ETA gauge, pool utilization, and per-layer eval timing families
# (rhb-report watch --check exits non-zero otherwise). The driver must
# also exit cleanly after the endpoint is torn down.
RHB_OBS_ADDR=127.0.0.1:9184 RHB_TELEMETRY=off \
  cargo run --release -p rhb-bench --bin exp_backdoor_online -- \
  --runs 2 --min-seconds 8 &
OBS_PID=$!
sleep 4
cargo run --release -p rhb-bench --bin rhb-report -- watch 127.0.0.1:9184 --once --check
wait "$OBS_PID"

echo "== chaos smoke + flight recorder gate (blocking) =="
# One seeded fault-injection run with the flight recorder on: at a 20%
# fault rate the pipeline must degrade gracefully (never fail outright)
# and recover at least one target through retries/fallbacks. The
# recorded timeline must then replay (`rhb-report timeline`) and the
# post-mortem must find at least one fired stall/recovery/downgrade
# alert (`--require-alert` exits 1 otherwise). Deterministic chaos RNG
# and a final end-of-run snapshot → gateable.
rm -rf results/timelines/ci-chaos
RHB_OBS_RECORD=ci-chaos RHB_OBS_INTERVAL_MS=25 RHB_TELEMETRY=off \
  cargo run --release -p rhb-bench --bin exp_chaos_sweep -- --rates 0.2 --assert-degraded
cargo run --release -p rhb-bench --bin rhb-report -- timeline results/timelines/ci-chaos
cargo run --release -p rhb-bench --bin rhb-report -- \
  postmortem results/timelines/ci-chaos --require-alert stall,recovery,downgrade


echo "== campaign kill-resume gate (blocking) =="
# Fault-tolerant campaign supervisor, end to end: an in-process phase
# proves panicking and hanging runs are isolated, retried with backoff,
# and quarantined without wedging the queue; a child-process phase
# SIGKILLs a live sabotaged campaign mid-flight and resumes it with the
# identical command. `rhb-report campaign` then audits the journal:
# every run settled, zero duplicate run-ids, at least one recorded
# retry. All three checks exit non-zero on violation.
rm -rf results/campaigns/ci-kill results/campaigns/ci-kill-domains
RHB_TELEMETRY=off cargo run --release -p rhb-bench --bin exp_campaign_kill
cargo run --release -p rhb-bench --bin rhb-report -- \
  campaign results/campaigns/ci-kill \
  --require-complete --require-retried --forbid-duplicates


echo "== victim serving gate (blocking) =="
# Serve live inference traffic while the attacker flips weight pages
# in the running server (no restart): a seeded open-loop generator
# drives 600 requests against the batched int8 service while flips are
# replayed into the hot model mid-window. `rhb-report serve --check`
# then audits the frozen trajectory: traffic must complete, the
# backdoor must activate, and windowed ASR must cross the 90%
# threshold after the flip window.
RHB_TELEMETRY=off cargo run --release -p rhb-bench --bin exp_serve_attack -- \
  --seed 7 --out ci_serve.json
cargo run --release -p rhb-bench --bin rhb-report -- serve ci_serve.json --check

echo "CI OK"
