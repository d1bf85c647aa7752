#!/usr/bin/env bash
# Repository CI gate: formatting, lints, and the full test suite.
#
#   ./ci.sh
#
# Each stage must pass for the script to exit zero. Clippy runs with
# warnings denied across every target (libs, bins, tests, benches) so new
# warnings fail the build instead of accumulating.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo build --release (timed) =="
build_start=$(date +%s)
cargo build --release --workspace
build_end=$(date +%s)
echo "release build took $((build_end - build_start))s"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test -q =="
cargo test --workspace -q

echo "== kernel exactness: both mm_nn bodies vs the unblocked reference =="
cargo test --release -p tensor kernels -q
# Name the mm_nn arm this host dispatches to, so a silently disabled
# fast path shows in the log.
cargo test --release -p tensor kernels::tests::mm_nn_reports_its_isa_arm -q -- --nocapture

echo "== batched-decode differential suite =="
cargo test -p nn --test batched_differential -q
cargo test -p nn --test batched_proptests -q
cargo test -p bench --test golden_decode -q

echo "== resume-differential suite =="
cargo test -p nn --test resume_differential -q
cargo test -p nn --test ckpt_proptests -q

echo "== determinism audit: source lints + tape reduction orders =="
cargo run --release -p bench --bin det_audit -- --out target/BENCH_det_audit.json

echo "== parallel-safety audit: concurrency lints + schedule certification =="
cargo run --release -p bench --bin par_audit -- --out target/BENCH_par_audit.json

echo "== hot-path audit: panic-freedom + allocation-discipline lints =="
cargo run --release -p bench --bin hot_audit -- --out target/BENCH_hot_audit.json

echo "== zero-alloc steady state: counting-allocator certification =="
cargo test --release -p serve --test zero_alloc -q
cargo test -p analysis --test hot_proptests -q

echo "== double-run bit-equality suite (incl. 1/2/4-thread sweep) =="
cargo test -p nn --test double_run -q
cargo test -p analysis --test order_proptests -q

echo "== lint-code registry cross-check =="
cargo test -p bench --test lint_registry -q

echo "== fault-matrix cell: truncate-at-CRC, base preset =="
cargo test -p nn --test resume_differential \
  truncate_at_crc_leaves_last_good_loadable_base_preset -q

echo "== decode_bench smoke (2 requests, thread sweep) =="
cargo run --release -p bench --bin decode_bench -- \
  --requests 2 --batch 2 --max-out 8 --out target/BENCH_decode_smoke.json

echo "== serving engine: double-run determinism + invariants + golden =="
cargo test -p serve -q
cargo test -p bench --test golden_serve -q

echo "== prefix cache: differential battery + property suite + golden event stream =="
cargo test -p nn --test cache_differential -q
cargo test -p nn --test cache_proptests -q
cargo test -p bench --test golden_serve_cache -q

echo "== serve_bench smoke (2 clients; gated on identical + no silent drops"
echo "   + cache phases bit-identical + 90%-reuse hit rate > 0) =="
cargo run --release -p bench --bin serve_bench -- \
  --requests 8 --clients 2 --slots 2 --max-out 8 \
  --out target/BENCH_serve_smoke.json

echo "== servebench: unit tests + catalog-batch smoke (gated on exit status;"
echo "   checks the packed decode step against the sequential path at"
echo "   Full-scale sizes: d=96, 6 heads, ~1.9k vocab) =="
cargo test --release --offline --manifest-path servebench/Cargo.toml -q
cargo run --quiet --release --offline --manifest-path servebench/Cargo.toml -- \
  --workload catalog-batch --seed 3 --seconds 4 --trace 0

echo "== observability suite: spans, sinks, double-run with obs on =="
cargo test -p obs -q
cargo test -p nn --test obs_double_run -q

echo "== obs overhead smoke: obs-off throughput within 2% of baseline =="
cargo run --release -p bench --bin obs_report -- \
  --overhead --tol 0.02 --repeats 8 --out target/BENCH_obs_overhead.json

echo "== obs report: kernel attribution covers >=95% of the train step =="
DATAVIST5_OBS=1 cargo run --release -p bench --bin obs_report -- \
  --out target/BENCH_obs.json

echo "== perf-trajectory suite: history round-trip + gate + golden trends =="
cargo test -p bench --test perf_proptests -q
cargo test -p bench --test golden_perf_trends -q

echo "== perf gate: committed BENCH_*.json vs committed baseline =="
cargo run --release -p bench --bin perf_gate -- --out target/BENCH_perf_gate.json

echo "== perf trend charts rendered =="
test -s target/bench/trends/perf_trends.txt
test -s target/bench/trends/trend_decode.svg
test -s target/bench/trends/trend_kernel.svg

echo "ci: all stages passed"
