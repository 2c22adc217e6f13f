# Zendoo reproduction — developer tasks.
#
# `just ci` is the gate: formatting, lints on every library crate, and
# the tier-1 test suite.

# Default: list recipes.
default:
    @just --list

# Full CI gate: format check, clippy on every library crate, rustdoc
# warnings-as-errors + doc-tests, tier-1 tests, adversarial, Byzantine
# and persistence suites, and the standalone benchmark package.
ci: fmt-check clippy doc doc-test test test-adversarial test-byzantine test-store test-benchmark

# Formatting check (whole workspace).
fmt-check:
    cargo fmt --check

# Apply formatting.
fmt:
    cargo fmt

# Lints, warnings-as-errors, on every library crate (--no-deps keeps
# the offline stand-ins in crates/support out; zendoo-bench and the root
# facade are not gated).
clippy:
    cargo clippy -p zendoo-primitives -p zendoo-crosschain -p zendoo-sim -p zendoo-mainchain -p zendoo-telemetry -p zendoo-snark -p zendoo-core -p zendoo-loadgen -p zendoo-store -p zendoo-latus --all-targets --no-deps -- -D warnings

# Rustdoc gate: the whole workspace documents cleanly.
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

# Runnable documentation examples across the workspace.
doc-test:
    cargo test --doc --workspace -q

# Tier-1 verification (must stay green).
test:
    cargo build --release
    cargo test -q

# The adversarial/soundness suites, by name: every escrow theft path
# (escrow_consensus), tampered/forged block-proof aggregates
# (aggregation), forged-signature/poisoned-verdict batched admission
# (sig_admission), the one-pass-fill ≡ per-prefix-greedy-fill oracle
# (pipeline), cross-chain forgery/replay (the two adversarial files)
# and the hostile-input codec corpus (settlement_codec). The
# passed total is summed from the run output (no extra cargo
# invocations) and printed so a shrinking suite is visible in CI.
test-adversarial:
    @total=0; for spec in "zendoo-mainchain escrow_consensus" "zendoo-mainchain aggregation" "zendoo-mainchain sig_admission" "zendoo-mainchain pipeline" "zendoo-crosschain adversarial" "zendoo-latus adversarial" "zendoo-core settlement_codec"; do set -- $spec; out=$(cargo test -q -p "$1" --test "$2" 2>&1) || { echo "$out"; exit 1; }; echo "$out"; n=$(echo "$out" | awk '/^test result: ok/ {s+=$4} END {print s+0}'); total=$((total + n)); done; echo "adversarial tests: $total total"

# The composed Byzantine suites (docs/SCENARIOS.md, "Byzantine
# fault-composition scenarios"): the five long-horizon fault-layered
# scenarios with per-tick conservation auditing (byzantine), random
# fault plans against the auditor (fault_props), and the determinism
# matrix the fault machinery must stay inside (determinism): one tick,
# bit-identical across workers ∈ {1, 2, 3, 4, per-core} × verify mode,
# with every reference world replayed by a cacheless follower
# (tests/common/mod.rs). Same summed-total reporting as
# test-adversarial.
test-byzantine:
    @total=0; for spec in "zendoo-sim byzantine" "zendoo-sim fault_props" "zendoo-sim determinism"; do set -- $spec; out=$(cargo test -q -p "$1" --test "$2" 2>&1) || { echo "$out"; exit 1; }; echo "$out"; n=$(echo "$out" | awk '/^test result: ok/ {s+=$4} END {print s+0}'); total=$((total + n)); done; echo "byzantine tests: $total total"

# The persistence suites: journal kill-and-recover, torn-tail and
# rollback replay at the store level (recovery), and the world-level
# lockstep contract — per-tick digest equality through mid-run kills,
# torn tails and reorgs (persistence). Same summed-total reporting as
# test-adversarial.
test-store:
    @total=0; for spec in "zendoo-store recovery" "zendoo-sim persistence"; do set -- $spec; out=$(cargo test -q -p "$1" --test "$2" 2>&1) || { echo "$out"; exit 1; }; echo "$out"; n=$(echo "$out" | awk '/^test result: ok/ {s+=$4} END {print s+0}'); total=$((total + n)); done; echo "store tests: $total total"

# The standalone benchmark package (BENCHMARK.json runs it from its own
# checkout): its unit tests, then every workload once at smoke size. It
# pins the public API by name, so a renamed function fails here rather
# than in the driver.
test-benchmark:
    cargo test -q --offline --manifest-path benchmark/Cargo.toml
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- all --quick

# Benchmarks (criterion stand-in prints ns/iter).
bench:
    cargo bench -p zendoo-bench

# Just the cross-chain routing hot-path bench.
bench-crosschain:
    cargo bench -p zendoo-bench --bench crosschain_routing

# Quick bench smoke: routing hot path, multi-certificate block
# verification (serial vs parallel), windowed batch settlement
# (emits BENCH_settlement.json with per-window tx counts), the
# sharded simulation world (emits BENCH_sharded_sim.json with
# one-lane-vs-sharded wall clock + work/span multi-core speedups),
# recursive block-proof aggregation (emits BENCH_proof_agg.json:
# flat aggregated verification vs linear individual at 1/16/256
# certs), the instrumented pipeline (emits + pretty-prints
# BENCH_pipeline_obs.json: per-stage p50/p99, verdict-cache hit rate,
# settlement batch histograms), and generated-load admission (emits
# BENCH_load.json: batched-vs-per-tx pipeline, template verdict
# reuse, flash-crowd eviction fee gain, per-scenario throughput +
# admission latency percentiles at 10^4-10^5 users), and the
# persistent store + indexer (emits BENCH_indexer.json: cold-start
# journal replay + index rebuild and per-query-class p50/p99 at 10^6
# UTXOs / 10^5 pending inbound transfers).
bench-smoke:
    cargo bench -p zendoo-bench --bench crosschain_routing
    cargo bench -p zendoo-bench --bench cert_pipeline
    cargo bench -p zendoo-bench --bench settlement
    cargo bench -p zendoo-bench --bench sharded_sim
    cargo bench -p zendoo-bench --bench proof_aggregation
    cargo bench -p zendoo-bench --bench pipeline_obs
    cargo bench -p zendoo-bench --bench load_admission
    cargo bench -p zendoo-bench --bench indexer

# Run a 16-chain instrumented scenario and print the telemetry
# span-tree report (docs/OBSERVABILITY.md explains how to read it).
obs-report:
    cargo run --release --example obs_report

# Run the cross-sidechain swap example end to end.
demo:
    cargo run --release --example cross_sidechain_swap
