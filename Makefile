# Zendoo reproduction — make mirror of the justfile (the container may
# not have `just` installed).

.PHONY: ci fmt-check clippy doc doc-test test test-adversarial test-byzantine test-store test-benchmark bench bench-smoke obs-report demo

ci: fmt-check clippy doc doc-test test test-adversarial test-byzantine test-store test-benchmark

fmt-check:
	cargo fmt --check

clippy:
	cargo clippy -p zendoo-primitives -p zendoo-crosschain -p zendoo-sim -p zendoo-mainchain -p zendoo-telemetry -p zendoo-snark -p zendoo-core -p zendoo-loadgen -p zendoo-store -p zendoo-latus --all-targets --no-deps -- -D warnings

doc:
	RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

doc-test:
	cargo test --doc --workspace -q

test:
	cargo build --release
	cargo test -q

test-adversarial:
	@total=0; for spec in "zendoo-mainchain escrow_consensus" "zendoo-mainchain aggregation" "zendoo-mainchain sig_admission" "zendoo-mainchain pipeline" "zendoo-crosschain adversarial" "zendoo-latus adversarial" "zendoo-core settlement_codec"; do set -- $$spec; out=$$(cargo test -q -p "$$1" --test "$$2" 2>&1) || { echo "$$out"; exit 1; }; echo "$$out"; n=$$(echo "$$out" | awk '/^test result: ok/ {s+=$$4} END {print s+0}'); total=$$((total + n)); done; echo "adversarial tests: $$total total"

test-byzantine:
	@total=0; for spec in "zendoo-sim byzantine" "zendoo-sim fault_props" "zendoo-sim determinism"; do set -- $$spec; out=$$(cargo test -q -p "$$1" --test "$$2" 2>&1) || { echo "$$out"; exit 1; }; echo "$$out"; n=$$(echo "$$out" | awk '/^test result: ok/ {s+=$$4} END {print s+0}'); total=$$((total + n)); done; echo "byzantine tests: $$total total"

test-store:
	@total=0; for spec in "zendoo-store recovery" "zendoo-sim persistence"; do set -- $$spec; out=$$(cargo test -q -p "$$1" --test "$$2" 2>&1) || { echo "$$out"; exit 1; }; echo "$$out"; n=$$(echo "$$out" | awk '/^test result: ok/ {s+=$$4} END {print s+0}'); total=$$((total + n)); done; echo "store tests: $$total total"

test-benchmark:
	cargo test -q --offline --manifest-path benchmark/Cargo.toml
	cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- all --quick

bench:
	cargo bench -p zendoo-bench

bench-smoke:
	cargo bench -p zendoo-bench --bench crosschain_routing
	cargo bench -p zendoo-bench --bench cert_pipeline
	cargo bench -p zendoo-bench --bench settlement
	cargo bench -p zendoo-bench --bench sharded_sim
	cargo bench -p zendoo-bench --bench proof_aggregation
	cargo bench -p zendoo-bench --bench pipeline_obs
	cargo bench -p zendoo-bench --bench load_admission
	cargo bench -p zendoo-bench --bench indexer

obs-report:
	cargo run --release --example obs_report

demo:
	cargo run --release --example cross_sidechain_swap
