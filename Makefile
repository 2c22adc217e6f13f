# Zendoo reproduction — developer tasks. `make ci` is the gate.

.PHONY: ci fmt-check clippy doc doc-test test test-field test-adversarial test-byzantine test-store test-tree test-claims test-benchmark bench-build bench bench-smoke obs-report demo

ci: fmt-check clippy doc doc-test test test-field test-adversarial test-byzantine test-store test-tree test-claims bench-build test-benchmark

fmt-check:
	cargo fmt --check

# Every workspace member that is ours: the library crates, the two
# recorded curves (zendoo-bench) and the root facade with its examples
# and tests.
# --no-deps keeps the offline stand-ins in crates/support out.
clippy:
	cargo clippy -p zendoo-primitives -p zendoo-crosschain -p zendoo-sim -p zendoo-mainchain -p zendoo-telemetry -p zendoo-snark -p zendoo-core -p zendoo-loadgen -p zendoo-store -p zendoo-latus -p zendoo-bench -p zendoo --all-targets --no-deps -- -D warnings

doc:
	RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

doc-test:
	cargo test --doc --workspace -q

# Tier-1 verification (must stay green).
test:
	cargo build --release
	cargo test -q

# $(call run-suites,<label>,<specs>): runs each spec — `package target
# filter…`, where target is an integration test or `lib` for the unit
# tests — and prints the passed total summed from the run output, so a
# shrinking or renamed suite is visible.
define run-suites
@total=0; for spec in $(2); do set -- $$spec; pkg=$$1; target=$$2; shift 2; if [ "$$target" = lib ]; then target=--lib; else target="--test $$target"; fi; out=$$(cargo test -q -p "$$pkg" $$target -- "$$@" 2>&1) || { echo "$$out"; exit 1; }; echo "$$out"; n=$$(echo "$$out" | awk '/^test result: ok/ {s+=$$4} END {print s+0}'); total=$$((total + n)); done; echo "$(1) tests: $$total total"
endef

# The field kernel, by name: `field::` holds the oracle that is not the
# kernel (a 512-step shift-and-subtract) and the operands that break
# folds — 0, 1, N − 1, C and C ± 1, 2^255, each limb saturated, every
# pair of those, dot products of 1–4 of them; products placed on N + 1,
# 2^256 − 1, 2^256 and 2^256 + 1 after the last fold (the subtraction
# without a carry, the carry out of 2^256); a first fold into the fifth
# limb; three and four (N − 1)² in nine limbs; two ring-only moduli
# whose C takes the fold schedules Fp and Fr do not; random operands in
# all four. `bigint::` checks the 10-product square against the
# 16-product multiplication; `poseidon::` holds the known answers no
# kernel may move, the matrix oracle (Poseidon2 with dense 3×3 M_E / M_I
# products every round) the addition-only permutation must equal, and
# the parameter conditions: M_E is MDS, M_I is invertible with the
# characteristic polynomials of M_I¹…M_I⁸ irreducible, μ is the first
# candidate of the documented search.
# The dev profile keeps overflow checks on, so every wrap the kernel
# means is an explicit one.
test-field:
	$(call run-suites,field,"zendoo-primitives lib field:: bigint:: poseidon::")

# The adversarial/soundness suites, by name: every escrow theft path
# (escrow_consensus), tampered/forged block-proof aggregates
# (aggregation), forged-signature/poisoned-verdict batched admission and
# the forgeries a plain sum of verification equations accepts — a
# cancelling pair, traded nonce points, a bad signature first / middle /
# last, an all-bad batch, random corrupted subsets on 1/2/3/8/64 workers
# against the per-signature oracle (sig_admission), the
# one-pass-fill ≡ per-prefix-greedy-fill oracle and a cacheless node
# refusing a re-mined block with a bad signature exactly as fully inline
# validation does, in both verify modes (pipeline), the batch equation
# itself — identity keys and nonce points inside a valid batch, the
# empty batch, repeated keys sharing one term with a bad signature under
# a shared key (every schnorr:: unit test), cross-chain forgery/replay
# (the two adversarial files) and the hostile-input codec corpus
# (settlement_codec).
test-adversarial:
	$(call run-suites,adversarial,"zendoo-mainchain escrow_consensus" "zendoo-mainchain aggregation" "zendoo-mainchain sig_admission" "zendoo-mainchain pipeline" "zendoo-primitives lib schnorr::" "zendoo-crosschain adversarial" "zendoo-latus adversarial" "zendoo-core settlement_codec")

# The composed Byzantine suites (docs/SCENARIOS.md): the long-horizon
# fault-layered scenarios with per-tick conservation auditing
# (byzantine), random fault plans against the auditor (fault_props), and
# the determinism matrix the fault machinery must stay inside
# (determinism): one tick, bit-identical across workers ∈ {1, 2, 3, 4,
# per-core} × verify mode, every reference world replayed by a cacheless
# follower (tests/common/mod.rs) — plus the span-name contract the
# benchmark reads.
test-byzantine:
	$(call run-suites,byzantine,"zendoo-sim byzantine" "zendoo-sim fault_props" "zendoo-sim determinism")

# The persistence suites: journal kill-and-recover, torn-tail and
# rollback replay at the store level (recovery), and the world-level
# lockstep contract — per-tick digest equality through mid-run kills,
# torn tails and reorgs (persistence).
test-store:
	$(call run-suites,store,"zendoo-store recovery" "zendoo-sim persistence")

# The one tree, by name: the sparse Merkle tree's differential against
# the recursive reference of its definition (depths 6 / 40 / 63), the
# tamper matrix, the persistence laws and the permutation-count pin
# (every `smt::` unit test), then the Latus cases that rest on the
# canonical-update rule — a witness replays pre- and post-root, a
# collision is a membership proof, absence cannot be forged from a
# neighbour, over-long paths and wrong sibling kinds are refused by rule
# name, snapshots are handles bounded by the reorg horizon.
test-tree:
	$(call run-suites,tree,"zendoo-primitives lib smt::" "zendoo-latus lib payment_witness_replays_root_transition forward_transfer_collision_refunds_payback btr_absence_cannot_be_forged_from_a_neighbour witnessed_path_longer_than_the_tree" "zendoo-latus adversarial removal_with_the_wrong_sibling_kind ownership_path_longer_than_the_tree" "zendoo-latus epoch_flow snapshots_are_handles")

# The paper's scaling claims as assertions on operation counts
# (tests/paper_claims.rs: experiment → test table in its header; E2 reads
# n + (n − 1) attestations, 2(n − 1) in-circuit proof checks and one
# batch evaluation per merge layer), the two claims that live beside
# their code (E5 at tree level, E7's leadership ∝ stake) and the cost
# lines of zendoo-snark's private circuits (constraint_cost ==
# proof_checks × PROOF_VERIFY). Host-independent: no clock is read.
test-claims:
	$(call run-suites,claims,"zendoo paper_claims" "zendoo-primitives lib smt::tests::a_write_costs_log_occupancy_not_depth" "zendoo-latus lib consensus::tests::leadership_frequency_tracks_stake" "zendoo-snark lib merge_is_charged_the_two_checks_it_runs wrap_and_fold_are_charged_the_checks_they_run")

# The standalone benchmark package (BENCHMARK.json runs it from its own
# checkout): its unit tests, then every workload once at smoke size. It
# pins the public API by name, so a renamed function fails here rather
# than in the driver.
test-benchmark:
	cargo test -q --offline --manifest-path benchmark/Cargo.toml
	cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- all --quick

# Builds the two recorded curves as `cargo bench` would (clippy only
# checks them), so an API change cannot break them silently.
bench-build:
	cargo bench -p zendoo-bench --no-run

bench:
	cargo bench -p zendoo-bench

# The two curves that keep a committed record: rewrites
# BENCH_proof_agg.json (1/16/256 certificates a block) and
# BENCH_indexer.json (cold start + queries at 10^6 UTXOs; about half a minute).
bench-smoke:
	cargo bench -p zendoo-bench --bench proof_aggregation
	cargo bench -p zendoo-bench --bench indexer

obs-report:
	cargo run --release --example obs_report

demo:
	cargo run --release --example cross_sidechain_swap
