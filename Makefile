# Zendoo reproduction — developer tasks. `make ci` is the gate.

.PHONY: ci fmt-check clippy doc doc-test test test-field test-adversarial test-byzantine test-store test-tree test-claims test-benchmark bench-build bench bench-smoke obs-report demo

ci: fmt-check clippy doc doc-test test test-field test-adversarial test-byzantine test-store test-tree test-claims bench-build test-benchmark

fmt-check:
	cargo fmt --check

# Every workspace member that is ours: the library crates, the
# recorded curve (zendoo-bench) and the root facade with its examples
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
# (escrow_consensus), forged-signature/poisoned-verdict batched
# admission and the forgeries a plain sum of verification equations
# accepts — a cancelling pair, traded nonce points, a bad signature
# first / middle / last, an all-bad batch, random corrupted subsets on
# 1/2/3/8/64 workers against the per-signature oracle (sig_admission),
# the one-pass-fill ≡ per-prefix-greedy-fill oracle, a cacheless node
# refusing a re-mined block with a bad signature exactly as fully
# inline validation does and one with a cross-wired certificate proof
# by name (pipeline), a fork off a block that failed to connect — its
# grandchild, a second branch off its child, a block on another fork
# stored above it — refused by name with the chain untouched
# (chain_behavior), the batch equation itself — identity keys and nonce
# points inside a valid batch, the empty batch, repeated keys sharing
# one term with a bad signature under a shared key (every schnorr::
# unit test), cross-chain forgery/replay (the two adversarial files), the hostile-input codec corpus
# (settlement_codec), non-canonical public inputs — a digest limb
# raised by 2¹²⁸, refused by `get_digest` and, in a real certificate
# and BTR statement, under the rule naming the input — and the oracles
# of the one pairwise fold: the recursive proof and the Wrap/Fold aggregate
# each equal to the per-step prove/merge and wrap/fold calls byte for
# byte on 1/2/4 lanes, a bad child in merge layer 0 or 1 and a bad
# signature in transition k of an epoch refused with the eager fold's
# error, and `prove_layer` equal to per-statement `prove` under random
# corruption. One commitment per mainchain block: a reference taken
# from another block's commitment refused by name, an absent chain
# served `NoData` evidence and no certificate (one smuggled in refused
# by name), the reference from the shared commitment equal to a scan of
# the block's transactions (latus lib), a repeated or reordered block
# body refused by name at stage 1 and a validation that hashes each
# transfer id once (pipeline). Then the Latus follower (two_nodes): a
# tampered state digest, tx root or smuggled payment refused by name, a
# reference whose `wcert` is forged or dropped refused by name, a
# refused forge that leaves no trace, and forger and follower agreeing
# across a fork.
test-adversarial:
	$(call run-suites,adversarial,"zendoo-mainchain escrow_consensus" "zendoo-mainchain sig_admission" "zendoo-mainchain pipeline" "zendoo-mainchain chain_behavior a_fork_off_a_block_that_failed_to_connect_is_refused_by_name" "zendoo-primitives lib schnorr::" "zendoo-crosschain adversarial" "zendoo-latus adversarial" "zendoo-core settlement_codec" "zendoo-snark lib get_digest_refuses_a_limb_of_2_128_or_more layered_fold_is_the_eager_fold_byte_for_byte a_bad_child_in_merge_layer_j_fails_as_the_eager_fold_does prop_prove_layer_equals_eager_prove aggregate_is_the_eager_fold_byte_for_byte" "zendoo-latus lib a_digest_limb_raised_by_2_128_is_refused_by_name a_bad_signature_in_transition_k_fails_as_the_eager_fold_does prop_reference_from_the_shared_commitment_equals_the_scan" "zendoo-latus two_nodes")

# The composed Byzantine suites (docs/SCENARIOS.md), and every user of
# the one script: a world's transactions and faults are one vocabulary
# (`Action`) in one `Schedule`, whose `run` audits conservation after
# every tick. The long-horizon fault-layered scenarios (byzantine),
# random fault schedules against the auditor and the sweep of every
# single fault at every tick (fault_props), the determinism matrix the
# fault machinery must stay inside (determinism): one tick,
# bit-identical across workers ∈ {1, 2, 3, 4, per-core}, every
# reference world replayed by a cacheless follower given the blocks
# alone (tests/common/mod.rs), which must land on the world's tip and
# state digest — plus the span-name contract the benchmark reads. Then the other scripted runs,
# each audited the same way: the facade's conservation suite, the
# ceased-chain exits and the canned scenarios. Last, the one commitment
# per mainchain block (shared_commitment): an idle shard hashes the same
# to forge whether the block carries 1 or 64 forward transfers for
# another chain.
test-byzantine:
	$(call run-suites,byzantine,"zendoo-sim byzantine" "zendoo-sim fault_props" "zendoo-sim determinism" "zendoo conservation" "zendoo-sim exits" "zendoo-sim lib scenarios::" "zendoo-sim shared_commitment")

# The persistence suites: journal kill-and-recover, torn-tail and
# rollback replay at the store level (recovery), and the world-level
# lockstep contract — per-tick digest equality through mid-run kills,
# torn tails and reorgs (persistence).
test-store:
	$(call run-suites,store,"zendoo-store recovery" "zendoo-sim persistence")

# The one tree, by name: the sparse Merkle tree's differential against
# the recursive reference of its definition (depths 6 / 40 / 63), the
# batched write against sequential inserts and its opening against
# both roots, the tamper matrices of proofs and of openings, the
# persistence laws and the permutation-count pins (every `smt::` unit
# test), then the cases that rest on the canonical-update rule — a
# witness replays pre- and post-root, a collision refunds from the
# opening and an opening that hides the occupant or omits the slot is
# refused, two transfers into one slot mint the first and refund the
# second, absence cannot be forged from a neighbour, over-long paths
# and wrong sibling kinds are refused by rule name, snapshots are
# handles bounded by the reorg horizon, and the indexer's one write per
# inbound tree keeps the slots one insertion at a time chose.
test-tree:
	$(call run-suites,tree,"zendoo-primitives lib smt::" "zendoo-latus lib payment_witness_replays_root_transition forward_transfer_collision_refunds_payback two_transfers_into_one_slot_mint_the_first_and_refund_the_second btr_absence_cannot_be_forged_from_a_neighbour witnessed_path_longer_than_the_tree" "zendoo-latus adversarial removal_with_the_wrong_sibling_kind ownership_path_longer_than_the_tree forward_transfer_opening_that_hides_an_occupant_or_omits_a_slot" "zendoo-latus epoch_flow snapshots_are_handles" "zendoo-store lib a_delta_writes_each_tree_once")

# The paper's scaling claims as assertions on operation counts
# (tests/paper_claims.rs: experiment → test table in its header; E2 reads
# n + (n − 1) attestations, 2(n − 1) in-circuit proof checks and one
# batch evaluation per merge layer; E5 one transfer a transaction and
# 64 in one), the three claims that live beside their code (E5 at tree
# level, one write and one batch, E7's leadership ∝ stake), and the
# constraint model read off each check on a real witness
# (`snark::circuit::constraint_cost`, the check's counts priced by
# `gadget_cost::price`): the pricing itself, Merge = Fold = 80,000 and
# Wrap = 40,000 (zendoo-snark's private circuits), the E1/E3
# certificate statement (one proof check, 228 → 426 permutations), a
# 1-in/1-out and a 2-in/2-out payment, and the BTR, CSW and historical
# CSW of epoch_flow (4,129 each). Host-independent: no clock is read.
test-claims:
	$(call run-suites,claims,"zendoo paper_claims" "zendoo-primitives lib smt::tests::a_write_costs_log_occupancy_not_depth smt::tests::a_batch_hashes_each_touched_node_once" "zendoo-latus lib consensus::tests::leadership_frequency_tracks_stake a_certificate_statement_is_one_proof_check_and_a_fold_per_touched_slot a_payment_is_priced_by_the_checks_its_transition_runs" "zendoo-latus epoch_flow btr_pre_validated_synced_and_fulfilled ceased_sidechain_csw_recovery historical_csw_survives_data_withholding" "zendoo-snark lib the_model_prices_what_the_check_ran merge_is_charged_the_two_checks_it_runs wrap_and_fold_are_charged_the_checks_they_run")

# The standalone benchmark package (BENCHMARK.json runs it from its own
# checkout): its unit tests, then every workload once at smoke size. It
# pins the public API by name, so a renamed function fails here rather
# than in the driver.
test-benchmark:
	cargo test -q --offline --manifest-path benchmark/Cargo.toml
	cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- all --quick

# Builds the recorded curve as `cargo bench` would (clippy only checks
# it), so an API change cannot break it silently.
bench-build:
	cargo bench -p zendoo-bench --no-run

bench:
	cargo bench -p zendoo-bench

# The one curve that keeps a committed record: rewrites
# BENCH_indexer.json (cold start + queries at 10^6 UTXOs; about half a minute).
bench-smoke:
	cargo bench -p zendoo-bench --bench indexer

obs-report:
	cargo run --release --example obs_report

demo:
	cargo run --release --example cross_sidechain_swap
