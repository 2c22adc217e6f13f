# Zendoo reproduction — developer tasks. `make ci` is the gate.

.PHONY: ci serde-audit fmt-check unsafe-audit clippy doc doc-test test test-field test-adversarial test-byzantine test-store test-tree test-claims test-crates test-benchmark bench-build bench bench-smoke obs-report demo

ci: serde-audit fmt-check unsafe-audit clippy doc doc-test test test-field test-adversarial test-byzantine test-store test-tree test-claims test-crates bench-build test-benchmark

# No code of ours names serde: canonical bytes are the in-repo
# `Encode`/`Decode` pair, and the serde stand-in in crates/support
# expands its derives to nothing. Fails on any mention in our sources,
# tests, benches and examples (crates/support aside), so the surface
# cannot grow back while the manifests still carry the edge.
serde-audit:
	@if grep -rn serde crates/*/src crates/*/tests crates/*/benches src examples tests; then \
		echo "serde named outside crates/support (above)"; exit 1; fi; \
	echo "serde audit: no code of ours names serde"

fmt-check:
	cargo fmt --check

# `unsafe` lives in one audited place: the call into the SHA-extensions
# kernel in zendoo-primitives' sha256.rs, after the CPU reported every
# feature the kernel enables. Fails on any other `unsafe` block, fn or
# impl or `allow(unsafe_code)` in our code (crates/support, the offline
# stand-ins, aside), and on a crate root other than zendoo-primitives
# without `#![forbid(unsafe_code)]`.
unsafe-audit:
	@found=$$(grep -rEn 'unsafe \{|unsafe fn|unsafe impl|allow\(unsafe_code\)' crates/*/src crates/*/tests crates/*/benches src examples tests); \
	expected='crates/primitives/src/sha256.rs:[0-9]+:    #\[allow\(unsafe_code\)\]$$'; \
	if [ "$$(echo "$$found" | wc -l)" -ne 2 ] || ! echo "$$found" | grep -Eq "$$expected" || ! echo "$$found" | grep -Eq '^crates/primitives/src/sha256.rs:[0-9]+: +unsafe \{ rounds\(state, blocks\) \}$$'; then \
		echo "unsafe outside the one audited block in crates/primitives/src/sha256.rs:"; echo "$$found"; exit 1; fi; \
	for root in src/lib.rs crates/*/src/lib.rs; do \
		[ "$$root" = crates/primitives/src/lib.rs ] && continue; \
		grep -q '^#!\[forbid(unsafe_code)\]$$' "$$root" || { echo "$$root lacks #![forbid(unsafe_code)]"; exit 1; }; \
	done; \
	grep -q '^#!\[deny(unsafe_code)\]$$' crates/primitives/src/lib.rs || { echo "crates/primitives/src/lib.rs lacks #![deny(unsafe_code)]"; exit 1; }; \
	echo "unsafe audit: one block (crates/primitives/src/sha256.rs), every other crate root forbids unsafe_code"

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
# products every round, in Fp arithmetic) the addition-only 5×52-limb
# permutation must equal — on random states and on edge states
# (permute_matches_matrix_form_on_edge_states: 0, N − 1, N − C,
# 2^52 − 1, 2^104, 2^255, each 52-bit limb saturated) — the headroom of
# its limbs at the bounds its module docs state
# (products_at_the_limb_bound_match_the_reference: every limb at 2^57 − 1
# and the other edges, into the product and the square, against the
# 4×64 kernel; prop_products_below_the_limb_bound_match_the_reference;
# weak_normalisation_at_its_bound_keeps_the_value: limbs at 2^60 − 1;
# limbs_round_trip_on_edge_values: Fp → limbs → Fp and the exit's
# non-canonical edges p, p + 1, 2^256 and 2^257 − 1), and the parameter
# conditions: M_E is MDS, M_I is invertible with the characteristic
# polynomials of M_I¹…M_I⁸ irreducible, μ is the first candidate of the
# documented search.
# `sha256::` holds the SHA-256 kernels: the FIPS 180-4 vectors through
# the public API (the empty, 24-, 448- and 896-bit messages and a
# million a's), the SHA-extensions kernel against the portable rounds on
# 2,000 pseudo-random blocks from one state (block by block and in one
# call), every message length 0–256 split at the block edges against a
# reference that pads byte by byte, and the dispatch choosing the SHA
# extensions on a CPU that reports them.
# The dev profile keeps overflow checks on, so every wrap the kernel
# means is an explicit one.
test-field:
	$(call run-suites,field/sha256,"zendoo-primitives lib field:: bigint:: poseidon:: sha256::")

# The adversarial/soundness suites, by name: every escrow theft path
# (escrow_consensus), forged-signature/poisoned-verdict batched
# admission and the forgeries a plain sum of verification equations
# accepts — a cancelling pair, traded nonce points, a bad signature
# first / middle / last, an all-bad batch, random corrupted subsets on
# 1/2/3/8/64 workers against the per-signature oracle (sig_admission),
# the one-pass-fill ≡ per-prefix-greedy-fill oracle, a cacheless node
# — one stage-3 walk owing every proof and signature check to one batch
# each, rerun on the discharged verdicts when one fails — refusing a
# re-mined block exactly as fully inline validation does: a bad
# signature wherever it sits, a junk signature on a spend of an output
# of the same block, a cross-wired certificate proof, and the
# deferral's trap, a cross-wired proof before a transfer spending a
# missing output, refused with the proof's error and nothing verified
# twice, and the hostile-block generator — the builder's block of random
# payments, in-block spends, certificates, forward transfers, BTRs and
# CSWs under 0–3 random corruptions (a junk signature, a cross-wired
# proof, a missing input, an amount past u64::MAX, a reused nullifier,
# two transactions swapped), refused by a cacheless receiver exactly as
# the serial inline validator refuses it, its case count and tallies
# printed (pipeline), a fork off a block that failed to connect — its
# grandchild, a second branch off its child, a block on another fork
# stored above it — refused by name with the chain untouched, and the
# registry and block refusals asserted by name: a certificate outside
# its submission window, one for a ceased sidechain, the safeguard on
# a certificate and on a CSW, a transfer spending one output twice (by
# the builder and by a receiving node), a header short of a
# configured target, a header at the wrong height or declaring another
# target, a sidechain id declared twice, an activation height at or
# below the declaring block, a CSW against an active sidechain and a
# BTR following its chain's certificate in one block, whose anchor no
# proof can bind (RegistryError::MissingBoundaryBlock, by the builder
# and by a receiving node), a received block carrying a transfer that
# spends nothing (BlockError::NoInputs) or pays out more than its input
# holds (BlockError::ValueImbalance) with height, tip and UTXO set
# unchanged (chain_behavior), a certificate whose epoch boundary the chain cannot
# name (RegistryError::MissingBoundaryBlock) and a forward transfer and
# a certificate summing past u64::MAX (RegistryError::AmountOverflow)
# (mainchain lib registry::), the batch equation itself — identity keys and nonce
# points inside a valid batch, the empty batch, repeated keys sharing
# one term with a bad signature under a shared key (every schnorr::
# unit test), cross-chain forgery/replay (the two adversarial files;
# the Latus one also refuses by name a mainchain block past a gap in
# the synced ones, a certificate asked for mid-epoch and a reference
# for either commitment-tree sentinel id, McRefError::ProofUnavailable,
# by `derive` and by a node built for one, which stays as it was),
# every declaration refusal of the one escrow-pairing rule — a
# declaration without its escrow, a wrong amount, a tampered nullifier,
# a foreign source, a self transfer, zero coins, a nullifier declared
# twice (zendoo-core crosschain::), a settlement batch entry from another
# source chain (SettlementError::SourceMismatch), a decoded batch whose
# entries sum past u64::MAX refused by check_settlement_output
# (SettlementError::AmountOverflow) — the hostile-input codec corpus
# (settlement_codec) and the totality harness over every wire form — the
# round trip, every prefix, a trailing byte, every bit flip and 1,000
# random strings per form, its payload count printed (the root
# facade's codec), non-canonical public inputs — a digest limb
# raised by 2¹²⁸, refused by `get_digest` and, in a real certificate
# and BTR statement, under the rule naming the input — a validly signed
# Latus payment whose outputs sum past u64::MAX refused by
# check_transaction (TxError::AmountOverflow) with the state untouched,
# an MST leaf update replayed on another root (UpdateError::StaleRoot),
# a header carrying a VRF proof where leadership is vacuous or none
# where it is not refused by the one leadership verifier, a header
# signature failing when any other header field changes, an epoch
# schedule of zero length or a submission window outside 1..=epoch_len
# (ScheduleError::{ZeroEpochLength, BadSubmitLength}),
# a forward transfer whose 104-byte metadata names a cross-chain source
# and nonce with no escrow behind it refunded to its payback, minting
# nothing and crediting no inbound transfer (settlement batches are the
# one cross-chain delivery form) —
# and the oracles of the one pairwise fold: the recursive proof and the Wrap/Fold aggregate
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
# transfer id once (pipeline). Then the Latus follower (two_nodes): an
# honest block whose forger a relay rewrote to an unstaked key, or whose
# slot it moved 5 ahead, refused as NodeError::BadHeaderSignature with
# tip and state unchanged, a block off the follower's tip
# (NodeError::NotOnTip) or naming other MC blocks than the observed one
# (NodeError::WrongMcReference) refused with chain, state and snapshots
# unchanged, a staked slot's block stripped of its VRF proof or moved
# to another slot refused as NodeError::NotLeader; a tampered state
# digest, tx root or smuggled payment, each re-signed by the forger,
# refused by name, a
# body carrying another block's reference under a header naming the
# observed block refused by name (ScBlockError::McRefHashMismatch), a
# reference whose `wcert` is forged or dropped refused by name, a block
# re-stamped with its parent's slot refused by name
# (NodeError::SpentSlot), a refused forge that leaves no trace, forger
# and follower agreeing across a fork, a follower refusing by name to
# certify an epoch whose escrow withdrawal it holds no declaration for,
# the follower's deferral trap — a junk signature on a block's first
# payment and an unknown input on its last, refused as BadAuthorization
# though the signature-owing walk meets the unknown input first — and
# the hostile Latus block generator: the forger's block of random
# payments, withdrawals and in-block spends under 0–3 random
# corruptions (a junk signature, a key not owning its coin, an unknown
# input, a duplicate input, outputs past u64::MAX, two transactions
# swapped) re-signed by the forger, one case in eight then moving the
# signed slot (the one unsigned class), refused by the follower's
# one-batch receive exactly as the inline validator (the header
# signature, then `apply_block`) refuses it, its case count and tallies
# printed.
# Last, each signature verified once per node, by name:
# transfers pooled one at a time verified in one batch at block build
# (a bad one first, in the middle or last dropped by name, the rest
# confirmed; the batch equal to the per-signature oracle on 1/2/4
# workers), batch-admitted ones queueing nothing there (sig_admission);
# every Latus spend rule refusing a payment by name at admission, a
# forger forging admitted payments without verifying them again while a
# follower verifies them as one batch and refuses another key's
# signature by name,
# and a cross-chain transfer's pending view re-verifying none of the
# queued payments (latus admission).
test-adversarial:
	$(call run-suites,adversarial,"zendoo-mainchain escrow_consensus" "zendoo-mainchain sig_admission" "zendoo-mainchain pipeline --nocapture" "zendoo-mainchain chain_behavior a_fork_off_a_block_that_failed_to_connect_is_refused_by_name certificate_accepted_only_in_window late_certificate_rejected_and_sidechain_ceases safeguard_rejects_overdraw csw_flow_after_ceasing a_transfer_spending_one_output_twice_is_refused_by_name a_header_short_of_the_target_is_refused_as_bad_proof_of_work a_header_at_the_wrong_height_is_refused_by_name a_header_declaring_another_target_is_refused_by_name sidechain_declaration_id_uniqueness an_activation_at_or_below_the_declaring_height_is_refused_by_name csw_rejected_while_active a_btr_after_its_chains_certificate_in_one_block_is_refused_as_missing_boundary_block a_block_with_an_input_less_transfer_is_refused_as_no_inputs a_block_with_a_transfer_paying_past_its_inputs_is_refused_as_value_imbalance" "zendoo-mainchain lib a_boundary_block_the_chain_cannot_name_is_refused_as_missing an_amount_past_u64_max_is_refused_as_amount_overflow" "zendoo-primitives lib schnorr::" "zendoo-crosschain adversarial" "zendoo-latus adversarial" "zendoo-core lib crosschain:: a_batch_entry_from_another_source_is_refused_by_name a_batch_whose_entries_sum_past_u64_max_is_refused_by_name a_zero_epoch_or_a_bad_submit_window_is_refused_by_name" "zendoo-core settlement_codec" "zendoo codec --nocapture" "zendoo-snark lib get_digest_refuses_a_limb_of_2_128_or_more layered_fold_is_the_eager_fold_byte_for_byte a_bad_child_in_merge_layer_j_fails_as_the_eager_fold_does prop_prove_layer_equals_eager_prove aggregate_is_the_eager_fold_byte_for_byte" "zendoo-latus lib a_digest_limb_raised_by_2_128_is_refused_by_name a_bad_signature_in_transition_k_fails_as_the_eager_fold_does prop_reference_from_the_shared_commitment_equals_the_scan a_payment_whose_outputs_sum_past_u64_max_is_refused_by_name an_ft_in_the_per_transfer_cross_layout_is_refunded_not_credited a_leaf_update_on_another_root_is_refused_as_stale_root vacuous_leadership_carries_no_proof leadership_verifies_and_binds_slot a_header_signature_binds_every_field" "zendoo-latus two_nodes --nocapture" "zendoo-mainchain sig_admission queued_transfers_are_verified_once_at_build_and_never_at_submit a_bad_signature_among_queued_transfers_is_dropped_wherever_it_sits batch_admitted_transfers_queue_no_checks_at_build" "zendoo-latus admission")

# The composed Byzantine suites (docs/SCENARIOS.md), and every user of
# the one script: a world's transactions and faults are one vocabulary
# (`Action`) in one `Schedule`, whose `run` audits conservation after
# every tick. First the auditor shown to fire (sim lib audit::): a
# reconciled world with one pool corrupted through a test-only door
# names AuditViolation::{Conservation, Safeguard, DoubleSettlement,
# ForgedWinner}, field by field. The long-horizon fault-layered scenarios (byzantine),
# among them a fork that orphans one sender's declared transfer, after
# which another sender's transfer of the same amount must reach its own
# receiver, and a queued transfer whose input a fork reverts, which must
# leave nothing to declare, and a malformed deposit that reconciliation
# names stranded (AuditViolation::Stranded) until its refund matures;
# random fault schedules against the auditor and the sweep of every
# single fault at every tick (fault_props), the determinism matrix the
# fault machinery must stay inside (determinism): one tick,
# bit-identical across workers ∈ {1, 2, 3, 4, per-core}, every
# reference world replayed by a cacheless follower given the blocks
# alone (tests/common/mod.rs), which must land on the world's tip and
# state digest — plus the span-name contract the benchmark reads. The
# test that reads the tick's wall-clock coverage runs alone, on one test
# thread: beside the target's other tests a 2-core host has more
# runnable threads than cores, and time lost to scheduling between the
# spans counts against coverage. Then the other scripted runs,
# each audited the same way: the facade's conservation suite, the
# ceased-chain exits and the canned scenarios. Last, the one commitment
# per mainchain block (shared_commitment): an idle shard hashes the same
# to forge whether the block carries 1 or 64 forward transfers for
# another chain.
test-byzantine:
	$(call run-suites,byzantine,"zendoo-sim lib audit::" "zendoo-sim byzantine" "zendoo-sim fault_props" "zendoo-sim determinism --skip the_lanes_and_the_serial_phases_account_for_the_tick" "zendoo-sim determinism the_lanes_and_the_serial_phases_account_for_the_tick --test-threads=1" "zendoo conservation" "zendoo-sim exits" "zendoo-sim lib scenarios::" "zendoo-sim shared_commitment")

# The persistence suites: the store's unit tests (the journal checksum's
# known answer and every single-bit flip, a ZSJ1 journal refused, the
# store's refusals by name — an outpoint one of the mirror's two maps
# holds is present to the other — the exact state check with a regular
# entry turned escrow moving between the maps, the streamed digest, the
# digest's known answers, one of them on escrows that sort between
# regular outputs so the merged walk of the two maps is pinned byte for
# byte, the index rebuild against applying the whole store), the
# mainchain's two-map UTXO set against a one-map model under random
# inserts of either kind onto fresh, regular and escrow outpoints,
# removes and lookups (utxo_model), journal
# kill-and-recover, torn-tail and rollback replay at the store level
# (recovery), every crash point of a 3-record journal — cut at each
# byte offset, each bit of its last frame flipped — landing on the
# committed prefix with the exact torn bytes and resuming appends
# (crash_points, case counts printed), and
# the world-level lockstep contract — per-tick digest equality through
# mid-run kills, torn tails and reorgs, and a journal one respect off
# the live chain refused on attach and on restart (persistence).
test-store:
	$(call run-suites,store,"zendoo-store lib" "zendoo-mainchain utxo_model" "zendoo-store recovery" "zendoo-store crash_points --nocapture" "zendoo-sim persistence")

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

# Every other suite of our crates, whole: the telemetry handle's
# contract and the histogram properties, the disabled handle's overhead
# bound (noop_overhead), the mainchain's unit tests, invariants and
# mempool properties, its state machine's behaviour whole
# (chain_behavior: test-adversarial runs only its refusals, by name;
# here conservation, fees and reorgs run too), the sc-txs commitment
# properties, batch
# settlement, the Latus wallet flow, load generation, the field and
# curve algebra, the sim's load determinism and the SNARK soundness
# suite. With the steps above, `make ci` runs every test target of
# every crate of ours.
test-crates:
	$(call run-suites,crates,"zendoo-telemetry lib" "zendoo-telemetry histogram_props" "zendoo-bench noop_overhead" "zendoo-mainchain lib" "zendoo-mainchain invariants" "zendoo-mainchain mempool_props" "zendoo-mainchain chain_behavior" "zendoo-core commitment_props" "zendoo-crosschain batch_settlement" "zendoo-latus wallet_flow" "zendoo-loadgen loadgen" "zendoo-primitives algebra" "zendoo-sim load_determinism" "zendoo-snark soundness")

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
