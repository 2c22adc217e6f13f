//! Property tests for the SCTxsCommitment tree:
//! over arbitrary populations of sidechains and transfers, membership
//! and absence proofs are complete, sound, and mutually exclusive.

use proptest::prelude::*;
use zendoo_core::commitment::ScTxsCommitmentBuilder;
use zendoo_core::ids::{Amount, SidechainId};
use zendoo_core::transfer::ForwardTransfer;

fn build(population: &[(u8, u8)]) -> (ScTxsCommitmentBuilder, Vec<SidechainId>) {
    let mut builder = ScTxsCommitmentBuilder::new();
    let mut ids = Vec::new();
    for (sc, n_fts) in population {
        let sid = SidechainId::from_label(&format!("sc-{sc}"));
        ids.push(sid);
        for i in 0..*n_fts {
            builder.add_forward_transfer(ForwardTransfer {
                sidechain_id: sid,
                receiver_metadata: vec![i],
                amount: Amount::from_units(i as u64 + 1),
            });
        }
    }
    (builder, ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn prop_membership_complete_and_absence_sound(
        population in proptest::collection::vec((0u8..40, 1u8..6), 0..12),
        probe in 0u8..60,
    ) {
        let (builder, ids) = build(&population);
        let commitment = builder.build();
        let root = commitment.root();

        // Every present id has a verifying membership proof and no
        // absence proof.
        for sid in &ids {
            let proof = commitment.membership_proof(sid).unwrap();
            prop_assert!(proof.verify(&root));
            prop_assert!(commitment.absence_proof(sid).is_none());
        }

        // A probe id: exactly one of membership/absence applies.
        let probe_id = SidechainId::from_label(&format!("sc-{probe}"));
        match commitment.membership_proof(&probe_id) {
            Some(proof) => {
                prop_assert!(ids.contains(&probe_id));
                prop_assert!(proof.verify(&root));
            }
            None => {
                let absence = commitment.absence_proof(&probe_id).unwrap();
                prop_assert!(absence.verify(&root));
                prop_assert!(!ids.contains(&probe_id));
            }
        }
    }

    #[test]
    fn prop_proofs_do_not_transfer_across_blocks(
        population_a in proptest::collection::vec((0u8..10, 1u8..4), 1..6),
        population_b in proptest::collection::vec((0u8..10, 1u8..4), 1..6),
    ) {
        let (builder_a, ids_a) = build(&population_a);
        let (builder_b, _) = build(&population_b);
        let commitment_a = builder_a.build();
        let commitment_b = builder_b.build();
        prop_assume!(commitment_a.root() != commitment_b.root());

        for sid in &ids_a {
            let proof = commitment_a.membership_proof(sid).unwrap();
            prop_assert!(
                !proof.verify(&commitment_b.root()),
                "proof for block A must not verify against block B"
            );
        }
    }

    #[test]
    fn prop_root_deterministic_under_insertion_order(
        mut population in proptest::collection::vec((0u8..30, 1u8..4), 1..10),
    ) {
        // Dedup sidechain labels (builder appends FTs per sidechain).
        population.sort();
        population.dedup_by_key(|(sc, _)| *sc);
        let (builder_fwd, _) = build(&population);
        let reversed: Vec<(u8, u8)> = population.iter().rev().copied().collect();
        let (builder_rev, _) = build(&reversed);
        // Per-sidechain FT order is preserved in both (ascending i), so
        // the roots must agree regardless of sidechain insertion order.
        prop_assert_eq!(builder_fwd.build().root(), builder_rev.build().root());
    }
}
