//! The Latus consensus lottery (paper §5.1): Ouroboros-style slot
//! leadership with stake-proportional VRF thresholds. This example
//! snapshots a stake distribution, runs the private lottery for every
//! stakeholder over two consensus epochs, and shows that leadership
//! frequency tracks stake while every claim is publicly verifiable.
//!
//! ```text
//! cargo run --example latus_consensus
//! ```

use zendoo::core::ids::{Address, Amount};
use zendoo::latus::consensus::{
    try_lead_slot, verify_block_leadership, ConsensusParams, StakeDistribution,
};
use zendoo::primitives::schnorr::Keypair;

fn main() {
    println!("=== Latus slot-leader lottery (Ouroboros-style) ===\n");

    // Four stakeholders with different stakes.
    let stakes = [
        ("alice", 400_000u64),
        ("bob", 300_000),
        ("carol", 200_000),
        ("dave", 100_000),
    ];
    let keys: Vec<(&str, Keypair)> = stakes
        .iter()
        .map(|(name, _)| (*name, Keypair::from_seed(name.as_bytes())))
        .collect();
    let distribution =
        StakeDistribution::from_entries(keys.iter().zip(&stakes).map(|((_, kp), (_, stake))| {
            (
                Address::from_public_key(&kp.public),
                Amount::from_units(*stake),
            )
        }));

    let params = ConsensusParams {
        slots_per_epoch: 500,
        active_slots_coeff: 0.25,
        ..ConsensusParams::default()
    };
    println!(
        "{} stakeholders, total stake {}, f = {}",
        distribution.len(),
        distribution.total(),
        params.active_slots_coeff
    );
    println!("thresholds φ_f(α) = 1 − (1 − f)^α:");
    for (name, kp) in &keys {
        let alpha = distribution.relative_stake(&Address::from_public_key(&kp.public));
        println!(
            "  {name:6} α = {alpha:.2}  φ = {:.4}",
            params.threshold(alpha)
        );
    }

    // Run the lottery over two consensus epochs (1000 slots).
    let slots = 2 * params.slots_per_epoch;
    let mut counts = vec![0u32; keys.len()];
    let mut verified = 0u64;
    let mut empty_slots = 0u64;
    for slot in 0..slots {
        let mut any = false;
        for (i, (_, kp)) in keys.iter().enumerate() {
            if let Some(proof) = try_lead_slot(&params, &distribution, &kp.secret, slot) {
                // Every claim must verify publicly, as a block header's.
                assert!(verify_block_leadership(
                    &params,
                    &distribution,
                    &kp.public,
                    slot,
                    Some(&proof)
                ));
                verified += 1;
                counts[i] += 1;
                any = true;
            }
        }
        if !any {
            empty_slots += 1;
        }
    }

    println!("\nover {slots} slots:");
    for ((name, _), count) in keys.iter().zip(&counts) {
        println!("  {name:6} led {count:4} slots");
    }
    println!(
        "  empty slots: {empty_slots} ({:.1}% — expected ≈ {:.1}%)",
        100.0 * empty_slots as f64 / slots as f64,
        100.0 * (1.0 - params.active_slots_coeff),
    );
    println!("  all {verified} leadership claims verified");

    // Leadership ratio alice:dave should approximate φ(0.4)/φ(0.1).
    let expected = params.threshold(0.4) / params.threshold(0.1);
    let observed = counts[0] as f64 / counts[3].max(1) as f64;
    println!(
        "\nalice:dave leadership ratio = {observed:.2} (stake-threshold ratio ≈ {expected:.2})"
    );
}
