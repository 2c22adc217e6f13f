//! Ouroboros-style proof-of-stake consensus for Latus (paper §5.1).
//!
//! Time is divided into consensus epochs of `slots_per_epoch` slots. A
//! stakeholder is the leader of a slot when its VRF evaluation over
//! `(epoch_randomness ‖ slot)` falls below the stake-proportional
//! threshold `φ_f(α) = 1 − (1 − f)^α` (the Praos threshold, which makes
//! leadership probability independent of stake splitting).
//!
//! The stake distribution is snapshotted at the epoch boundary
//! ("the stake distribution SD is fixed before the epoch begins") and
//! the epoch randomness is derived from a hash chain seeded at genesis —
//! a simulated randomness beacon standing in for Ouroboros's VRF-output
//! folding.

use std::collections::BTreeMap;
use zendoo_core::ids::{Address, Amount};
use zendoo_primitives::digest::Digest32;
use zendoo_primitives::schnorr::{PublicKey, SecretKey};
use zendoo_primitives::vrf::{self, VrfOutput, VrfProof};

use crate::state::SidechainState;

/// Consensus parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConsensusParams {
    /// Slots per consensus epoch (`k` in §5.1).
    pub slots_per_epoch: u64,
    /// The active-slots coefficient `f`: the fraction of slots expected
    /// to have at least one leader.
    pub active_slots_coeff: f64,
    /// Seed of the simulated randomness beacon.
    pub randomness_seed: Digest32,
    /// The bootstrap authority: a forger allowed to produce blocks
    /// regardless of stake. Real deployments distribute genesis stake
    /// instead; the authority keeps single-forger simulations honest
    /// about their trust model.
    pub bootstrap_forger: Option<PublicKey>,
}

impl Default for ConsensusParams {
    fn default() -> Self {
        ConsensusParams {
            slots_per_epoch: 100,
            active_slots_coeff: 0.25,
            randomness_seed: Digest32::hash_bytes(b"zendoo/consensus-seed"),
            bootstrap_forger: None,
        }
    }
}

impl ConsensusParams {
    /// Default parameters with a bootstrap authority installed.
    pub fn with_bootstrap(forger: PublicKey) -> Self {
        ConsensusParams {
            bootstrap_forger: Some(forger),
            ..ConsensusParams::default()
        }
    }

    /// Returns `true` if `forger` is the bootstrap authority.
    pub fn is_bootstrap_forger(&self, forger: &PublicKey) -> bool {
        self.bootstrap_forger.as_ref() == Some(forger)
    }

    /// The consensus epoch containing `slot`.
    pub fn epoch_of_slot(&self, slot: u64) -> u64 {
        slot / self.slots_per_epoch
    }

    /// The randomness `η_e` for a consensus epoch (hash-chained beacon).
    pub fn epoch_randomness(&self, epoch: u64) -> Digest32 {
        let mut eta = self.randomness_seed;
        for e in 0..=epoch {
            eta = Digest32::hash_tagged(
                "zendoo/epoch-randomness",
                &[eta.as_bytes(), &e.to_be_bytes()],
            );
        }
        eta
    }

    /// The Praos threshold `φ_f(α) = 1 − (1 − f)^α` for relative stake
    /// `alpha ∈ [0, 1]`.
    pub fn threshold(&self, alpha: f64) -> f64 {
        1.0 - (1.0 - self.active_slots_coeff).powf(alpha.clamp(0.0, 1.0))
    }
}

/// The stake distribution `SD_Ep` fixed before an epoch begins.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StakeDistribution {
    stakes: BTreeMap<Address, Amount>,
    total: Amount,
}

impl StakeDistribution {
    /// Snapshots the distribution from a sidechain state (stake = sum of
    /// held UTXOs per address).
    pub fn snapshot(state: &SidechainState) -> Self {
        let mut stakes: BTreeMap<Address, Amount> = BTreeMap::new();
        for (_, utxo) in state.mst().iter() {
            let entry = stakes.entry(utxo.address).or_insert(Amount::ZERO);
            *entry = entry
                .checked_add(utxo.amount)
                .expect("sidechain supply fits in u64");
        }
        let total =
            Amount::checked_sum(stakes.values().copied()).expect("sidechain supply fits in u64");
        StakeDistribution { stakes, total }
    }

    /// Builds a distribution from explicit entries (tests/bootstrap).
    pub fn from_entries<I: IntoIterator<Item = (Address, Amount)>>(entries: I) -> Self {
        let mut stakes = BTreeMap::new();
        for (address, amount) in entries {
            stakes.insert(address, amount);
        }
        let total = Amount::checked_sum(stakes.values().copied()).expect("stake total fits in u64");
        StakeDistribution { stakes, total }
    }

    /// The stake of one address.
    pub fn stake_of(&self, address: &Address) -> Amount {
        self.stakes.get(address).copied().unwrap_or(Amount::ZERO)
    }

    /// Total staked value.
    pub fn total(&self) -> Amount {
        self.total
    }

    /// Relative stake `α` of an address.
    pub fn relative_stake(&self, address: &Address) -> f64 {
        if self.total.is_zero() {
            return 0.0;
        }
        self.stake_of(address).units() as f64 / self.total.units() as f64
    }

    /// Number of distinct stakeholders.
    pub fn len(&self) -> usize {
        self.stakes.len()
    }

    /// Returns `true` if nobody holds stake.
    pub fn is_empty(&self) -> bool {
        self.stakes.is_empty()
    }
}

/// The VRF message for a slot.
fn slot_message(params: &ConsensusParams, slot: u64) -> Vec<u8> {
    let epoch = params.epoch_of_slot(slot);
    let eta = params.epoch_randomness(epoch);
    let mut msg = Vec::with_capacity(40);
    msg.extend_from_slice(eta.as_bytes());
    msg.extend_from_slice(&slot.to_be_bytes());
    msg
}

/// Evidence of slot leadership.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LeadershipProof {
    /// The slot claimed.
    pub slot: u64,
    /// The VRF output (below the stakeholder's threshold).
    pub output: VrfOutput,
    /// The VRF proof.
    pub proof: VrfProof,
}

/// Evaluates the slot-leader lottery for a stakeholder
/// (the `Select` procedure of §5.1, evaluated locally and privately as
/// in Praos).
///
/// Returns `Some` when `VRF(sk, η ‖ slot) < φ_f(α)`.
pub fn try_lead_slot(
    params: &ConsensusParams,
    distribution: &StakeDistribution,
    sk: &SecretKey,
    slot: u64,
) -> Option<LeadershipProof> {
    let address = Address::from_public_key(&sk.public_key());
    let alpha = distribution.relative_stake(&address);
    if alpha <= 0.0 {
        return None;
    }
    let (output, proof) = vrf::prove(sk, &slot_message(params, slot));
    if output.as_unit_fraction() < params.threshold(alpha) {
        Some(LeadershipProof {
            slot,
            output,
            proof,
        })
    } else {
        None
    }
}

/// Verifies a leadership claim for `pk` at `slot` under the epoch's
/// distribution.
pub fn verify_leadership(
    params: &ConsensusParams,
    distribution: &StakeDistribution,
    pk: &PublicKey,
    claim: &LeadershipProof,
) -> bool {
    let address = Address::from_public_key(pk);
    let alpha = distribution.relative_stake(&address);
    if alpha <= 0.0 {
        return false;
    }
    let Some(output) = vrf::verify(pk, &slot_message(params, claim.slot), &claim.proof) else {
        return false;
    };
    output == claim.output && output.as_unit_fraction() < params.threshold(alpha)
}

/// Verifies the leadership embedded in a block header: the VRF proof
/// must be valid for `(η ‖ slot)` under the forger's key and its output
/// below the forger's stake threshold. Used by validating (non-forging)
/// nodes.
pub fn verify_block_leadership(
    params: &ConsensusParams,
    distribution: &StakeDistribution,
    forger: &PublicKey,
    slot: u64,
    proof: &VrfProof,
) -> bool {
    let address = Address::from_public_key(forger);
    let alpha = distribution.relative_stake(&address);
    if alpha <= 0.0 {
        return false;
    }
    match vrf::verify(forger, &slot_message(params, slot), proof) {
        Some(output) => output.as_unit_fraction() < params.threshold(alpha),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zendoo_primitives::schnorr::Keypair;

    fn params() -> ConsensusParams {
        ConsensusParams::default()
    }

    fn two_party_distribution(a: &Keypair, b: &Keypair, sa: u64, sb: u64) -> StakeDistribution {
        StakeDistribution::from_entries([
            (Address::from_public_key(&a.public), Amount::from_units(sa)),
            (Address::from_public_key(&b.public), Amount::from_units(sb)),
        ])
    }

    #[test]
    fn threshold_monotone_in_stake() {
        let p = params();
        assert!(p.threshold(0.0) < p.threshold(0.1));
        assert!(p.threshold(0.1) < p.threshold(0.5));
        assert!(p.threshold(0.5) < p.threshold(1.0));
        assert!((p.threshold(1.0) - p.active_slots_coeff).abs() < 1e-9);
    }

    #[test]
    fn epoch_randomness_differs_per_epoch() {
        let p = params();
        assert_ne!(p.epoch_randomness(0), p.epoch_randomness(1));
        assert_eq!(p.epoch_randomness(3), p.epoch_randomness(3));
    }

    #[test]
    fn leadership_verifies_and_binds_slot() {
        let alice = Keypair::from_seed(b"alice");
        let bob = Keypair::from_seed(b"bob");
        let dist = two_party_distribution(&alice, &bob, 50, 50);
        let p = params();
        // Find a slot alice leads (f=0.25, α=0.5 ⇒ φ≈0.134; a few hundred
        // slots suffice).
        let mut found = None;
        for slot in 0..5_000 {
            if let Some(claim) = try_lead_slot(&p, &dist, &alice.secret, slot) {
                found = Some(claim);
                break;
            }
        }
        let claim = found.expect("alice leads some slot");
        assert!(verify_leadership(&p, &dist, &alice.public, &claim));
        // Bob cannot reuse alice's claim.
        assert!(!verify_leadership(&p, &dist, &bob.public, &claim));
        // A different slot invalidates the proof.
        let mut wrong_slot = claim.clone();
        wrong_slot.slot += 1;
        assert!(!verify_leadership(&p, &dist, &alice.public, &wrong_slot));
    }

    #[test]
    fn zero_stake_never_leads() {
        let alice = Keypair::from_seed(b"alice");
        let nobody = Keypair::from_seed(b"nobody");
        let dist = StakeDistribution::from_entries([(
            Address::from_public_key(&alice.public),
            Amount::from_units(100),
        )]);
        let p = params();
        for slot in 0..500 {
            assert!(try_lead_slot(&p, &dist, &nobody.secret, slot).is_none());
        }
    }

    #[test]
    fn leadership_frequency_tracks_stake() {
        // E7: leadership ∝ stake. Alice holds 75%, Bob 25%.
        let alice = Keypair::from_seed(b"alice");
        let bob = Keypair::from_seed(b"bob");
        let dist = two_party_distribution(&alice, &bob, 75, 25);
        let p = params();
        let slots = 4_000u64;
        let mut alice_leads = 0u32;
        let mut bob_leads = 0u32;
        for slot in 0..slots {
            if try_lead_slot(&p, &dist, &alice.secret, slot).is_some() {
                alice_leads += 1;
            }
            if try_lead_slot(&p, &dist, &bob.secret, slot).is_some() {
                bob_leads += 1;
            }
        }
        let ratio = alice_leads as f64 / bob_leads.max(1) as f64;
        // φ(0.75)/φ(0.25) ≈ 0.1941/0.0694 ≈ 2.80 — allow generous slack.
        assert!(
            (1.8..4.5).contains(&ratio),
            "alice {alice_leads}, bob {bob_leads}, ratio {ratio}"
        );
    }

    #[test]
    fn snapshot_from_state_counts_utxos() {
        let mut state = SidechainState::new(10);
        let alice = Address::from_label("alice");
        for i in 0..3u8 {
            state
                .mst_mut()
                .add(&crate::mst::Utxo {
                    address: alice,
                    amount: Amount::from_units(10),
                    nonce: Digest32::hash_bytes(&[i]),
                })
                .unwrap();
        }
        let dist = StakeDistribution::snapshot(&state);
        assert_eq!(dist.stake_of(&alice), Amount::from_units(30));
        assert_eq!(dist.total(), Amount::from_units(30));
        assert!((dist.relative_stake(&alice) - 1.0).abs() < 1e-12);
    }
}
