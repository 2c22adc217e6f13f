//! Proof-of-work: targets, work accounting, mining.
//!
//! The mainchain is "a classical proof-of-work based blockchain system
//! with Nakamoto consensus" (§5). Difficulty is a chain parameter (no
//! retargeting — the experiments run at fixed test difficulty), but work
//! accounting is exact so cumulative-work fork choice behaves correctly
//! even across chains with different targets.

use zendoo_primitives::bigint::U256;
use zendoo_primitives::digest::Digest32;

/// A proof-of-work target: a block hash must be numerically ≤ the target.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Target(pub [u8; 32]);

impl Target {
    /// The easiest possible target (every hash qualifies).
    pub const EASIEST: Target = Target([0xff; 32]);

    /// A target with `zero_bits` leading zero bits — each bit doubles the
    /// expected mining work.
    pub fn with_leading_zero_bits(zero_bits: u32) -> Self {
        let mut value = U256::MAX;
        for _ in 0..zero_bits.min(255) {
            value = value.shr1();
        }
        Target(value.to_be_bytes())
    }

    fn as_u256(&self) -> U256 {
        U256::from_be_bytes(&self.0)
    }

    /// Returns `true` if `hash` satisfies this target.
    pub fn is_met_by(&self, hash: &Digest32) -> bool {
        U256::from_be_bytes(hash.as_bytes()).const_cmp(&self.as_u256()) <= 0
    }

    /// Expected number of hash evaluations to find a block:
    /// `2^256 / (target + 1)`, computed over the top 128 bits.
    ///
    /// The result saturates at `u128::MAX` for absurd targets; at the test
    /// difficulties used here it is exact enough for fork choice.
    pub fn work(&self) -> u128 {
        let limbs = self.as_u256().limbs();
        let top = ((limbs[3] as u128) << 64) | limbs[2] as u128;
        if top == u128::MAX {
            return 1;
        }
        // 2^128 / (top+1) with rounding up to keep work >= 1.
        (u128::MAX / (top + 1)).max(1)
    }
}

/// Searches nonces until `header_hash(nonce)` meets `target`.
///
/// `hash_with_nonce` must re-hash the candidate header with the given
/// nonce. Returns the successful nonce, or `None` after `max_attempts`.
pub fn mine<F: FnMut(u64) -> Digest32>(
    target: &Target,
    mut hash_with_nonce: F,
    max_attempts: u64,
) -> Option<u64> {
    (0..max_attempts).find(|nonce| target.is_met_by(&hash_with_nonce(*nonce)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn easiest_target_accepts_anything() {
        assert!(Target::EASIEST.is_met_by(&Digest32([0xff; 32])));
        assert!(Target::EASIEST.is_met_by(&Digest32::ZERO));
    }

    #[test]
    fn leading_zero_bits_reject_high_hashes() {
        let target = Target::with_leading_zero_bits(8);
        // 8 leading zero bits: the first byte must be zero.
        let mut hash = [0xffu8; 32];
        hash[0] = 0x00;
        assert!(target.is_met_by(&Digest32(hash)));
        hash[0] = 0x01;
        assert!(!target.is_met_by(&Digest32(hash)));
    }

    #[test]
    fn work_doubles_per_zero_bit() {
        let w8 = Target::with_leading_zero_bits(8).work();
        let w9 = Target::with_leading_zero_bits(9).work();
        let w10 = Target::with_leading_zero_bits(10).work();
        assert!(w9 >= 2 * w8 - 2 && w9 <= 2 * w8 + 2, "w8={w8} w9={w9}");
        assert!(w10 >= 2 * w9 - 2 && w10 <= 2 * w9 + 2);
    }

    #[test]
    fn mining_finds_nonce_at_low_difficulty() {
        let target = Target::with_leading_zero_bits(8);
        let nonce = mine(
            &target,
            |n| Digest32::hash_tagged("pow-test", &[&n.to_be_bytes()]),
            100_000,
        )
        .expect("8 zero bits is easy");
        let hash = Digest32::hash_tagged("pow-test", &[&nonce.to_be_bytes()]);
        assert!(target.is_met_by(&hash));
    }

    #[test]
    fn mining_gives_up_after_max_attempts() {
        let target = Target(Digest32::ZERO.0);
        assert_eq!(
            mine(&target, |n| Digest32::hash_bytes(&n.to_be_bytes()), 10),
            None
        );
    }
}
