//! Operation counts: how many Poseidon permutations, group
//! multiplications and SHA-256 compressions a piece of work ran, and how
//! many SNARK proofs a circuit verified inside itself.
//!
//! The paper's scaling claims are statements about these counts (a
//! certificate costs the mainchain one proof check whatever the epoch
//! held; an MST write is logarithmic in the occupancy), and a count,
//! unlike a wall clock, is the same on every host. The three primitives
//! bump a counter where they do their work — [`crate::poseidon::permute`],
//! the multiplication layer of [`crate::curve`] (one multi-scalar
//! evaluation, `k·G`, `k·P`, `a·G + b·P`, `a·P + b·Q` or the
//! `g·G + Σ kᵢ·Pᵢ` of a whole signature batch, is one `group_mul`: the
//! unit is the shared chain of doublings, so
//! [`crate::schnorr::verify_batch`] over n signatures counts 1 where n
//! calls of `verify` count n) and the SHA-256 compression function —
//! and [`measure`] reads the difference around a closure. The fourth
//! count, [`OpCount::proof_checks`], is the one event the group layer
//! cannot tell apart from a signature: `zendoo-snark` bumps it
//! ([`proof_check`]) once per SNARK proof a circuit embeds, whether the
//! prover checks it at once (one `group_mul` of its own) or defers it
//! into a layer's batch equation (a share of one).
//!
//! **Three kinds of group multiplication.** Their costs differ several
//! times over, so each is counted apart and [`OpCount::group_muls`] is
//! their sum: [`OpCount::fixed_base`] (`k·G` from the comb: a key, a
//! signature, a simulated proof), [`OpCount::variable_base`] (one Straus
//! evaluation over the GLV split: `k·P`, a verification `a·G + b·P`,
//! `a·P + b·Q`) and [`OpCount::multi_scalar`] (one batch evaluation
//! `g·G + Σ kᵢ·Pᵢ`, whatever its length).
//!
//! **Counts are per calling thread.** Work a call hands to other threads
//! (`zendoo_snark::batch::fan_out` with more than one worker, the sharded
//! tick) is not seen by the caller's [`measure`]: state a claim over a
//! single-threaded call. Lazily built process-wide constants (the
//! Poseidon parameters, `H(Null)`) are charged to whichever call meets
//! them first, so warm the path once before measuring it.

use std::cell::Cell;
use std::ops::{Add, Mul, Sub};

thread_local! {
    static PERMUTATIONS: Cell<u64> = const { Cell::new(0) };
    static FIXED_BASE: Cell<u64> = const { Cell::new(0) };
    static VARIABLE_BASE: Cell<u64> = const { Cell::new(0) };
    static MULTI_SCALAR: Cell<u64> = const { Cell::new(0) };
    static SHA_BLOCKS: Cell<u64> = const { Cell::new(0) };
    static PROOF_CHECKS: Cell<u64> = const { Cell::new(0) };
}

/// What a piece of work cost, in the three operations everything else
/// in the workspace is built from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCount {
    /// Poseidon permutations (one per `hash2` / `hash_leaf`).
    pub permutations: u64,
    /// Group multiplications of every kind: a Schnorr signature or
    /// verification — and so a simulated SNARK proof or its check — is
    /// one, and so is a batch of verifications. Always
    /// `fixed_base + variable_base + multi_scalar`.
    pub group_muls: u64,
    /// Comb multiplications `k·G`: keys, signatures, simulated proofs.
    pub fixed_base: u64,
    /// Single Straus evaluations: `k·P`, `a·G + b·P`, `a·P + b·Q` (a
    /// verification, a simulated proof's eager check).
    pub variable_base: u64,
    /// Batch evaluations `g·G + Σ kᵢ·Pᵢ`, one per batch.
    pub multi_scalar: u64,
    /// SHA-256 compressions (64-byte blocks).
    pub sha_blocks: u64,
    /// In-circuit SNARK verifications. Checked eagerly each is also one
    /// of the `group_muls`; `zendoo_snark::circuit::gadget_cost::price`
    /// prices it at `PROOF_VERIFY` and the group multiplications left
    /// over as signatures.
    pub proof_checks: u64,
}

impl Sub for OpCount {
    type Output = OpCount;

    fn sub(self, earlier: OpCount) -> OpCount {
        OpCount {
            permutations: self.permutations - earlier.permutations,
            group_muls: self.group_muls - earlier.group_muls,
            fixed_base: self.fixed_base - earlier.fixed_base,
            variable_base: self.variable_base - earlier.variable_base,
            multi_scalar: self.multi_scalar - earlier.multi_scalar,
            sha_blocks: self.sha_blocks - earlier.sha_blocks,
            proof_checks: self.proof_checks - earlier.proof_checks,
        }
    }
}

impl Add for OpCount {
    type Output = OpCount;

    fn add(self, other: OpCount) -> OpCount {
        OpCount {
            permutations: self.permutations + other.permutations,
            group_muls: self.group_muls + other.group_muls,
            fixed_base: self.fixed_base + other.fixed_base,
            variable_base: self.variable_base + other.variable_base,
            multi_scalar: self.multi_scalar + other.multi_scalar,
            sha_blocks: self.sha_blocks + other.sha_blocks,
            proof_checks: self.proof_checks + other.proof_checks,
        }
    }
}

/// `cost * n`: what `n` repetitions cost, so a claim reads as the
/// equation it is (`chain == base * n + merge * (n - 1)`).
impl Mul<u64> for OpCount {
    type Output = OpCount;

    fn mul(self, times: u64) -> OpCount {
        OpCount {
            permutations: self.permutations * times,
            group_muls: self.group_muls * times,
            fixed_base: self.fixed_base * times,
            variable_base: self.variable_base * times,
            multi_scalar: self.multi_scalar * times,
            sha_blocks: self.sha_blocks * times,
            proof_checks: self.proof_checks * times,
        }
    }
}

#[inline]
fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    counter.with(|n| n.set(n.get() + 1));
}

#[inline]
pub(crate) fn permutation() {
    bump(&PERMUTATIONS);
}

#[inline]
pub(crate) fn fixed_base() {
    bump(&FIXED_BASE);
}

#[inline]
pub(crate) fn variable_base() {
    bump(&VARIABLE_BASE);
}

#[inline]
pub(crate) fn multi_scalar() {
    bump(&MULTI_SCALAR);
}

#[inline]
pub(crate) fn sha_blocks(n: u64) {
    SHA_BLOCKS.with(|count| count.set(count.get() + n));
}

/// Counts one SNARK verification embedded in a circuit. The proving
/// system calls it where a circuit owes such a check; nothing else
/// should.
#[inline]
pub fn proof_check() {
    bump(&PROOF_CHECKS);
}

/// Everything this thread has run so far.
fn so_far() -> OpCount {
    let (fixed_base, variable_base, multi_scalar) =
        (FIXED_BASE.get(), VARIABLE_BASE.get(), MULTI_SCALAR.get());
    OpCount {
        permutations: PERMUTATIONS.get(),
        group_muls: fixed_base + variable_base + multi_scalar,
        fixed_base,
        variable_base,
        multi_scalar,
        sha_blocks: SHA_BLOCKS.get(),
        proof_checks: PROOF_CHECKS.get(),
    }
}

/// Runs `f` and returns its result with what it cost *on this thread*.
/// Calls nest: an outer measurement includes the inner ones.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, OpCount) {
    let before = so_far();
    let out = f();
    (out, so_far() - before)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::Fp;
    use crate::poseidon::hash2;
    use crate::schnorr::Keypair;
    use crate::sha256::sha256;

    fn work() -> Fp {
        hash2(&Fp::from_u64(1), &Fp::from_u64(2))
    }

    #[test]
    fn each_primitive_bumps_its_own_counter() {
        work();
        let kp = Keypair::from_seed(b"opcount");
        let (sig, sign) = measure(|| kp.secret.sign("opcount", b"m"));
        assert_eq!((sign.group_muls, sign.fixed_base), (1, 1));
        assert_eq!(sign.permutations, 0);
        let (ok, verify) = measure(|| kp.public.verify("opcount", b"m", &sig));
        assert!(ok);
        assert_eq!((verify.group_muls, verify.variable_base), (1, 1));
        let item = ("opcount", &kp.public, &b"m"[..], &sig);
        let (ok, batch) = measure(|| crate::schnorr::verify_batch(&[item, item]));
        assert!(ok);
        assert_eq!((batch.group_muls, batch.multi_scalar), (1, 1));
        let (_, hash) = measure(work);
        assert_eq!(
            hash,
            OpCount {
                permutations: 1,
                ..OpCount::default()
            }
        );
        // 55 bytes and the padding fill one block, 56 spill into a second.
        assert_eq!(measure(|| sha256(&[0; 55])).1.sha_blocks, 1);
        assert_eq!(measure(|| sha256(&[0; 56])).1.sha_blocks, 2);
    }

    /// The per-thread rule, and why no claim is stated over a parallel
    /// call: what a scoped worker runs (here exactly what
    /// `zendoo_snark::batch::fan_out(items, 2, …)` does with two items)
    /// never reaches the caller's counters. Nested measurements compose.
    #[test]
    fn counts_are_per_thread_and_nest() {
        work();
        let ((inner, spawned), outer) = measure(|| {
            work();
            let (_, inner) = measure(|| {
                work();
                work();
            });
            let spawned = std::thread::scope(|scope| {
                let lanes = [
                    scope.spawn(|| measure(work).1),
                    scope.spawn(|| measure(work).1),
                ];
                lanes.map(|lane| lane.join().expect("worker thread panicked"))
            });
            work();
            (inner, spawned)
        });
        assert_eq!(inner.permutations, 2);
        assert_eq!(spawned.map(|lane| lane.permutations), [1, 1]);
        assert_eq!(outer.permutations, 4, "1 + 2 nested + 0 spawned + 1");
    }
}
