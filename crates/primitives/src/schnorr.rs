//! Schnorr signatures over secp256k1.
//!
//! Authorizes mainchain transaction inputs, sidechain payment/backward
//! transactions, BTR/CSW spending rights (§5.5.3.2), and serves as the
//! attestation primitive inside the simulated SNARK backend.
//!
//! The scheme is the classic `(R, s)` Schnorr with deterministic
//! RFC-6979-style nonces: `s = k + e·sk`, `e = H(R ‖ PK ‖ m)`.

use crate::curve::{AffinePoint, JacobianPoint};
use crate::field::Fr;
use crate::sha256::{sha256_tagged, Sha256};
use rand::Rng;
use std::collections::hash_map::{Entry, HashMap};
use std::fmt;

/// A Schnorr secret key (a nonzero scalar), with its public key derived
/// once at construction: signing hashes the public key into the
/// challenge, and deriving it is a full scalar multiplication.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SecretKey {
    scalar: Fr,
    public: PublicKey,
}

impl SecretKey {
    fn from_scalar(scalar: Fr) -> Self {
        SecretKey {
            scalar,
            public: PublicKey(JacobianPoint::mul_generator(&scalar).to_affine()),
        }
    }

    /// Generates a fresh random secret key.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        loop {
            let sk = Fr::random(rng);
            if !sk.is_zero() {
                return SecretKey::from_scalar(sk);
            }
        }
    }

    /// Derives a secret key deterministically from seed bytes
    /// (for reproducible tests and simulations).
    pub fn from_seed(seed: &[u8]) -> Self {
        let digest = sha256_tagged("zendoo/sk", &[seed]);
        let sk = Fr::from_be_bytes_reduced(&digest);
        if sk.is_zero() {
            // Probability 2^-256; re-derive for totality.
            SecretKey::from_seed(&digest)
        } else {
            SecretKey::from_scalar(sk)
        }
    }

    /// The corresponding public key.
    pub fn public_key(&self) -> PublicKey {
        self.public
    }

    /// The underlying scalar (used by the VRF, which shares keys).
    pub(crate) fn scalar(&self) -> Fr {
        self.scalar
    }

    /// Signs `msg`, domain-separated by `context`.
    pub fn sign(&self, context: &str, msg: &[u8]) -> Signature {
        // Deterministic nonce: k = H(sk ‖ ctx ‖ m), rejecting k = 0.
        let k_bytes = sha256_tagged(
            "zendoo/schnorr-nonce",
            &[&self.scalar.to_be_bytes(), context.as_bytes(), msg],
        );
        let mut k = Fr::from_be_bytes_reduced(&k_bytes);
        if k.is_zero() {
            k = Fr::one();
        }
        let r_point = JacobianPoint::mul_generator(&k).to_affine();
        let e = challenge(context, &r_point, &self.public, msg);
        let s = k + e * self.scalar;
        Signature { r: r_point, s }
    }
}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material.
        write!(f, "SecretKey(<redacted>)")
    }
}

/// A Schnorr public key (a curve point).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PublicKey(AffinePoint);

impl PublicKey {
    /// The underlying curve point.
    pub fn point(&self) -> AffinePoint {
        self.0
    }

    /// Compressed 33-byte encoding.
    pub fn to_bytes(&self) -> [u8; 33] {
        self.0.to_compressed()
    }

    /// Decodes a compressed public key.
    pub fn from_bytes(bytes: &[u8; 33]) -> Option<Self> {
        AffinePoint::from_compressed(bytes).map(PublicKey)
    }

    /// Verifies `sig` over `msg` under this key: `s·G − e·PK == R`, the
    /// left side in one interleaved pass and the comparison projective.
    pub fn verify(&self, context: &str, msg: &[u8], sig: &Signature) -> bool {
        if self.0.is_identity() || sig.r.is_identity() {
            return false;
        }
        let e = challenge(context, &sig.r, self, msg);
        JacobianPoint::lincomb_generator(&sig.s, &-e, &self.0).eq_affine(&sig.r)
    }
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bytes = self.to_bytes();
        write!(f, "PublicKey(")?;
        for b in &bytes[..6] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "…)")
    }
}

/// A Schnorr signature `(R, s)`; 65 bytes serialized.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Signature {
    r: AffinePoint,
    s: Fr,
}

impl Signature {
    /// Serializes as `R.compressed ‖ s` (65 bytes).
    pub fn to_bytes(&self) -> [u8; 65] {
        let mut out = [0u8; 65];
        out[..33].copy_from_slice(&self.r.to_compressed());
        out[33..].copy_from_slice(&self.s.to_be_bytes());
        out
    }

    /// Parses a 65-byte signature.
    pub fn from_bytes(bytes: &[u8; 65]) -> Option<Self> {
        let mut r_bytes = [0u8; 33];
        r_bytes.copy_from_slice(&bytes[..33]);
        let mut s_bytes = [0u8; 32];
        s_bytes.copy_from_slice(&bytes[33..]);
        Some(Signature {
            r: AffinePoint::from_compressed(&r_bytes)?,
            s: Fr::from_be_bytes_canonical(&s_bytes)?,
        })
    }
}

/// A keypair convenience bundle.
#[derive(Clone, Debug)]
pub struct Keypair {
    /// The secret half.
    pub secret: SecretKey,
    /// The public half.
    pub public: PublicKey,
}

impl Keypair {
    /// Generates a fresh keypair.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let secret = SecretKey::random(rng);
        Keypair {
            public: secret.public_key(),
            secret,
        }
    }

    /// Deterministic keypair from a seed (tests/simulations).
    pub fn from_seed(seed: &[u8]) -> Self {
        let secret = SecretKey::from_seed(seed);
        Keypair {
            public: secret.public_key(),
            secret,
        }
    }
}

/// Verifies a batch of `(context, key, message, signature)` with one
/// multi-scalar evaluation: `Σ zᵢ·Rᵢ + Σ zᵢeᵢ·PKᵢ − (Σ zᵢsᵢ)·G` is the
/// identity when every signature satisfies `sᵢ·G − eᵢ·PKᵢ == Rᵢ`, and
/// for a batch holding any that does not, only with probability `2⁻¹²⁸`
/// over the coefficients `zᵢ`. Those are hashed from the whole batch —
/// every context, key, message and signature — so they repeat from run
/// to run and no signer can pick a signature after seeing its own.
///
/// Items under one key share one term, `(Σ zᵢeᵢ)·PK`: a batch of n
/// signatures by k keys is n + k points, and what each further
/// signature under a known key adds is its 128-bit `zᵢ·Rᵢ`. A prover's
/// merge layer, whose children are attested by two keys, is that case.
///
/// `true` says every signature is valid; `false` says some signature is
/// not, and not which: the caller re-verifies one by one to find it.
/// An empty batch is vacuously valid and a batch of one *is*
/// [`PublicKey::verify`].
pub fn verify_batch(items: &[(&str, &PublicKey, &[u8], &Signature)]) -> bool {
    match items {
        [] => return true,
        [(context, pk, msg, sig)] => return pk.verify(context, msg, sig),
        _ => {}
    }
    // What `verify` rejects before it multiplies, rejected before any
    // table is built: the identity has no multiples to tabulate.
    if items
        .iter()
        .any(|(_, pk, _, sig)| pk.0.is_identity() || sig.r.is_identity())
    {
        return false;
    }
    let mut transcript = Sha256::new();
    for (context, pk, msg, sig) in items {
        transcript.update(&(context.len() as u64).to_be_bytes());
        transcript.update(context.as_bytes());
        transcript.update(&pk.to_bytes());
        transcript.update(&(msg.len() as u64).to_be_bytes());
        transcript.update(msg);
        transcript.update(&sig.to_bytes());
    }
    let transcript = transcript.finalize();
    let mut g = Fr::ZERO;
    let mut terms: Vec<(Fr, AffinePoint)> = Vec::with_capacity(2 * items.len());
    // The term of each key seen so far, by position in `terms`.
    let mut key_terms: HashMap<&PublicKey, usize> = HashMap::new();
    for (i, (context, pk, msg, sig)) in items.iter().enumerate() {
        let digest = sha256_tagged(
            "zendoo/schnorr-batch-z",
            &[&transcript, &(i as u64).to_be_bytes()],
        );
        // The low half of the digest: 128 bits keep `z·R` at half the
        // additions of a full scalar.
        let mut z = [0u8; 32];
        z[16..].copy_from_slice(&digest[16..]);
        let z = Fr::from_be_bytes_reduced(&z);
        g -= z * sig.s;
        let ze = z * challenge(context, &sig.r, pk, msg);
        match key_terms.entry(*pk) {
            Entry::Occupied(at) => terms[*at.get()].0 += ze,
            Entry::Vacant(slot) => {
                slot.insert(terms.len());
                terms.push((ze, pk.0));
            }
        }
        terms.push((z, sig.r));
    }
    JacobianPoint::lincomb_many(&g, &terms).is_some_and(|sum| sum.is_identity())
}

/// Fiat–Shamir challenge `e = H(ctx ‖ R ‖ PK ‖ m)` as a scalar.
fn challenge(context: &str, r: &AffinePoint, pk: &PublicKey, msg: &[u8]) -> Fr {
    let digest = sha256_tagged(
        "zendoo/schnorr-challenge",
        &[context.as_bytes(), &r.to_compressed(), &pk.to_bytes(), msg],
    );
    Fr::from_be_bytes_reduced(&digest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(99)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = Keypair::random(&mut rng());
        let sig = kp.secret.sign("test", b"message");
        assert!(kp.public.verify("test", b"message", &sig));
    }

    #[test]
    fn verification_rejects_wrong_message() {
        let kp = Keypair::random(&mut rng());
        let sig = kp.secret.sign("test", b"message");
        assert!(!kp.public.verify("test", b"other", &sig));
    }

    #[test]
    fn verification_rejects_wrong_context() {
        let kp = Keypair::random(&mut rng());
        let sig = kp.secret.sign("ctx-a", b"message");
        assert!(!kp.public.verify("ctx-b", b"message", &sig));
    }

    #[test]
    fn verification_rejects_wrong_key() {
        let mut r = rng();
        let kp1 = Keypair::random(&mut r);
        let kp2 = Keypair::random(&mut r);
        let sig = kp1.secret.sign("test", b"message");
        assert!(!kp2.public.verify("test", b"message", &sig));
    }

    #[test]
    fn signature_bytes_roundtrip() {
        let kp = Keypair::random(&mut rng());
        let sig = kp.secret.sign("test", b"message");
        let decoded = Signature::from_bytes(&sig.to_bytes()).unwrap();
        assert_eq!(sig, decoded);
        assert!(kp.public.verify("test", b"message", &decoded));
    }

    #[test]
    fn tampered_signature_fails() {
        let kp = Keypair::random(&mut rng());
        let sig = kp.secret.sign("test", b"message");
        let mut bytes = sig.to_bytes();
        bytes[40] ^= 1;
        if let Some(bad) = Signature::from_bytes(&bytes) {
            assert!(!kp.public.verify("test", b"message", &bad));
        }
    }

    #[test]
    fn hostile_signatures_fail() {
        let kp = Keypair::from_seed(b"victim");
        let sig = kp.secret.sign("test", b"message");
        assert!(kp.public.verify("test", b"message", &sig));
        let identity = AffinePoint::identity();
        let rejected = |pk: &PublicKey, r, s| !pk.verify("test", b"message", &Signature { r, s });
        // R = identity, alone and with the s that would balance it.
        assert!(rejected(&kp.public, identity, sig.s));
        assert!(rejected(&kp.public, identity, Fr::ZERO));
        // PK = identity: s·G − e·0 = R holds for R = s·G, and must not pass.
        let r = JacobianPoint::mul_generator(&sig.s).to_affine();
        assert!(rejected(&PublicKey(identity), r, sig.s));
        // s off by one in either direction, R negated.
        assert!(rejected(&kp.public, sig.r, sig.s + Fr::one()));
        assert!(rejected(&kp.public, sig.r, sig.s - Fr::one()));
        assert!(rejected(&kp.public, sig.r.negate(), sig.s));
        assert!(rejected(&kp.public, sig.r.negate(), -sig.s));
        // A valid signature does not transfer to the negated key.
        assert!(rejected(&PublicKey(kp.public.0.negate()), sig.r, sig.s));

        // The same forgeries inside an otherwise valid batch: a typed
        // `false`, never a panic from a table of identities.
        let good = signed(4);
        assert!(batch_ok(&good));
        let forged = [
            (kp.public, identity, sig.s),
            (kp.public, identity, Fr::ZERO),
            (PublicKey(identity), r, sig.s),
            (PublicKey(identity), identity, Fr::ZERO),
            (kp.public, sig.r, sig.s + Fr::one()),
            (kp.public, sig.r.negate(), -sig.s),
            (PublicKey(kp.public.0.negate()), sig.r, sig.s),
        ];
        for (pk, r, s) in forged {
            for at in [0, 2, 4] {
                let mut batch = good.clone();
                batch.insert(at, (pk, b"message".to_vec(), Signature { r, s }));
                assert!(!batch_ok(&batch), "forgery at {at} of {}", batch.len());
            }
        }
        // Nothing to check is vacuously valid, and a batch of one is `verify`.
        assert!(verify_batch(&[]));
        assert!(batch_ok(&good[..1]));
        assert!(!verify_batch(&[("test", &kp.public, b"other", &sig)]));
    }

    /// `n` valid items under context `"test"`, distinct keys and messages.
    fn signed(n: u64) -> Vec<(PublicKey, Vec<u8>, Signature)> {
        (0..n)
            .map(|i| {
                let kp = Keypair::from_seed(&i.to_le_bytes());
                let msg = format!("message {i}").into_bytes();
                let sig = kp.secret.sign("test", &msg);
                (kp.public, msg, sig)
            })
            .collect()
    }

    fn batch_ok(batch: &[(PublicKey, Vec<u8>, Signature)]) -> bool {
        let items: Vec<_> = batch
            .iter()
            .map(|(pk, msg, sig)| ("test", pk, msg.as_slice(), sig))
            .collect();
        verify_batch(&items)
    }

    /// What the batch stands in for: every signature on its own.
    fn each_ok(batch: &[(PublicKey, Vec<u8>, Signature)]) -> bool {
        batch
            .iter()
            .all(|(pk, msg, sig)| pk.verify("test", msg, sig))
    }

    #[test]
    fn batch_accepts_what_verify_accepts() {
        for n in [2, 3, 17] {
            let batch = signed(n);
            assert!(each_ok(&batch) && batch_ok(&batch), "n = {n}");
        }
        // The same valid item twice, and one key signing twice.
        let mut batch = signed(3);
        batch.push(batch[1].clone());
        let kp = Keypair::from_seed(&1u64.to_le_bytes());
        batch.push((
            kp.public,
            b"again".to_vec(),
            kp.secret.sign("test", b"again"),
        ));
        assert!(batch_ok(&batch));
        // Valid under another context is invalid under this one.
        let items: Vec<_> = batch
            .iter()
            .map(|(p, m, s)| ("other", p, m.as_slice(), s))
            .collect();
        assert!(!verify_batch(&items));
    }

    type Shared = (&'static str, PublicKey, Vec<u8>, Signature);

    /// `n` items signed by `keys` keys in turn, each under its own
    /// context and message: the shape of a prover's layer, where two
    /// keys attest every child.
    fn shared_keys(n: u64, keys: u64) -> Vec<Shared> {
        const CONTEXTS: [&str; 3] = ["ctx-a", "ctx-b", "ctx-c"];
        (0..n)
            .map(|i| {
                let kp = Keypair::from_seed(&(i % keys).to_le_bytes());
                let context = CONTEXTS[i as usize % CONTEXTS.len()];
                let msg = format!("message {i}").into_bytes();
                let sig = kp.secret.sign(context, &msg);
                (context, kp.public, msg, sig)
            })
            .collect()
    }

    fn shared_ok(batch: &[Shared]) -> bool {
        let items: Vec<_> = batch
            .iter()
            .map(|(ctx, pk, msg, sig)| (*ctx, pk, msg.as_slice(), sig))
            .collect();
        verify_batch(&items)
    }

    fn shared_each_ok(batch: &[Shared]) -> bool {
        batch
            .iter()
            .all(|(ctx, pk, msg, sig)| pk.verify(ctx, msg, sig))
    }

    #[test]
    fn repeated_keys_share_a_term_and_keep_every_verdict() {
        for (n, keys) in [(2, 1), (9, 1), (9, 2), (16, 3)] {
            let batch = shared_keys(n, keys);
            assert!(shared_each_ok(&batch) && shared_ok(&batch), "{n} by {keys}");
            // One bad signature under a shared key, wherever it sits,
            // in each of the ways a signature can be bad.
            for at in [0, n as usize / 2, n as usize - 1] {
                for how in 0..4 {
                    let mut bad = batch.clone();
                    let (ctx, _, msg, sig) = &mut bad[at];
                    match how {
                        0 => sig.s += Fr::one(),
                        1 => msg.push(0),
                        2 => *ctx = if *ctx == "ctx-a" { "ctx-b" } else { "ctx-a" },
                        _ => sig.r = sig.r.negate(),
                    }
                    assert!(!shared_each_ok(&bad));
                    assert!(!shared_ok(&bad), "{n} by {keys}: bad {how} at {at}");
                }
            }
        }
        // Errors that cancel in the merged key term, Σ zᵢeᵢ·PK, are not
        // errors the batch forgets: two signatures of one key swap
        // messages, and two trade `s` shifts that sum to zero.
        let mut batch = shared_keys(6, 1);
        let (m0, m3) = (batch[0].2.clone(), batch[3].2.clone());
        batch[0].2 = m3;
        batch[3].2 = m0;
        assert!(!shared_ok(&batch));
        let mut batch = shared_keys(6, 1);
        batch[1].3.s += Fr::from_u64(3);
        batch[4].3.s -= Fr::from_u64(3);
        assert!(!shared_ok(&batch));
        // Still one evaluation, whatever the keys.
        let batch = shared_keys(12, 2);
        let (ok, cost) = crate::opcount::measure(|| shared_ok(&batch));
        assert!(ok);
        assert_eq!(cost.group_muls, 1);
    }

    #[test]
    fn batch_rejects_what_a_plain_sum_accepts() {
        // s₁ + δ and s₂ − δ: the errors cancel in Σ sᵢ·G − eᵢ·PKᵢ − Rᵢ
        // and in no sum with independent coefficients.
        let delta = Fr::from_u64(5);
        let mut batch = signed(4);
        batch[1].2.s += delta;
        batch[2].2.s -= delta;
        assert!(!batch_ok(&batch));
        // Two items trade nonce points: Σ Rᵢ is unchanged.
        let mut batch = signed(4);
        let (r0, r3) = (batch[0].2.r, batch[3].2.r);
        batch[0].2.r = r3;
        batch[3].2.r = r0;
        assert!(!batch_ok(&batch));
        // One bad signature wherever it sits, and nothing but bad ones.
        for n in [2usize, 9] {
            for at in [0, n / 2, n - 1] {
                let mut batch = signed(n as u64);
                batch[at].1.push(0);
                assert!(!batch_ok(&batch), "bad message at {at} of {n}");
                let mut batch = signed(n as u64);
                batch[at].0 = Keypair::from_seed(b"someone else").public;
                assert!(!batch_ok(&batch), "wrong key at {at} of {n}");
            }
            let mut batch = signed(n as u64);
            batch.iter_mut().for_each(|(_, _, sig)| sig.s += Fr::one());
            assert!(!batch_ok(&batch));
        }
    }

    #[test]
    fn batch_verdict_is_reproducible() {
        // The coefficients come from the batch alone: the same batch
        // costs the same and answers the same, run after run.
        let mut batch = signed(6);
        batch[4].2.s += Fr::one();
        let runs: Vec<_> = (0..3)
            .map(|_| crate::opcount::measure(|| batch_ok(&batch)))
            .collect();
        assert!(runs.iter().all(|run| *run == runs[0] && !run.0));
        assert_eq!(runs[0].1.group_muls, 1);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        #[test]
        fn prop_batch_equals_the_conjunction_of_verifies(
            n in 2u64..12,
            corrupt in proptest::collection::vec((0usize..12, 0u8..4), 0..4),
        ) {
            let mut batch = signed(n);
            for (at, how) in corrupt {
                let (pk, msg, sig) = &mut batch[at % n as usize];
                match how {
                    0 => sig.s += Fr::one(),
                    1 => sig.r = sig.r.negate(),
                    2 => msg.push(how),
                    _ => *pk = Keypair::from_seed(msg).public,
                }
            }
            proptest::prop_assert_eq!(batch_ok(&batch), each_ok(&batch));
        }

        #[test]
        fn prop_shared_key_batch_equals_the_conjunction_of_verifies(
            n in 2u64..12,
            keys in 1u64..4,
            corrupt in proptest::collection::vec((0usize..12, 0u8..4), 0..3),
        ) {
            let mut batch = shared_keys(n, keys);
            for (at, how) in corrupt {
                let (ctx, pk, msg, sig) = &mut batch[at % n as usize];
                match how {
                    0 => sig.s += Fr::one(),
                    1 => *ctx = "ctx-z",
                    2 => msg.push(how),
                    _ => *pk = Keypair::from_seed(&(at as u64 + 1).to_le_bytes()).public,
                }
            }
            proptest::prop_assert_eq!(shared_ok(&batch), shared_each_ok(&batch));
        }
    }

    #[test]
    fn non_canonical_s_is_rejected_at_parse() {
        let kp = Keypair::from_seed(b"victim");
        let mut bytes = kp.secret.sign("test", b"message").to_bytes();
        // s + n does not fit the canonical range (s + n ≥ n).
        bytes[33..].copy_from_slice(&[0xff; 32]);
        assert!(Signature::from_bytes(&bytes).is_none());
    }

    #[test]
    fn deterministic_signing() {
        let kp = Keypair::from_seed(b"seed");
        let s1 = kp.secret.sign("test", b"m");
        let s2 = kp.secret.sign("test", b"m");
        assert_eq!(s1, s2);
    }

    #[test]
    fn known_answer_key_and_signature() {
        // Generated before the public key was cached in the secret key.
        let kp = Keypair::from_seed(b"kat");
        assert_eq!(kp.public, kp.secret.public_key());
        assert_eq!(
            hex(&kp.public.to_bytes()),
            "02182c626cb07c31c97bdd434210ff43e09b118ecf7131c76b3f1b7b2f9a130a11"
        );
        assert_eq!(
            hex(&kp.secret.sign("kat-ctx", b"message").to_bytes()),
            "0207147cd82342fdbb38f1eb04269ea527c7636f8e4892dbd59da6cc4a0ae45c98\
             a7dd194b1cf9957a1dc43dca4c09106100a765f3a03637dedfd8d2001e559048"
        );
    }

    #[test]
    fn public_key_bytes_roundtrip() {
        let kp = Keypair::from_seed(b"k");
        let decoded = PublicKey::from_bytes(&kp.public.to_bytes()).unwrap();
        assert_eq!(kp.public, decoded);
    }
}
