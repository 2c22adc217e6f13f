//! Verifiable random function (ECVRF-style) over secp256k1.
//!
//! Used by the Latus consensus protocol (§5.1) for slot-leader selection:
//! a stakeholder proves `output = VRF_sk(epoch_randomness ‖ slot)` and the
//! output is compared against a stake-proportional threshold.
//!
//! Construction: `Γ = sk · H₂C(m)` with a Chaum–Pedersen DLEQ proof that
//! `log_G(PK) = log_{H₂C(m)}(Γ)`; the VRF output is `H(Γ)`.

use crate::curve::{AffinePoint, JacobianPoint};
use crate::field::Fr;
use crate::schnorr::{PublicKey, SecretKey};
use crate::sha256::sha256_tagged;

/// Domain tag for hash-to-curve inside the VRF.
const H2C_DOMAIN: &str = "zendoo/vrf-h2c";

/// A VRF output: 32 uniform bytes, a pure function of `(sk, msg)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct VrfOutput(pub [u8; 32]);

impl VrfOutput {
    /// Interprets the output as a fraction in `[0, 1)` with 64-bit
    /// precision — used for stake-threshold comparisons.
    pub fn as_unit_fraction(&self) -> f64 {
        let mut high = [0u8; 8];
        high.copy_from_slice(&self.0[..8]);
        u64::from_be_bytes(high) as f64 / (u64::MAX as f64 + 1.0)
    }
}

/// A VRF proof `(Γ, c, s)`: the evaluated point plus a DLEQ transcript.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VrfProof {
    gamma: AffinePoint,
    c: Fr,
    s: Fr,
}

impl VrfProof {
    /// The VRF output bound to this proof.
    pub fn output(&self) -> VrfOutput {
        VrfOutput(sha256_tagged(
            "zendoo/vrf-out",
            &[&self.gamma.to_compressed()],
        ))
    }

    /// Serializes as `Γ ‖ c ‖ s` (97 bytes).
    pub fn to_bytes(&self) -> [u8; 97] {
        let mut out = [0u8; 97];
        out[..33].copy_from_slice(&self.gamma.to_compressed());
        out[33..65].copy_from_slice(&self.c.to_be_bytes());
        out[65..].copy_from_slice(&self.s.to_be_bytes());
        out
    }
}

/// Evaluates the VRF, producing `(output, proof)`.
///
/// # Examples
///
/// ```
/// use zendoo_primitives::schnorr::Keypair;
/// use zendoo_primitives::vrf;
///
/// let kp = Keypair::from_seed(b"forger-1");
/// let (out, proof) = vrf::prove(&kp.secret, b"epoch-7/slot-3");
/// assert_eq!(vrf::verify(&kp.public, b"epoch-7/slot-3", &proof), Some(out));
/// ```
pub fn prove(sk: &SecretKey, msg: &[u8]) -> (VrfOutput, VrfProof) {
    let h = AffinePoint::hash_to_curve(H2C_DOMAIN, msg);
    let gamma = (h * sk.scalar()).to_affine();
    // Deterministic nonce bound to (sk, msg).
    let k_bytes = sha256_tagged("zendoo/vrf-nonce", &[&sk.scalar().to_be_bytes(), msg]);
    let mut k = Fr::from_be_bytes_reduced(&k_bytes);
    if k.is_zero() {
        k = Fr::one();
    }
    let u = JacobianPoint::mul_generator(&k).to_affine();
    let v = (h * k).to_affine();
    let c = dleq_challenge(&h, &sk.public_key(), &gamma, &u, &v, msg);
    let s = k + c * sk.scalar();
    let proof = VrfProof { gamma, c, s };
    (proof.output(), proof)
}

/// Verifies a VRF proof, returning the bound output on success.
pub fn verify(pk: &PublicKey, msg: &[u8], proof: &VrfProof) -> Option<VrfOutput> {
    if pk.point().is_identity() || proof.gamma.is_identity() {
        return None;
    }
    let h = AffinePoint::hash_to_curve(H2C_DOMAIN, msg);
    // U = s·G - c·PK ; V = s·H - c·Γ — recompute the transcript commitments.
    let minus_c = -proof.c;
    let u = JacobianPoint::lincomb_generator(&proof.s, &minus_c, &pk.point()).to_affine();
    let v = JacobianPoint::lincomb(&proof.s, &h, &minus_c, &proof.gamma).to_affine();
    let c = dleq_challenge(&h, pk, &proof.gamma, &u, &v, msg);
    if c == proof.c {
        Some(proof.output())
    } else {
        None
    }
}

fn dleq_challenge(
    h: &AffinePoint,
    pk: &PublicKey,
    gamma: &AffinePoint,
    u: &AffinePoint,
    v: &AffinePoint,
    msg: &[u8],
) -> Fr {
    let digest = sha256_tagged(
        "zendoo/vrf-challenge",
        &[
            &h.to_compressed(),
            &pk.to_bytes(),
            &gamma.to_compressed(),
            &u.to_compressed(),
            &v.to_compressed(),
            msg,
        ],
    );
    Fr::from_be_bytes_reduced(&digest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use crate::schnorr::Keypair;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(2024)
    }

    #[test]
    fn prove_verify_roundtrip() {
        let kp = Keypair::random(&mut rng());
        let (out, proof) = prove(&kp.secret, b"slot-5");
        assert_eq!(verify(&kp.public, b"slot-5", &proof), Some(out));
    }

    #[test]
    fn known_answer_proof() {
        // Generated by the double-and-add multiplication before it was
        // replaced by the windowed layer in `curve`.
        let kp = Keypair::from_seed(b"kat");
        let (out, proof) = prove(&kp.secret, b"epoch-7/slot-3");
        assert_eq!(
            hex(&proof.to_bytes()),
            "026a4e756e2fe9b5cc7db30f61df9c3b5c745b281e15da1138319575ae957c9562\
             b4c542bdeb104f324105e4e788212e1b54b18dfe6529c003c4a5bf6961665635\
             1fc27edd9261fd0ee92ed0587f7428b363859bb9c38359468873f7accea1e697"
        );
        assert_eq!(
            hex(&out.0),
            "8b786deef8e999a600a634876f7d6be31a02371b74d3eec7b5672ae5e3b95af3"
        );
        assert_eq!(verify(&kp.public, b"epoch-7/slot-3", &proof), Some(out));
    }

    #[test]
    fn tampered_transcript_rejected() {
        let kp = Keypair::from_seed(b"forger");
        let (_, proof) = prove(&kp.secret, b"m");
        let bump_s = VrfProof {
            s: proof.s + Fr::one(),
            ..proof
        };
        let bump_c = VrfProof {
            c: proof.c + Fr::one(),
            ..proof
        };
        let negated = VrfProof {
            gamma: proof.gamma.negate(),
            ..proof
        };
        for bad in [bump_s, bump_c, negated] {
            assert!(verify(&kp.public, b"m", &bad).is_none());
        }
    }

    #[test]
    fn output_is_deterministic() {
        let kp = Keypair::from_seed(b"forger");
        let (o1, _) = prove(&kp.secret, b"m");
        let (o2, _) = prove(&kp.secret, b"m");
        assert_eq!(o1, o2);
    }

    #[test]
    fn different_messages_different_outputs() {
        let kp = Keypair::from_seed(b"forger");
        let (o1, _) = prove(&kp.secret, b"m1");
        let (o2, _) = prove(&kp.secret, b"m2");
        assert_ne!(o1, o2);
    }

    #[test]
    fn different_keys_different_outputs() {
        let (o1, _) = prove(&Keypair::from_seed(b"a").secret, b"m");
        let (o2, _) = prove(&Keypair::from_seed(b"b").secret, b"m");
        assert_ne!(o1, o2);
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let kp = Keypair::random(&mut rng());
        let (_, proof) = prove(&kp.secret, b"m1");
        assert!(verify(&kp.public, b"m2", &proof).is_none());
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let mut r = rng();
        let kp1 = Keypair::random(&mut r);
        let kp2 = Keypair::random(&mut r);
        let (_, proof) = prove(&kp1.secret, b"m");
        assert!(verify(&kp2.public, b"m", &proof).is_none());
    }

    #[test]
    fn forged_gamma_rejected() {
        let mut r = rng();
        let kp = Keypair::random(&mut r);
        let (_, mut proof) = prove(&kp.secret, b"m");
        proof.gamma = AffinePoint::random(&mut r);
        assert!(verify(&kp.public, b"m", &proof).is_none());
    }

    #[test]
    fn unit_fraction_in_range() {
        let kp = Keypair::from_seed(b"x");
        for i in 0u32..16 {
            let (out, _) = prove(&kp.secret, &i.to_be_bytes());
            let f = out.as_unit_fraction();
            assert!((0.0..1.0).contains(&f));
        }
    }
}
