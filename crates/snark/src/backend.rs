//! The proving system: `Setup` / `Prove` / `Verify` (paper Def 2.3).
//!
//! # Substitution model
//!
//! A production zk-SNARK backend is replaced by a *sound-in-the-model*
//! simulation:
//!
//! * [`setup`] mints a Schnorr keypair per circuit. The signing key lives
//!   in the [`ProvingKey`] — it plays the role of the trusted setup's
//!   toxic waste: anyone who exfiltrates it can forge, exactly as in a
//!   compromised Groth16 ceremony.
//! * [`prove`] **evaluates the constraint system** and refuses to sign an
//!   unsatisfied assignment, then emits a constant-size attestation over
//!   `H(circuit_id ‖ public_inputs)`. [`prove_layer`] does the same for
//!   a whole layer of statements, with the proofs and signatures the
//!   circuits embed checked as one batch equation before the first
//!   attestation (see [`crate::deferred`]), and `fold_pairs` folds
//!   layers pairwise into one proof — the one tree of the Merge and the
//!   Fold circuits.
//! * [`verify`] is a single Schnorr verification — constant time in the
//!   circuit size, linear only in the public-input length, which is the
//!   succinctness property the mainchain relies on (§4.1.2).
//!
//! Proofs are 65 bytes regardless of statement size.

use std::borrow::Borrow;

use serde::{Deserialize, Serialize};
use zendoo_primitives::digest::Digest32;
use zendoo_primitives::encode::Encode;
use zendoo_primitives::schnorr::{PublicKey, SecretKey, Signature};

use crate::batch::fan_out;
use crate::circuit::{Circuit, Unsatisfied};
use crate::deferred::Deferred;
use crate::inputs::PublicInputs;

/// Signature context binding proofs to this backend version.
pub(crate) const PROOF_CONTEXT: &str = "zendoo/snark-proof-v1";

/// Errors from the proving side.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProveError {
    /// The witness does not satisfy the circuit; no proof exists.
    Unsatisfied(Unsatisfied),
    /// The proving key belongs to a different circuit.
    CircuitMismatch {
        /// Circuit id inside the key.
        key_circuit: Digest32,
        /// Circuit id of the statement being proven.
        statement_circuit: Digest32,
    },
}

impl std::fmt::Display for ProveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProveError::Unsatisfied(u) => write!(f, "cannot prove false statement: {u}"),
            ProveError::CircuitMismatch {
                key_circuit,
                statement_circuit,
            } => write!(
                f,
                "proving key is for circuit {key_circuit}, statement is {statement_circuit}"
            ),
        }
    }
}

impl std::error::Error for ProveError {}

impl From<Unsatisfied> for ProveError {
    fn from(u: Unsatisfied) -> Self {
        ProveError::Unsatisfied(u)
    }
}

/// The proving key `pk` for one circuit.
///
/// Contains the attestation signing key — the simulation's toxic waste.
/// Its `Debug` impl never prints key material.
#[derive(Clone)]
pub struct ProvingKey {
    circuit_id: Digest32,
    signer: SecretKey,
}

impl ProvingKey {
    /// The circuit this key proves.
    pub fn circuit_id(&self) -> Digest32 {
        self.circuit_id
    }
}

impl std::fmt::Debug for ProvingKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ProvingKey(circuit={}, <toxic waste redacted>)",
            self.circuit_id
        )
    }
}

/// The verification key `vk` for one circuit.
///
/// This is what a sidechain registers with the mainchain at creation time
/// (§4.2); the mainchain needs nothing else to validate certificates.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct VerifyingKey {
    circuit_id: Digest32,
    attestor: PublicKey,
}

impl VerifyingKey {
    /// The circuit this key verifies.
    pub fn circuit_id(&self) -> Digest32 {
        self.circuit_id
    }

    /// A stable digest of the key (used as registry identity).
    pub fn digest(&self) -> Digest32 {
        Digest32::hash_tagged(
            "zendoo/vk",
            &[self.circuit_id.as_bytes(), &self.attestor.to_bytes()],
        )
    }
}

/// A constant-size proof (65 bytes serialized).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Proof {
    attestation: Signature,
}

impl Proof {
    /// Serialized size in bytes — constant, per the succinctness property.
    pub const SIZE: usize = 65;

    /// Serializes the proof.
    pub fn to_bytes(&self) -> [u8; Self::SIZE] {
        self.attestation.to_bytes()
    }

    /// Parses a serialized proof.
    pub fn from_bytes(bytes: &[u8; Self::SIZE]) -> Option<Self> {
        Signature::from_bytes(bytes).map(|attestation| Proof { attestation })
    }
}

/// Bootstraps the SNARK for `circuit` (paper: `(pk, vk) ← Setup(C, 1^λ)`).
///
/// # Examples
///
/// ```
/// # use zendoo_snark::backend::{setup, prove, verify};
/// # use zendoo_snark::circuit::{Circuit, Unsatisfied};
/// # use zendoo_snark::inputs::PublicInputs;
/// # use zendoo_primitives::{digest::Digest32, field::Fp};
/// struct Double;
/// impl Circuit for Double {
///     type Witness = Fp;
///     fn id(&self) -> Digest32 { Digest32::hash_bytes(b"double") }
///     fn check(&self, p: &PublicInputs, w: &Fp) -> Result<(), Unsatisfied> {
///         (p.get(0) == Some(w.double()))
///             .then_some(())
///             .ok_or_else(|| Unsatisfied::new("double", "2w != x"))
///     }
/// }
///
/// let (pk, vk) = setup(&Double, &mut rand::thread_rng());
/// let mut public = PublicInputs::new();
/// public.push_fp(Fp::from_u64(10));
/// let proof = prove(&pk, &Double, &public, &Fp::from_u64(5)).unwrap();
/// assert!(verify(&vk, &public, &proof));
/// ```
pub fn setup<C: Circuit, R: rand::Rng + ?Sized>(
    circuit: &C,
    rng: &mut R,
) -> (ProvingKey, VerifyingKey) {
    let signer = SecretKey::random(rng);
    keys_from_secret(circuit.id(), signer)
}

/// Deterministic setup from a seed — used by tests and by registries that
/// need reproducible keys across processes.
pub fn setup_deterministic<C: Circuit>(circuit: &C, seed: &[u8]) -> (ProvingKey, VerifyingKey) {
    let mut material = circuit.id().as_bytes().to_vec();
    material.extend_from_slice(seed);
    keys_from_secret(circuit.id(), SecretKey::from_seed(&material))
}

fn keys_from_secret(circuit_id: Digest32, signer: SecretKey) -> (ProvingKey, VerifyingKey) {
    let attestor = signer.public_key();
    (
        ProvingKey { circuit_id, signer },
        VerifyingKey {
            circuit_id,
            attestor,
        },
    )
}

/// Produces a proof that `(public, witness)` satisfies `circuit`
/// (paper: `π ← Prove(pk, a, w)`).
///
/// # Errors
///
/// * [`ProveError::Unsatisfied`] — the statement is false; no proof is
///   produced (this is the knowledge-soundness guarantee of the model).
/// * [`ProveError::CircuitMismatch`] — `pk` was set up for another circuit.
pub fn prove<C: Circuit>(
    pk: &ProvingKey,
    circuit: &C,
    public: &PublicInputs,
    witness: &C::Witness,
) -> Result<Proof, ProveError> {
    check_key(pk, circuit)?;
    circuit.check(public, witness)?;
    Ok(attest(pk, public))
}

/// Proves a whole layer of statements of one circuit — every base proof
/// of an epoch, every merge of one tree level — on `workers` strided
/// lanes (statement `i` on lane `i % workers`), returning the proofs in
/// statement order: each lane runs [`Circuit::check_deferred`] on its
/// statements, discharges every embedded proof and signature check they
/// stated as **one** batch equation ([`Deferred::discharge`]), and only
/// then attests them. Nothing is signed before its checks held.
///
/// Attestations are deterministic signatures over the statement alone,
/// so the proofs are byte-identical to per-statement [`prove`] calls.
///
/// # Errors
///
/// Exactly [`prove`]'s, for the first statement in order that it
/// refuses: when a lane meets a structural violation or its discharge
/// fails, the layer is proven again by [`prove`], one statement at a
/// time, and that is the result.
pub fn prove_layer<C, W>(
    pk: &ProvingKey,
    circuit: &C,
    statements: &[(PublicInputs, W)],
    workers: usize,
) -> Result<Vec<Proof>, ProveError>
where
    C: Circuit + Sync,
    W: Borrow<C::Witness> + Sync,
{
    check_key(pk, circuit)?;
    let workers = workers.clamp(1, statements.len().max(1));
    let lanes: Vec<usize> = (0..workers).collect();
    let proved = fan_out(
        &lanes,
        workers,
        || (),
        |&lane| {
            let mine: Vec<_> = statements.iter().skip(lane).step_by(workers).collect();
            let mut deferred = Deferred::new();
            for (public, witness) in &mine {
                circuit
                    .check_deferred(public, witness.borrow(), &mut deferred)
                    .ok()?;
            }
            deferred
                .discharge()
                .then(|| mine.iter().map(|(public, _)| attest(pk, public)).collect())
        },
    );
    match proved.into_iter().collect::<Option<Vec<Vec<Proof>>>>() {
        Some(lanes) => {
            // Lane `w` holds the proofs of statements w, w + workers, …
            let mut lanes: Vec<_> = lanes.into_iter().map(Vec::into_iter).collect();
            Ok((0..statements.len())
                .map(|i| lanes[i % workers].next().expect("one proof per statement"))
                .collect())
        }
        None => statements
            .iter()
            .map(|(public, witness)| prove(pk, circuit, public, witness.borrow()))
            .collect(),
    }
}

/// Two adjacent child proofs: the witness of a node of a pairwise tree —
/// a Merge of two state proofs, a Fold of two aggregates.
pub(crate) struct Pair<P> {
    pub(crate) left: P,
    pub(crate) right: P,
}

/// A proof a [`Pair`] of its own kind folds into: what [`fold_pairs`]
/// needs to state a pair and to name the parent once it is attested.
pub(crate) trait TreeNode: Copy + Sync {
    /// The public inputs of the parent of `pair`.
    fn parent_inputs(pair: &Pair<Self>) -> PublicInputs;

    /// The parent of `pair`, attested by `proof`.
    fn parent(pair: &Pair<Self>, proof: Proof) -> Self;
}

/// The pairwise tree fold of Figs 10–11: proves a layer's adjacent pairs
/// with one [`prove_layer`] on `workers` lanes, carries an odd last proof
/// up unmerged, and repeats until one proof remains, which it returns —
/// the same tree for every `workers`.
///
/// # Panics
///
/// On an empty `layer`: a caller has at least one leaf to fold.
///
/// # Errors
///
/// [`prove_layer`]'s, for the first layer that has one.
pub(crate) fn fold_pairs<C, P>(
    pk: &ProvingKey,
    circuit: &C,
    mut layer: Vec<P>,
    workers: usize,
) -> Result<P, ProveError>
where
    C: Circuit<Witness = Pair<P>> + Sync,
    P: TreeNode,
{
    while layer.len() > 1 {
        let pairs = layer.chunks_exact(2);
        let odd = pairs.remainder().first().copied();
        let statements: Vec<(PublicInputs, Pair<P>)> = pairs
            .map(|pair| {
                let pair = Pair {
                    left: pair[0],
                    right: pair[1],
                };
                (P::parent_inputs(&pair), pair)
            })
            .collect();
        let proofs = prove_layer(pk, circuit, &statements, workers)?;
        layer = statements
            .iter()
            .zip(proofs)
            .map(|((_, pair), proof)| P::parent(pair, proof))
            .chain(odd)
            .collect();
    }
    Ok(layer.remove(0))
}

fn check_key<C: Circuit>(pk: &ProvingKey, circuit: &C) -> Result<(), ProveError> {
    if pk.circuit_id == circuit.id() {
        Ok(())
    } else {
        Err(ProveError::CircuitMismatch {
            key_circuit: pk.circuit_id,
            statement_circuit: circuit.id(),
        })
    }
}

/// The attestation over a statement whose constraints held.
fn attest(pk: &ProvingKey, public: &PublicInputs) -> Proof {
    let message = statement_digest(&pk.circuit_id, public);
    Proof {
        attestation: pk.signer.sign(PROOF_CONTEXT, message.as_bytes()),
    }
}

/// Verifies a proof against public inputs
/// (paper: `true/false ← Verify(vk, a, π)`).
///
/// Constant-time in the circuit size; this is the unified verifier the
/// mainchain exposes to all sidechains.
pub fn verify(vk: &VerifyingKey, public: &PublicInputs, proof: &Proof) -> bool {
    let (key, message, signature) = attestation(vk, public, proof);
    key.verify(PROOF_CONTEXT, message.as_bytes(), &signature)
}

/// The signature check [`verify`] runs, as `(key, message, signature)`
/// under [`PROOF_CONTEXT`]: what a [`Deferred`] records for a proof.
pub(crate) fn attestation(
    vk: &VerifyingKey,
    public: &PublicInputs,
    proof: &Proof,
) -> (PublicKey, Digest32, Signature) {
    (
        vk.attestor,
        statement_digest(&vk.circuit_id, public),
        proof.attestation,
    )
}

/// `H(circuit_id ‖ public_inputs)` — the statement a proof attests to.
fn statement_digest(circuit_id: &Digest32, public: &PublicInputs) -> Digest32 {
    Digest32::hash_tagged(
        "zendoo/snark-statement",
        &[circuit_id.as_bytes(), &public.encoded()],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use zendoo_primitives::field::Fp;

    struct MulCircuit;

    impl Circuit for MulCircuit {
        type Witness = (Fp, Fp);

        fn id(&self) -> Digest32 {
            Digest32::hash_bytes(b"test/mul")
        }

        fn check(&self, public: &PublicInputs, w: &(Fp, Fp)) -> Result<(), Unsatisfied> {
            let product = public
                .get(0)
                .ok_or_else(|| Unsatisfied::new("arity", "missing product"))?;
            if w.0 * w.1 == product {
                Ok(())
            } else {
                Err(Unsatisfied::new("mul", "w0 * w1 != x"))
            }
        }
    }

    struct OtherCircuit;

    impl Circuit for OtherCircuit {
        type Witness = ();

        fn id(&self) -> Digest32 {
            Digest32::hash_bytes(b"test/other")
        }

        fn check(&self, _: &PublicInputs, _: &()) -> Result<(), Unsatisfied> {
            Ok(())
        }
    }

    fn public(x: u64) -> PublicInputs {
        let mut p = PublicInputs::new();
        p.push_fp(Fp::from_u64(x));
        p
    }

    #[test]
    fn completeness() {
        let (pk, vk) = setup_deterministic(&MulCircuit, b"s");
        let proof = prove(
            &pk,
            &MulCircuit,
            &public(6),
            &(Fp::from_u64(2), Fp::from_u64(3)),
        )
        .expect("valid witness proves");
        assert!(verify(&vk, &public(6), &proof));
    }

    #[test]
    fn soundness_no_proof_for_false_statement() {
        let (pk, _) = setup_deterministic(&MulCircuit, b"s");
        let err = prove(
            &pk,
            &MulCircuit,
            &public(7),
            &(Fp::from_u64(2), Fp::from_u64(3)),
        )
        .unwrap_err();
        assert!(matches!(err, ProveError::Unsatisfied(_)));
    }

    #[test]
    fn verification_binds_public_inputs() {
        let (pk, vk) = setup_deterministic(&MulCircuit, b"s");
        let proof = prove(
            &pk,
            &MulCircuit,
            &public(6),
            &(Fp::from_u64(2), Fp::from_u64(3)),
        )
        .unwrap();
        assert!(
            !verify(&vk, &public(8), &proof),
            "different input must fail"
        );
    }

    #[test]
    fn verification_binds_circuit() {
        let (pk, _) = setup_deterministic(&MulCircuit, b"s");
        let (_, other_vk) = setup_deterministic(&OtherCircuit, b"s");
        let proof = prove(
            &pk,
            &MulCircuit,
            &public(6),
            &(Fp::from_u64(2), Fp::from_u64(3)),
        )
        .unwrap();
        assert!(!verify(&other_vk, &public(6), &proof));
    }

    #[test]
    fn wrong_proving_key_rejected() {
        let (pk_other, _) = setup_deterministic(&OtherCircuit, b"s");
        let err = prove(
            &ProvingKey {
                circuit_id: pk_other.circuit_id,
                signer: pk_other.signer,
            },
            &MulCircuit,
            &public(6),
            &(Fp::from_u64(2), Fp::from_u64(3)),
        )
        .unwrap_err();
        assert!(matches!(err, ProveError::CircuitMismatch { .. }));
    }

    #[test]
    fn proofs_are_constant_size_and_roundtrip() {
        let (pk, vk) = setup_deterministic(&MulCircuit, b"s");
        let proof = prove(
            &pk,
            &MulCircuit,
            &public(6),
            &(Fp::from_u64(2), Fp::from_u64(3)),
        )
        .unwrap();
        let bytes = proof.to_bytes();
        assert_eq!(bytes.len(), Proof::SIZE);
        let decoded = Proof::from_bytes(&bytes).unwrap();
        assert!(verify(&vk, &public(6), &decoded));
    }

    #[test]
    fn tampered_proof_fails() {
        let (pk, vk) = setup_deterministic(&MulCircuit, b"s");
        let proof = prove(
            &pk,
            &MulCircuit,
            &public(6),
            &(Fp::from_u64(2), Fp::from_u64(3)),
        )
        .unwrap();
        let mut bytes = proof.to_bytes();
        bytes[50] ^= 0x10;
        if let Some(bad) = Proof::from_bytes(&bytes) {
            assert!(!verify(&vk, &public(6), &bad));
        }
    }

    #[test]
    fn deterministic_setup_reproducible() {
        let (_, vk1) = setup_deterministic(&MulCircuit, b"seed");
        let (_, vk2) = setup_deterministic(&MulCircuit, b"seed");
        let (_, vk3) = setup_deterministic(&MulCircuit, b"other");
        assert_eq!(vk1, vk2);
        assert_ne!(vk1, vk3);
    }

    #[test]
    fn vk_digest_distinguishes_circuits() {
        let (_, vk1) = setup_deterministic(&MulCircuit, b"seed");
        let (_, vk2) = setup_deterministic(&OtherCircuit, b"seed");
        assert_ne!(vk1.digest(), vk2.digest());
    }
}
