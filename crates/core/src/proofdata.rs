//! Sidechain-defined `proofdata` (paper §4.1.2 and §4.2).
//!
//! A certificate / BTR / CSW carries a list of typed variables whose
//! *semantics* the mainchain does not know, but whose *shape* is declared
//! at sidechain creation (`wcert_proofdata`, `btr_proofdata`,
//! `csw_proofdata` in the configuration table of §4.2). The mainchain
//! validates the shape and feeds only the Merkle root `MH(proofdata)` to
//! the SNARK verifier, keeping the public-input list short (footnote 6).

use zendoo_primitives::digest::Digest32;
use zendoo_primitives::encode::{digest, Encode};
use zendoo_primitives::field::Fp;
use zendoo_primitives::merkle::{MerkleTree, Sha256Hasher};

/// The declared type of one proofdata element.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProofDataType {
    /// A field element.
    Field,
    /// A 32-byte digest.
    Digest,
    /// An unsigned 64-bit integer.
    U64,
    /// A variable-length byte string.
    Bytes,
}

/// One typed proofdata element.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProofDataElem {
    /// A field element.
    Field(Fp),
    /// A 32-byte digest.
    Digest(Digest32),
    /// An unsigned 64-bit integer.
    U64(u64),
    /// A variable-length byte string.
    Bytes(Vec<u8>),
}

impl ProofDataElem {
    /// The declared type of this element.
    pub fn data_type(&self) -> ProofDataType {
        match self {
            ProofDataElem::Field(_) => ProofDataType::Field,
            ProofDataElem::Digest(_) => ProofDataType::Digest,
            ProofDataElem::U64(_) => ProofDataType::U64,
            ProofDataElem::Bytes(_) => ProofDataType::Bytes,
        }
    }

    /// The Merkle leaf digest of this element (type-tagged).
    pub fn digest(&self) -> Digest32 {
        match self {
            ProofDataElem::Field(v) => digest("zendoo/pd-field", v),
            ProofDataElem::Digest(v) => digest("zendoo/pd-digest", v),
            ProofDataElem::U64(v) => digest("zendoo/pd-u64", v),
            ProofDataElem::Bytes(v) => digest("zendoo/pd-bytes", &v.as_slice()),
        }
    }
}

impl Encode for ProofDataElem {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            ProofDataElem::Field(v) => {
                0u8.encode_into(out);
                v.encode_into(out);
            }
            ProofDataElem::Digest(v) => {
                1u8.encode_into(out);
                v.encode_into(out);
            }
            ProofDataElem::U64(v) => {
                2u8.encode_into(out);
                v.encode_into(out);
            }
            ProofDataElem::Bytes(v) => {
                3u8.encode_into(out);
                v.as_slice().encode_into(out);
            }
        }
    }
}

/// The ordered proofdata payload of a certificate/BTR/CSW.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ProofData(pub Vec<ProofDataElem>);

impl ProofData {
    /// An empty payload.
    pub fn empty() -> Self {
        ProofData(Vec::new())
    }

    /// `MH(proofdata)`: the Merkle root over element digests.
    pub fn merkle_root(&self) -> Digest32 {
        let leaves: Vec<[u8; 32]> = self.0.iter().map(|e| e.digest().0).collect();
        Digest32(MerkleTree::<Sha256Hasher>::from_leaves(leaves).root())
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` if the payload has no elements.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The element at `index`.
    pub fn get(&self, index: usize) -> Option<&ProofDataElem> {
        self.0.get(index)
    }
}

impl Encode for ProofData {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
    }
}

/// The proofdata shape declared at sidechain creation (§4.2).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ProofDataSchema(pub Vec<ProofDataType>);

impl ProofDataSchema {
    /// A schema admitting only the empty payload.
    pub fn empty() -> Self {
        ProofDataSchema(Vec::new())
    }

    /// Checks `data` against the declared element count and types.
    pub fn validate(&self, data: &ProofData) -> Result<(), SchemaViolation> {
        if data.0.len() != self.0.len() {
            return Err(SchemaViolation::Arity {
                expected: self.0.len(),
                actual: data.0.len(),
            });
        }
        for (index, (elem, expected)) in data.0.iter().zip(&self.0).enumerate() {
            if elem.data_type() != *expected {
                return Err(SchemaViolation::Type {
                    index,
                    expected: *expected,
                    actual: elem.data_type(),
                });
            }
        }
        Ok(())
    }
}

impl Encode for ProofDataSchema {
    fn encode_into(&self, out: &mut Vec<u8>) {
        (self.0.len() as u64).encode_into(out);
        for t in &self.0 {
            let tag: u8 = match t {
                ProofDataType::Field => 0,
                ProofDataType::Digest => 1,
                ProofDataType::U64 => 2,
                ProofDataType::Bytes => 3,
            };
            tag.encode_into(out);
        }
    }
}

/// A proofdata payload that does not match the declared schema.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SchemaViolation {
    /// Wrong number of elements.
    Arity {
        /// Declared element count.
        expected: usize,
        /// Supplied element count.
        actual: usize,
    },
    /// Wrong type at one position.
    Type {
        /// Position of the mismatch.
        index: usize,
        /// Declared type.
        expected: ProofDataType,
        /// Supplied type.
        actual: ProofDataType,
    },
}

impl std::fmt::Display for SchemaViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemaViolation::Arity { expected, actual } => {
                write!(
                    f,
                    "proofdata has {actual} elements, schema declares {expected}"
                )
            }
            SchemaViolation::Type {
                index,
                expected,
                actual,
            } => write!(
                f,
                "proofdata element {index} has type {actual:?}, schema declares {expected:?}"
            ),
        }
    }
}

impl std::error::Error for SchemaViolation {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ProofData {
        ProofData(vec![
            ProofDataElem::Field(Fp::from_u64(5)),
            ProofDataElem::Digest(Digest32::hash_bytes(b"d")),
            ProofDataElem::U64(9),
        ])
    }

    fn schema() -> ProofDataSchema {
        ProofDataSchema(vec![
            ProofDataType::Field,
            ProofDataType::Digest,
            ProofDataType::U64,
        ])
    }

    #[test]
    fn schema_accepts_matching_payload() {
        assert!(schema().validate(&sample()).is_ok());
    }

    #[test]
    fn schema_rejects_wrong_arity() {
        let mut data = sample();
        data.0.pop();
        assert!(matches!(
            schema().validate(&data),
            Err(SchemaViolation::Arity {
                expected: 3,
                actual: 2
            })
        ));
    }

    #[test]
    fn schema_rejects_wrong_type() {
        let mut data = sample();
        data.0[1] = ProofDataElem::U64(1);
        assert!(matches!(
            schema().validate(&data),
            Err(SchemaViolation::Type { index: 1, .. })
        ));
    }

    #[test]
    fn merkle_root_binds_content_and_order() {
        let data = sample();
        let mut swapped = sample();
        swapped.0.swap(0, 2);
        assert_ne!(data.merkle_root(), swapped.merkle_root());
        assert_eq!(data.merkle_root(), sample().merkle_root());
    }

    #[test]
    fn element_digests_are_type_tagged() {
        // Same 8 bytes as U64 vs inside Bytes must hash differently.
        let a = ProofDataElem::U64(7).digest();
        let b = ProofDataElem::Bytes(7u64.to_be_bytes().to_vec()).digest();
        assert_ne!(a, b);
    }

    #[test]
    fn empty_schema_and_payload() {
        assert!(ProofDataSchema::empty()
            .validate(&ProofData::empty())
            .is_ok());
        assert!(ProofDataSchema::empty().validate(&sample()).is_err());
    }
}
