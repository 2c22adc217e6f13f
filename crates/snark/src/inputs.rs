//! Public inputs to the unified SNARK verifier.
//!
//! The mainchain verifies every certificate, BTR and CSW through the same
//! interface: `Verify(vk, public_input, proof)` (paper §4.1.2). The public
//! input is an ordered list of field elements. Byte-level quantities
//! (mainchain block hashes, Merkle roots) enter as two 128-bit limbs so
//! the embedding is injective.

use zendoo_primitives::digest::Digest32;
use zendoo_primitives::encode::Encode;
use zendoo_primitives::field::Fp;

/// An ordered list of field elements fed to the verifier.
///
/// # Examples
///
/// ```
/// use zendoo_snark::inputs::PublicInputs;
/// use zendoo_primitives::field::Fp;
///
/// let mut inputs = PublicInputs::new();
/// inputs.push_u64(42).push_fp(Fp::from_u64(7));
/// assert_eq!(inputs.len(), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct PublicInputs(Vec<Fp>);

impl PublicInputs {
    /// Creates an empty input list.
    pub fn new() -> Self {
        PublicInputs(Vec::new())
    }

    /// Builds directly from field elements.
    pub fn from_elements(elements: Vec<Fp>) -> Self {
        PublicInputs(elements)
    }

    /// Appends a raw field element.
    pub fn push_fp(&mut self, value: Fp) -> &mut Self {
        self.0.push(value);
        self
    }

    /// Appends a `u64` embedded into the field.
    pub fn push_u64(&mut self, value: u64) -> &mut Self {
        self.0.push(Fp::from_u64(value));
        self
    }

    /// Appends a 32-byte digest as two 128-bit limbs (injective).
    pub fn push_digest(&mut self, digest: &Digest32) -> &mut Self {
        let bytes = digest.as_bytes();
        let mut lo = [0u8; 32];
        let mut hi = [0u8; 32];
        lo[16..].copy_from_slice(&bytes[16..]);
        hi[16..].copy_from_slice(&bytes[..16]);
        self.0.push(Fp::from_be_bytes_reduced(&hi));
        self.0.push(Fp::from_be_bytes_reduced(&lo));
        self
    }

    /// The elements in order.
    pub fn elements(&self) -> &[Fp] {
        &self.0
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` if no element has been pushed.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The element at `index`, if present.
    pub fn get(&self, index: usize) -> Option<Fp> {
        self.0.get(index).copied()
    }

    /// Reads back a digest pushed with [`PublicInputs::push_digest`] at
    /// element offset `index` (consumes two elements). `None` unless both
    /// are 128-bit limbs: a limb plus 2¹²⁸ is another element, not another
    /// spelling of the same digest.
    pub fn get_digest(&self, index: usize) -> Option<Digest32> {
        let hi: [u8; 16] = self.low_bytes(index)?;
        let lo: [u8; 16] = self.low_bytes(index + 1)?;
        let mut out = [0u8; 32];
        out[..16].copy_from_slice(&hi);
        out[16..].copy_from_slice(&lo);
        Some(Digest32(out))
    }

    /// Reads back a `u64` pushed with [`PublicInputs::push_u64`]; `None`
    /// for an element of 2⁶⁴ or more.
    pub fn get_u64(&self, index: usize) -> Option<u64> {
        self.low_bytes(index).map(u64::from_be_bytes)
    }

    /// The element at `index` as its last `N` big-endian bytes, if the
    /// bytes before them are zero.
    fn low_bytes<const N: usize>(&self, index: usize) -> Option<[u8; N]> {
        let bytes = self.0.get(index)?.to_be_bytes();
        let (high, low) = bytes.split_at(bytes.len() - N);
        if high.iter().any(|b| *b != 0) {
            return None;
        }
        low.try_into().ok()
    }
}

impl Encode for PublicInputs {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
    }
}

impl FromIterator<Fp> for PublicInputs {
    fn from_iter<I: IntoIterator<Item = Fp>>(iter: I) -> Self {
        PublicInputs(iter.into_iter().collect())
    }
}

impl Extend<Fp> for PublicInputs {
    fn extend<I: IntoIterator<Item = Fp>>(&mut self, iter: I) {
        self.0.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_roundtrip() {
        let d = Digest32::hash_bytes(b"block");
        let mut inputs = PublicInputs::new();
        inputs.push_digest(&d);
        assert_eq!(inputs.len(), 2);
        assert_eq!(inputs.get_digest(0), Some(d));
    }

    #[test]
    fn u64_roundtrip() {
        let mut inputs = PublicInputs::new();
        inputs.push_u64(u64::MAX).push_u64(0);
        assert_eq!(inputs.get_u64(0), Some(u64::MAX));
        assert_eq!(inputs.get_u64(1), Some(0));
    }

    #[test]
    fn get_u64_rejects_oversized_elements() {
        let mut inputs = PublicInputs::new();
        inputs.push_digest(&Digest32::hash_bytes(b"big"));
        // The high limb almost certainly exceeds u64 range.
        assert!(inputs.get_u64(0).is_none() || inputs.get_u64(1).is_none());
    }

    /// A digest has one embedding: either limb raised by 2¹²⁸ (the same
    /// low 16 bytes) is refused, as `get_u64` refuses 2⁶⁴.
    #[test]
    fn get_digest_refuses_a_limb_of_2_128_or_more() {
        let d = Digest32::hash_bytes(b"block");
        let mut inputs = PublicInputs::new();
        inputs.push_digest(&d);
        let mut two_128 = [0u8; 32];
        two_128[15] = 1;
        let two_128 = Fp::from_be_bytes_reduced(&two_128);
        for limb in 0..2 {
            let mut elements = inputs.elements().to_vec();
            elements[limb] += two_128;
            let raised = PublicInputs::from_elements(elements);
            assert_eq!(raised.get_digest(0), None, "limb {limb}");
        }
        let mut past_u64 = PublicInputs::new();
        past_u64.push_fp(Fp::from_u64(u64::MAX) + Fp::from_u64(1));
        assert_eq!(past_u64.get_u64(0), None);
    }

    #[test]
    fn encoding_is_order_sensitive() {
        let mut a = PublicInputs::new();
        a.push_u64(1).push_u64(2);
        let mut b = PublicInputs::new();
        b.push_u64(2).push_u64(1);
        assert_ne!(a.encoded(), b.encoded());
    }

    #[test]
    fn distinct_digests_have_distinct_embeddings() {
        let d1 = Digest32::hash_bytes(b"a");
        let d2 = Digest32::hash_bytes(b"b");
        let mut i1 = PublicInputs::new();
        let mut i2 = PublicInputs::new();
        i1.push_digest(&d1);
        i2.push_digest(&d2);
        assert_ne!(i1, i2);
    }
}
