//! 32-byte digests used as chain-level identifiers.

use std::fmt;

/// A 32-byte digest (block hash, transaction id, commitment root, …).
///
/// # Examples
///
/// ```
/// use zendoo_primitives::digest::Digest32;
///
/// let d = Digest32::hash_bytes(b"hello");
/// assert_eq!(d, Digest32::hash_bytes(b"hello"));
/// assert_ne!(d, Digest32::ZERO);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Digest32(pub [u8; 32]);

impl Digest32 {
    /// The all-zero digest, used as a null/genesis sentinel.
    pub const ZERO: Digest32 = Digest32([0u8; 32]);

    /// SHA-256 of raw bytes.
    pub fn hash_bytes(data: &[u8]) -> Self {
        Digest32(crate::sha256::sha256(data))
    }

    /// Tagged SHA-256 over length-framed segments.
    pub fn hash_tagged(tag: &str, segments: &[&[u8]]) -> Self {
        Digest32(crate::sha256::sha256_tagged(tag, segments))
    }

    /// Returns the underlying bytes.
    pub const fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Returns `true` for the all-zero digest.
    pub fn is_zero(&self) -> bool {
        self.0 == [0u8; 32]
    }

    /// Renders the full 64-nibble hex string.
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Parses a 64-nibble hex string.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 64 || !s.is_ascii() {
            return None;
        }
        let mut out = [0u8; 32];
        for i in 0..32 {
            out[i] = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).ok()?;
        }
        Some(Digest32(out))
    }
}

impl fmt::Debug for Digest32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0[..6] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "…")
    }
}

impl fmt::Display for Digest32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl AsRef<[u8]> for Digest32 {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Digest32 {
    fn from(bytes: [u8; 32]) -> Self {
        Digest32(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrip() {
        let d = Digest32::hash_bytes(b"x");
        assert_eq!(Digest32::from_hex(&d.to_hex()), Some(d));
        assert!(Digest32::from_hex("zz").is_none());
        assert!(Digest32::from_hex(&"0".repeat(63)).is_none());
    }

    #[test]
    fn zero_predicate() {
        assert!(Digest32::ZERO.is_zero());
        assert!(!Digest32::hash_bytes(b"").is_zero());
    }

    #[test]
    fn display_is_abbreviated_but_nonempty() {
        let s = format!("{}", Digest32::hash_bytes(b"y"));
        assert!(s.len() > 6);
    }

    #[test]
    fn ordering_is_bytewise() {
        let a = Digest32([0u8; 32]);
        let mut high = [0u8; 32];
        high[0] = 1;
        assert!(a < Digest32(high));
    }
}
