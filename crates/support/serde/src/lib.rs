//! Offline stand-in for the `serde` crate.
//!
//! The build environment has no network access, so this workspace
//! vendors a minimal serde API surface: the
//! `Serialize`/`Deserialize`/`Serializer`/`Deserializer` traits over a
//! byte-oriented data model and the no-op derive macros from the
//! sibling `serde_derive` stand-in.
//!
//! No code of the workspace calls it any more: no type derives or
//! implements a serde trait (`make serde-audit` keeps it so), and
//! canonical wire encoding goes through the in-repo `Encode`/`Decode`
//! pair. Only the dependency edges in the manifests remain, until they
//! are dropped together with this crate.

pub use serde_derive::{Deserialize, Serialize};

/// A type that can serialize itself through a [`Serializer`].
pub trait Serialize {
    /// Serializes `self`.
    ///
    /// # Errors
    ///
    /// Propagates the serializer's error type.
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
}

/// A byte-oriented serializer.
pub trait Serializer: Sized {
    /// Value produced on success.
    type Ok;
    /// Error produced on failure.
    type Error: ser::Error;

    /// Serializes a byte string.
    ///
    /// # Errors
    ///
    /// Implementation-defined.
    fn serialize_bytes(self, v: &[u8]) -> Result<Self::Ok, Self::Error>;

    /// Serializes an unsigned 64-bit integer.
    ///
    /// # Errors
    ///
    /// Implementation-defined.
    fn serialize_u64(self, v: u64) -> Result<Self::Ok, Self::Error> {
        self.serialize_bytes(&v.to_be_bytes())
    }
}

/// A type that can deserialize itself from a [`Deserializer`].
pub trait Deserialize<'de>: Sized {
    /// Deserializes `Self`.
    ///
    /// # Errors
    ///
    /// Propagates the deserializer's error type.
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

/// A byte-oriented deserializer.
pub trait Deserializer<'de>: Sized {
    /// Error produced on failure.
    type Error: de::Error;

    /// Deserializes an owned byte string.
    ///
    /// # Errors
    ///
    /// Implementation-defined.
    fn deserialize_byte_buf(self) -> Result<Vec<u8>, Self::Error>;
}

/// Serialization error support.
pub mod ser {
    /// Errors a [`crate::Serializer`] may produce.
    pub trait Error: Sized {
        /// Builds an error from a display-able message.
        fn custom<T: core::fmt::Display>(msg: T) -> Self;
    }
}

/// Deserialization error support.
pub mod de {
    /// Errors a [`crate::Deserializer`] may produce.
    pub trait Error: Sized {
        /// Builds an error from a display-able message.
        fn custom<T: core::fmt::Display>(msg: T) -> Self;
    }

    /// A type deserializable independent of the input lifetime.
    pub trait DeserializeOwned: for<'de> crate::Deserialize<'de> {}

    impl<T: for<'de> crate::Deserialize<'de>> DeserializeOwned for T {}
}

impl Serialize for Vec<u8> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_bytes(self)
    }
}

impl Serialize for [u8] {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_bytes(self)
    }
}

impl<const N: usize> Serialize for [u8; N] {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_bytes(self)
    }
}

impl<'de> Deserialize<'de> for Vec<u8> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_byte_buf()
    }
}
