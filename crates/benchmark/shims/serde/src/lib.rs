//! Offline stand-in for `serde` 1: `Serialize` / `Deserialize` traits fixed
//! to one format, JSON, which is the only format this repository uses.
//!
//! The published crate abstracts over formats with visitor traits; this one
//! writes JSON text directly ([`json::Writer`]) and reads from a parsed
//! tree ([`json::Value`]). Code that only derives the traits and calls
//! `serde_json::{to_string, to_vec, from_str, from_slice}` compiles against
//! either; hand-written `Serializer`/`Deserializer` impls do not exist here.
//! The JSON layout matches `serde_json`'s defaults (externally tagged enums,
//! `null` for `None` and non-finite floats, maps with string keys).

#![forbid(unsafe_code)]

pub mod json;

mod impls;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// A value that can write itself as JSON.
pub trait Serialize {
    /// Appends this value's JSON to `w`.
    fn serialize(&self, w: &mut json::Writer);
}

/// A value that can be rebuilt from parsed JSON.
pub trait Deserialize: Sized {
    /// Rebuilds the value from `v`.
    ///
    /// # Errors
    /// Fails if `v` does not have the shape this type serializes to.
    fn deserialize(v: &json::Value) -> Result<Self, json::Error>;

    /// What an absent struct field of this type becomes: an error, except
    /// for `Option`, which reads as `None`.
    ///
    /// # Errors
    /// Fails for every type without a natural "absent" value.
    fn missing(field: &'static str) -> Result<Self, json::Error> {
        Err(json::Error::missing_field(field))
    }
}

/// Deserialization-side names of the published crate.
pub mod de {
    pub use super::Deserialize;

    /// A type deserializable without borrowing from the input — here,
    /// every [`Deserialize`] type.
    pub trait DeserializeOwned: Deserialize {}

    impl<T: Deserialize> DeserializeOwned for T {}
}

/// Serialization-side names of the published crate.
pub mod ser {
    pub use super::Serialize;
}
