//! Offline stand-in for the `serde_derive` proc-macro crate.
//!
//! The workspace builds without network access, so the real crates.io
//! `serde` stack is unavailable. These derives expand to nothing, and
//! no type of the workspace uses them any more: all wire formats go
//! through the in-repo `Encode`/`Decode` pair, and `make serde-audit`
//! fails if a derive comes back. Only the dependency edge through the
//! `serde` stand-in remains, until both crates are dropped.

use proc_macro::TokenStream;

/// No-op `Serialize` derive. Accepts (and ignores) `#[serde(...)]`
/// helper attributes such as `#[serde(bound(...))]`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// No-op `Deserialize` derive. Accepts (and ignores) `#[serde(...)]`
/// helper attributes.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
