//! # cedr-durable
//!
//! Durable checkpoint images for the CEDR engine: a hand-rolled,
//! deterministic binary codec ([`codec`]), versioned image framing with a
//! manifest and named checksummed sections ([`image`]), and [`Persist`]
//! implementations for every temporal/stream substrate type that appears in
//! an engine checkpoint.
//!
//! The paper's determinism claim — output is a pure function of the logical
//! input streams — is what makes recovery *testable*: restoring a checkpoint
//! and replaying the remaining input must reproduce the exact stamped tape
//! of an unfailed run, bit for bit. Everything in this crate serves that
//! contract:
//!
//! * encodings are deterministic (sorted map orders, raw float bits, raw
//!   time-point words), so `checkpoint → restore → checkpoint` is
//!   byte-equal;
//! * decoding is total — corrupt, truncated or version-skewed images fail
//!   with a [`CodecError`] naming the offending section, never a panic;
//! * the image is validated in full (magic, version, content checksum,
//!   per-section checksums) *before* any payload is handed out, so a
//!   restore either sees a vetted image or touches nothing.
//!
//! The engine-level `Engine::checkpoint` / `Engine::restore` entry points
//! live in `cedr-core`; per-operator state hooks live in `cedr-runtime`.
//! This crate is deliberately low in the dependency order (temporal,
//! streams and the dependency-free `cedr-obs`, whose `OpStats` counters
//! travel in every operator's image) so both can build on it.

pub mod codec;
pub mod image;
mod impls;

pub use codec::{fnv1a, from_bytes, to_bytes, CodecError, Persist, Reader};
pub use image::{read_image, write_image, Manifest, Section, FORMAT_VERSION, MAGIC};
