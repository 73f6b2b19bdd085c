//! Cryptographic substrate for Octopus, built from scratch.
//!
//! The paper (§4, footnote 4) assumes three primitives:
//!
//! 1. **Signatures with certificates** — every routing table
//!    (fingertable plus successor list) is signed and timestamped by its
//!    owner so that
//!    manipulated tables become non-repudiation proofs the CA can verify
//!    (§4.3–4.5). The paper uses ECDSA + X.509; we implement RSA with a
//!    64-bit modulus ([`rsa`]): *real* sign/verify semantics (hash,
//!    modular exponentiation, key pairs) that are functionally faithful
//!    but deliberately toy-sized. DESIGN.md records this substitution;
//!    the bandwidth model uses the paper's byte counts, not ours.
//! 2. **Onion encryption** — queries are relayed over anonymous paths
//!    with layered encryption (§4.1). The paper uses AES-128; we build a
//!    CTR-mode stream cipher over our SHA-256 ([`stream`]) and layered
//!    wrapping ([`onion`]).
//! 3. **A hash** mapping certificates to ring positions and keys to the
//!    key space ([`sha256`](mod@sha256)).
//!
//! Everything here is dependency-free (beyond `rand` for keygen) and
//! test-vectored where vectors exist (SHA-256, HMAC). The crate denies
//! unsafe code and allows it in one audited module: the SHA-NI
//! compression kernel inside [`sha256`](mod@sha256), which runs only
//! after a runtime check finds the SHA and SSE4.1 instructions on the
//! CPU. Elsewhere the portable compressor runs, and it is the oracle
//! the tests hold the kernel to.
//!
//! **Do not use this crate for real-world security** — the RSA modulus is
//! 64 bits and the cipher is home-grown. It exists so the reproduced
//! protocols exercise true sign/verify/encrypt code paths.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cert;
pub mod hmac;
pub mod merkle;
pub mod onion;
pub mod rsa;
pub mod sha256;
pub mod stream;

pub use cert::{Certificate, CertificateAuthority, CertificateError, RevocationList};
pub use hmac::hmac_sha256;
pub use merkle::MerkleTree;
pub use onion::{OnionError, OnionLayer};
pub use rsa::{KeyPair, PublicKey, Signature, SignatureError};
pub use sha256::{sha256, Digest, Sha256};
pub use stream::StreamCipher;

/// Derive a 64-bit ring position from arbitrary bytes (used to map
/// certificates and lookup keys onto the Chord ring).
#[must_use]
pub fn ring_position(bytes: &[u8]) -> u64 {
    let d = sha256(bytes);
    u64::from_be_bytes(d.0[..8].try_into().expect("digest has 32 bytes"))
}
