//! Certificates and the certificate authority (paper §3.2, §4.6).
//!
//! Octopus limits Sybil attacks with a CA that issues identity
//! certificates; the same CA processes attack reports and *revokes* the
//! certificates of identified malicious nodes, which is how attackers are
//! ejected from the network. Unlike Myrmic/Torsk, certificates bind only
//! identity (id, address, public key, expiry) — never routing state — so
//! they need no re-issue on churn.

use std::collections::HashSet;
use std::fmt;

use octopus_id::NodeId;

use crate::merkle::MerkleTree;
use crate::rsa::{KeyPair, PublicKey, Signature, SignatureError};
use crate::sha256::sha256;

/// An identity certificate (the paper's X.509-lite, footnote 4: node IP,
/// public key, expiry, CA signature — 50 bytes on the wire).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Certificate {
    /// The ring position bound to this identity.
    pub node_id: NodeId,
    /// Network address (abstracted as a u32, standing in for IPv4).
    pub address: u32,
    /// The node's public verification key.
    pub public_key: PublicKey,
    /// Expiry time in seconds since the epoch of the deployment.
    pub expires_at: u64,
    /// The CA's signature over all of the above.
    pub ca_signature: Signature,
}

impl fmt::Debug for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Certificate")
            .field("node_id", &self.node_id)
            .field("address", &self.address)
            .field("expires_at", &self.expires_at)
            .finish_non_exhaustive()
    }
}

impl Certificate {
    /// Canonical byte encoding signed by the CA: id, address, key
    /// modulus, key exponent and expiry, each big-endian.
    #[must_use]
    pub fn signed_bytes(
        node_id: NodeId,
        address: u32,
        key: PublicKey,
        expires_at: u64,
    ) -> [u8; 36] {
        let mut out = [0u8; 36];
        out[..8].copy_from_slice(&node_id.0.to_be_bytes());
        out[8..12].copy_from_slice(&address.to_be_bytes());
        out[12..20].copy_from_slice(&key.n.to_be_bytes());
        out[20..28].copy_from_slice(&key.e.to_be_bytes());
        out[28..].copy_from_slice(&expires_at.to_be_bytes());
        out
    }

    /// Verify this certificate against the CA's public key and the clock.
    ///
    /// # Errors
    /// [`CertificateError::BadCaSignature`] when the CA signature fails,
    /// [`CertificateError::Expired`] when past expiry.
    pub fn verify(&self, ca_key: PublicKey, now: u64) -> Result<(), CertificateError> {
        let bytes =
            Certificate::signed_bytes(self.node_id, self.address, self.public_key, self.expires_at);
        ca_key
            .verify(&bytes, self.ca_signature)
            .map_err(CertificateError::BadCaSignature)?;
        if now > self.expires_at {
            return Err(CertificateError::Expired);
        }
        Ok(())
    }
}

/// Errors from certificate validation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CertificateError {
    /// The CA signature on the certificate did not verify.
    BadCaSignature(SignatureError),
    /// The certificate is past its expiry time.
    Expired,
    /// The certificate appears on the revocation list.
    Revoked,
}

impl fmt::Display for CertificateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertificateError::BadCaSignature(e) => write!(f, "bad CA signature: {e}"),
            CertificateError::Expired => write!(f, "certificate expired"),
            CertificateError::Revoked => write!(f, "certificate revoked"),
        }
    }
}

impl std::error::Error for CertificateError {}

/// The certificate authority.
///
/// Issues certificates and maintains the revocation list. The Octopus CA
/// is "online only for a short period with very limited workload" (§4.6);
/// the report-investigation logic lives in `octopus-core::ca` — this type
/// is the PKI substrate it drives.
pub struct CertificateAuthority {
    keypair: KeyPair,
    revoked: HashSet<NodeId>,
    issued: u64,
}

impl CertificateAuthority {
    /// Create a CA with a fresh key pair.
    pub fn new<R: rand::Rng + ?Sized>(rng: &mut R) -> Self {
        CertificateAuthority {
            keypair: KeyPair::generate(rng),
            revoked: HashSet::new(),
            issued: 0,
        }
    }

    /// The CA's public verification key, known to all nodes.
    #[must_use]
    pub fn public_key(&self) -> PublicKey {
        self.keypair.public()
    }

    /// Issue a certificate binding `node_id`/`address` to `key`.
    pub fn issue(
        &mut self,
        node_id: NodeId,
        address: u32,
        key: PublicKey,
        expires_at: u64,
    ) -> Certificate {
        self.issued += 1;
        let bytes = Certificate::signed_bytes(node_id, address, key, expires_at);
        Certificate {
            node_id,
            address,
            public_key: key,
            expires_at,
            ca_signature: self.keypair.sign(&bytes),
        }
    }

    /// Revoke the certificate of `node_id` (ejecting it from the overlay).
    /// Returns false when already revoked.
    pub fn revoke(&mut self, node_id: NodeId) -> bool {
        self.revoked.insert(node_id)
    }

    /// Is `node_id` revoked?
    #[must_use]
    pub fn is_revoked(&self, node_id: NodeId) -> bool {
        self.revoked.contains(&node_id)
    }

    /// Full certificate check: CA signature, expiry, revocation.
    ///
    /// # Errors
    /// See [`CertificateError`].
    pub fn check(&self, cert: &Certificate, now: u64) -> Result<(), CertificateError> {
        if self.is_revoked(cert.node_id) {
            return Err(CertificateError::Revoked);
        }
        cert.verify(self.public_key(), now)
    }

    /// Number of certificates issued so far.
    #[must_use]
    pub fn issued_count(&self) -> u64 {
        self.issued
    }

    /// Export a signed revocation list for P2P distribution.
    #[must_use]
    pub fn revocation_list(&self) -> RevocationList {
        let mut ids: Vec<NodeId> = self.revoked.iter().copied().collect();
        ids.sort_unstable();
        let leaves: Vec<Vec<u8>> = ids.iter().map(|id| id.0.to_be_bytes().to_vec()).collect();
        let tree = MerkleTree::build(&leaves);
        let root = tree.root();
        let sig = self.keypair.sign(&root.0);
        RevocationList {
            revoked: ids,
            root,
            signature: sig,
        }
    }
}

/// A signed certificate revocation list distributed over the overlay.
///
/// The list is committed to with a Merkle tree (following the
/// Merkle-hash-tree CRL design the paper cites \[25\]) so that nodes can
/// verify membership proofs without holding the whole list.
#[derive(Clone, Debug)]
pub struct RevocationList {
    /// Revoked node ids, sorted.
    pub revoked: Vec<NodeId>,
    /// Merkle root over the sorted revoked ids.
    pub root: crate::sha256::Digest,
    /// CA signature over the root.
    pub signature: Signature,
}

impl RevocationList {
    /// Verify the CA signature on the list root and that the root indeed
    /// commits to `revoked`.
    ///
    /// # Errors
    /// [`SignatureError::BadSignature`] when either check fails.
    pub fn verify(&self, ca_key: PublicKey) -> Result<(), SignatureError> {
        let leaves: Vec<Vec<u8>> = self
            .revoked
            .iter()
            .map(|id| id.0.to_be_bytes().to_vec())
            .collect();
        let tree = MerkleTree::build(&leaves);
        if tree.root() != self.root {
            return Err(SignatureError::BadSignature);
        }
        ca_key.verify(&self.root.0, self.signature)
    }

    /// Is `id` on the list?
    #[must_use]
    pub fn contains(&self, id: NodeId) -> bool {
        self.revoked.binary_search(&id).is_ok()
    }
}

/// Derive a node's ring position from its public key, as deployments
/// derive ids from certificates to stop id selection attacks.
#[must_use]
pub fn node_id_from_key(key: PublicKey) -> NodeId {
    let mut bytes = Vec::with_capacity(16);
    bytes.extend_from_slice(&key.n.to_be_bytes());
    bytes.extend_from_slice(&key.e.to_be_bytes());
    let d = sha256(&bytes);
    NodeId(u64::from_be_bytes(d.0[..8].try_into().expect("32 bytes")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (CertificateAuthority, KeyPair, StdRng) {
        let mut rng = StdRng::seed_from_u64(11);
        let ca = CertificateAuthority::new(&mut rng);
        let kp = KeyPair::generate(&mut rng);
        (ca, kp, rng)
    }

    #[test]
    fn issue_and_verify() {
        let (mut ca, kp, _) = setup();
        let cert = ca.issue(NodeId(42), 0x0a000001, kp.public(), 10_000);
        assert!(ca.check(&cert, 500).is_ok());
        assert_eq!(ca.issued_count(), 1);
    }

    #[test]
    fn signed_bytes_layout() {
        let key = PublicKey {
            n: 0x1112_1314_1516_1718,
            e: 0x2122_2324_2526_2728,
        };
        let bytes = Certificate::signed_bytes(
            NodeId(0x0102_0304_0506_0708),
            0x0a0b_0c0d,
            key,
            0x3132_3334_3536_3738,
        );
        let mut want = vec![1, 2, 3, 4, 5, 6, 7, 8, 0x0a, 0x0b, 0x0c, 0x0d];
        for hi in [0x10u8, 0x20, 0x30] {
            want.extend((1..=8).map(|lo| hi + lo));
        }
        assert_eq!(bytes[..], want[..]);
    }

    #[test]
    fn expiry_enforced() {
        let (mut ca, kp, _) = setup();
        let cert = ca.issue(NodeId(42), 1, kp.public(), 100);
        assert_eq!(ca.check(&cert, 101), Err(CertificateError::Expired));
        assert!(ca.check(&cert, 100).is_ok());
    }

    #[test]
    fn tampered_cert_rejected() {
        let (mut ca, kp, _) = setup();
        let mut cert = ca.issue(NodeId(42), 1, kp.public(), 10_000);
        cert.node_id = NodeId(43);
        assert!(matches!(
            ca.check(&cert, 0),
            Err(CertificateError::BadCaSignature(_))
        ));
    }

    #[test]
    fn revocation_ejects() {
        let (mut ca, kp, _) = setup();
        let cert = ca.issue(NodeId(42), 1, kp.public(), 10_000);
        assert!(ca.revoke(NodeId(42)));
        assert!(!ca.revoke(NodeId(42)), "double revoke reports false");
        assert_eq!(ca.check(&cert, 0), Err(CertificateError::Revoked));
    }

    #[test]
    fn revocation_list_verifies() {
        let (mut ca, kp, _) = setup();
        let _ = ca.issue(NodeId(1), 1, kp.public(), 10_000);
        ca.revoke(NodeId(5));
        ca.revoke(NodeId(3));
        let rl = ca.revocation_list();
        assert!(rl.verify(ca.public_key()).is_ok());
        assert!(rl.contains(NodeId(3)));
        assert!(rl.contains(NodeId(5)));
        assert!(!rl.contains(NodeId(4)));
    }

    #[test]
    fn forged_revocation_list_rejected() {
        let (mut ca, _, _) = setup();
        ca.revoke(NodeId(5));
        let mut rl = ca.revocation_list();
        rl.revoked.push(NodeId(99)); // adversary inserts an honest node
        rl.revoked.sort_unstable();
        assert!(rl.verify(ca.public_key()).is_err());
    }

    #[test]
    fn node_id_derivation_is_deterministic() {
        let (_, kp, _) = setup();
        assert_eq!(node_id_from_key(kp.public()), node_id_from_key(kp.public()));
    }

    #[test]
    fn empty_revocation_list_ok() {
        let (ca, _, _) = setup();
        let rl = ca.revocation_list();
        assert!(rl.verify(ca.public_key()).is_ok());
        assert!(rl.revoked.is_empty());
    }
}
