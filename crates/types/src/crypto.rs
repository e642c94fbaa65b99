//! Simulation-grade signatures.
//!
//! The paper assumes "the security of the used cryptographic primitives and
//! protocols, but not their implementations" (§II-B): an attacker compromises
//! replicas through *implementation* faults modelled by the vulnerability
//! database, never by breaking the primitives. The signature scheme here is
//! therefore **not** a real public-key signature; it is a deterministic,
//! domain-separated digest construction that gives the protocols in this
//! workspace exactly the authentication oracle the paper assumes:
//!
//! * `sign(kp, msg)` produces `H("fi-sig" ‖ pk ‖ msg)`;
//! * `verify(pk, msg, sig)` recomputes and compares.
//!
//! Inside a closed simulation no component ever *attempts* to forge — all
//! Byzantine behaviour is expressed through the explicit behaviour modules in
//! `fi-bft`/`fi-nakamoto`, matching the paper's model where faulty replicas
//! misbehave at the protocol layer, not the crypto layer. The substitution
//! is documented in DESIGN.md §3. Do **not** use this outside a simulation.

use core::fmt;

use crate::hash::{hash_fields, Digest};
use crate::hex;

const SIGNATURE_DOMAIN: &[u8] = b"fi-sig-v1";
const KEY_DOMAIN: &[u8] = b"fi-key-v1";

/// A public verification key (derived from the keypair seed).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PublicKey(Digest);

impl PublicKey {
    /// Returns the key bytes.
    #[must_use]
    pub const fn as_bytes(&self) -> &[u8; 32] {
        self.0.as_bytes()
    }

    /// Reconstructs a key from its digest form — the codec's decode path
    /// (`crate::codec`). Crate-private: user code obtains keys from
    /// [`KeyPair::public_key`] only.
    pub(crate) const fn from_digest(digest: Digest) -> PublicKey {
        PublicKey(digest)
    }
}

impl fmt::Display for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&hex::encode(&self.0 .0[..8]))
    }
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PublicKey({self})")
    }
}

/// A signature over a message (see the module docs for the security model).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature(Digest);

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Signature({}..)", hex::encode(&self.0 .0[..6]))
    }
}

/// A signing keypair.
///
/// # Example
///
/// ```
/// use fi_types::KeyPair;
/// let kp = KeyPair::from_seed(7);
/// let sig = kp.sign(b"vote for block 9");
/// assert!(kp.public_key().verify(b"vote for block 9", &sig));
/// assert!(!kp.public_key().verify(b"vote for block 8", &sig));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyPair {
    public: PublicKey,
}

impl KeyPair {
    /// Derives a keypair deterministically from a seed. Distinct seeds give
    /// distinct keys (with overwhelming probability over SHA-256).
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        let pk = hash_fields(&[KEY_DOMAIN, &seed.to_be_bytes()]);
        KeyPair {
            public: PublicKey(pk),
        }
    }

    /// Derives a keypair from arbitrary seed material (e.g. a device
    /// endorsement key plus a label).
    #[must_use]
    pub fn from_material(material: &[&[u8]]) -> Self {
        let mut fields = vec![KEY_DOMAIN];
        fields.extend_from_slice(material);
        KeyPair {
            public: PublicKey(hash_fields(&fields)),
        }
    }

    /// The public half of the keypair.
    #[must_use]
    pub const fn public_key(&self) -> PublicKey {
        self.public
    }

    /// Signs `msg`.
    #[must_use]
    pub fn sign(&self, msg: impl AsRef<[u8]>) -> Signature {
        Signature(hash_fields(&[
            SIGNATURE_DOMAIN,
            self.public.0.as_bytes(),
            msg.as_ref(),
        ]))
    }
}

impl PublicKey {
    /// Verifies `sig` over `msg` under this key.
    #[must_use]
    pub fn verify(&self, msg: impl AsRef<[u8]>, sig: &Signature) -> bool {
        let expect = hash_fields(&[SIGNATURE_DOMAIN, self.0.as_bytes(), msg.as_ref()]);
        expect == sig.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_round_trip() {
        let kp = KeyPair::from_seed(1);
        let sig = kp.sign(b"m");
        assert!(kp.public_key().verify(b"m", &sig));
    }

    #[test]
    fn verify_rejects_other_message() {
        let kp = KeyPair::from_seed(1);
        let sig = kp.sign(b"m");
        assert!(!kp.public_key().verify(b"n", &sig));
    }

    #[test]
    fn verify_rejects_other_key() {
        let kp1 = KeyPair::from_seed(1);
        let kp2 = KeyPair::from_seed(2);
        let sig = kp1.sign(b"m");
        assert!(!kp2.public_key().verify(b"m", &sig));
    }

    #[test]
    fn distinct_seeds_give_distinct_keys() {
        let keys: Vec<PublicKey> = (0..100)
            .map(|s| KeyPair::from_seed(s).public_key())
            .collect();
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j]);
            }
        }
    }

    #[test]
    fn deterministic_derivation() {
        assert_eq!(KeyPair::from_seed(9), KeyPair::from_seed(9));
        assert_eq!(
            KeyPair::from_material(&[b"ek", b"aik-0"]),
            KeyPair::from_material(&[b"ek", b"aik-0"])
        );
        assert_ne!(
            KeyPair::from_material(&[b"ek", b"aik-0"]),
            KeyPair::from_material(&[b"ek", b"aik-1"])
        );
    }

    #[test]
    fn display_is_short_hex() {
        let pk = KeyPair::from_seed(3).public_key();
        assert_eq!(pk.to_string().len(), 16);
    }
}
