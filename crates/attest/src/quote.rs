//! Attestation quotes: signed statements "a device of kind K, certified by
//! endorsement E, measured configuration M at time T, for the replica whose
//! vote key is V, answering challenge N".

use fi_types::hash::hash_fields;
use fi_types::{Digest, KeyPair, PublicKey, Signature, SimTime};

use crate::device::{AttestationKey, DeviceKind};

/// A remote-attestation quote (paper §III-B, including the Remark-3
/// vote-key binding).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quote {
    device_kind: DeviceKind,
    measurement: Digest,
    nonce: u64,
    vote_key: PublicKey,
    quoted_at: SimTime,
    aik: PublicKey,
    endorsement: PublicKey,
    aik_certificate: Signature,
    signature: Signature,
}

impl Quote {
    pub(crate) fn create(
        aik: &AttestationKey,
        measurement: Digest,
        nonce: u64,
        vote_key: PublicKey,
        at: SimTime,
        signer: &KeyPair,
    ) -> Quote {
        let mut quote = Quote {
            device_kind: aik.device_kind(),
            measurement,
            nonce,
            vote_key,
            quoted_at: at,
            aik: aik.public_key(),
            endorsement: aik.endorsement(),
            aik_certificate: *aik.certificate(),
            signature: signer.sign([0u8; 0]), // placeholder, replaced below
        };
        quote.signature = signer.sign(quote.signed_payload());
        quote
    }

    /// The byte string the quote signature covers.
    fn signed_payload(&self) -> Vec<u8> {
        hash_fields(&[
            b"fi-quote-v1",
            self.device_kind.label().as_bytes(),
            self.measurement.as_bytes(),
            &self.nonce.to_be_bytes(),
            self.vote_key.as_bytes(),
            &self.quoted_at.as_micros().to_be_bytes(),
            self.aik.as_bytes(),
        ])
        .as_bytes()
        .to_vec()
    }

    /// The device family.
    #[must_use]
    pub fn device_kind(&self) -> DeviceKind {
        self.device_kind
    }

    /// The attested configuration measurement.
    #[must_use]
    pub fn measurement(&self) -> Digest {
        self.measurement
    }

    /// The challenge nonce.
    #[must_use]
    pub fn nonce(&self) -> u64 {
        self.nonce
    }

    /// The bound vote key (Remark 3).
    #[must_use]
    pub fn vote_key(&self) -> PublicKey {
        self.vote_key
    }

    /// When the quote was produced.
    #[must_use]
    pub fn quoted_at(&self) -> SimTime {
        self.quoted_at
    }

    /// The attestation identity key.
    #[must_use]
    pub fn aik(&self) -> PublicKey {
        self.aik
    }

    /// The endorsement key that certified the AIK.
    #[must_use]
    pub fn endorsement(&self) -> PublicKey {
        self.endorsement
    }

    /// Checks the two signatures (AIK certificate chain and quote
    /// signature) without applying any policy. Policy checks live in
    /// [`crate::Verifier`].
    #[must_use]
    pub fn signatures_valid(&self) -> bool {
        let cert_msg = crate::device::aik_cert_message(self.device_kind, &self.aik);
        self.endorsement.verify(&cert_msg, &self.aik_certificate)
            && self.aik.verify(self.signed_payload(), &self.signature)
    }

    /// Returns a tampered copy (different measurement) — test helper for
    /// negative paths, kept in the public API so downstream crates can
    /// exercise their own rejection handling.
    // lint: allow(unused-pub) test seam: forges the tampered quotes that attest_properties and integration_monitor_pipeline expect rejected
    #[must_use]
    pub fn with_measurement(&self, measurement: Digest) -> Quote {
        let mut q = self.clone();
        q.measurement = measurement;
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::TrustedDevice;
    use fi_types::sha256;

    fn sample_quote() -> Quote {
        let device = TrustedDevice::new(DeviceKind::Tpm20, 1);
        let aik = device.create_aik("a");
        aik.quote(
            sha256(b"config"),
            42,
            KeyPair::from_seed(9).public_key(),
            SimTime::from_secs(3),
        )
    }

    #[test]
    fn valid_quote_passes_signature_checks() {
        assert!(sample_quote().signatures_valid());
    }

    #[test]
    fn tampered_measurement_fails() {
        let q = sample_quote().with_measurement(sha256(b"other"));
        assert!(!q.signatures_valid());
    }

    #[test]
    fn tampered_nonce_fails() {
        let mut q = sample_quote();
        q.nonce = 43;
        assert!(!q.signatures_valid());
    }

    #[test]
    fn tampered_vote_key_fails() {
        // An attacker cannot re-bind someone else's attested configuration
        // to their own vote key (the Remark-3 property).
        let mut q = sample_quote();
        q.vote_key = KeyPair::from_seed(666).public_key();
        assert!(!q.signatures_valid());
    }

    #[test]
    fn tampered_timestamp_fails() {
        let mut q = sample_quote();
        q.quoted_at = SimTime::from_secs(999);
        assert!(!q.signatures_valid());
    }

    #[test]
    fn forged_aik_without_certificate_fails() {
        // A self-made AIK not certified by the endorsement is rejected at
        // the certificate step.
        let mut q = sample_quote();
        q.aik = KeyPair::from_seed(123).public_key();
        assert!(!q.signatures_valid());
    }

    #[test]
    fn accessors_round_trip() {
        let q = sample_quote();
        assert_eq!(q.measurement(), sha256(b"config"));
        assert_eq!(q.nonce(), 42);
        assert_eq!(q.quoted_at(), SimTime::from_secs(3));
        assert_eq!(q.device_kind(), DeviceKind::Tpm20);
    }
}
