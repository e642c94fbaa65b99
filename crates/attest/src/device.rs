//! Simulated trusted devices and attestation identity keys.

use core::fmt;

use fi_types::{KeyPair, PublicKey, Signature, SimTime};

use crate::quote::Quote;

/// The hardware families the paper names as attestation roots (§III-B):
/// TPM 2.0 products, Intel SGX, ARM TrustZone, AMD PSP, IBM Secure Service
/// Container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DeviceKind {
    /// A discrete TPM 2.0.
    Tpm20,
    /// Intel Software Guard Extensions.
    IntelSgx,
    /// ARM TrustZone.
    ArmTrustZone,
    /// AMD Platform Security Processor (SEV-SNP attestation).
    AmdPsp,
    /// IBM Secure Service Container.
    IbmSsc,
}

impl DeviceKind {
    /// All device kinds.
    pub const ALL: [DeviceKind; 5] = [
        DeviceKind::Tpm20,
        DeviceKind::IntelSgx,
        DeviceKind::ArmTrustZone,
        DeviceKind::AmdPsp,
        DeviceKind::IbmSsc,
    ];

    /// Stable label.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            DeviceKind::Tpm20 => "tpm2.0",
            DeviceKind::IntelSgx => "intel-sgx",
            DeviceKind::ArmTrustZone => "arm-trustzone",
            DeviceKind::AmdPsp => "amd-psp",
            DeviceKind::IbmSsc => "ibm-ssc",
        }
    }
}

impl fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A simulated trusted device: an endorsement key burned in at
/// "manufacture" (derived from the seed) from which attestation identity
/// keys are certified.
#[derive(Debug, Clone)]
pub struct TrustedDevice {
    kind: DeviceKind,
    endorsement: KeyPair,
}

impl TrustedDevice {
    /// Manufactures a device of `kind` with identity `seed`.
    #[must_use]
    pub fn new(kind: DeviceKind, seed: u64) -> Self {
        let endorsement = KeyPair::from_material(&[
            b"fi-device-ek",
            kind.label().as_bytes(),
            &seed.to_be_bytes(),
        ]);
        TrustedDevice { kind, endorsement }
    }

    /// The device family.
    #[must_use]
    pub fn kind(&self) -> DeviceKind {
        self.kind
    }

    /// The endorsement public key — what verifiers install as a trust root
    /// (standing in for the vendor CA chain).
    #[must_use]
    pub fn endorsement_key(&self) -> PublicKey {
        self.endorsement.public_key()
    }

    /// Derives and certifies an attestation identity key. Real TPMs run an
    /// activation protocol here; the simulation certifies directly.
    #[must_use]
    pub fn create_aik(&self, label: &str) -> AttestationKey {
        let key = KeyPair::from_material(&[
            b"fi-device-aik",
            self.endorsement.public_key().as_bytes(),
            label.as_bytes(),
        ]);
        let certificate = self
            .endorsement
            .sign(aik_cert_message(self.kind, &key.public_key()));
        AttestationKey {
            kind: self.kind,
            key,
            endorsement: self.endorsement.public_key(),
            certificate,
        }
    }
}

pub(crate) fn aik_cert_message(kind: DeviceKind, aik: &PublicKey) -> Vec<u8> {
    let mut msg = Vec::with_capacity(64);
    msg.extend_from_slice(b"fi-aik-cert-v1");
    msg.extend_from_slice(kind.label().as_bytes());
    msg.extend_from_slice(aik.as_bytes());
    msg
}

/// An attestation identity key: signs quotes; certified by its device's
/// endorsement key.
#[derive(Debug, Clone)]
pub struct AttestationKey {
    kind: DeviceKind,
    key: KeyPair,
    endorsement: PublicKey,
    certificate: Signature,
}

impl AttestationKey {
    /// The device family that certified this key.
    #[must_use]
    pub fn device_kind(&self) -> DeviceKind {
        self.kind
    }

    /// The AIK public key.
    #[must_use]
    pub fn public_key(&self) -> PublicKey {
        self.key.public_key()
    }

    /// The endorsement key that certified this AIK.
    #[must_use]
    pub fn endorsement(&self) -> PublicKey {
        self.endorsement
    }

    /// The endorsement signature over this AIK.
    #[must_use]
    pub fn certificate(&self) -> &Signature {
        &self.certificate
    }

    /// Produces a quote over `measurement`, binding the challenge `nonce`,
    /// the replica's `vote_key` (Remark 3), and the quote time.
    #[must_use]
    pub fn quote(
        &self,
        measurement: fi_types::Digest,
        nonce: u64,
        vote_key: PublicKey,
        at: SimTime,
    ) -> Quote {
        Quote::create(self, measurement, nonce, vote_key, at, &self.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fi_types::sha256;

    #[test]
    fn device_kinds_have_unique_labels() {
        let mut labels: Vec<&str> = DeviceKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), DeviceKind::ALL.len());
        assert_eq!(DeviceKind::IntelSgx.to_string(), "intel-sgx");
    }

    #[test]
    fn devices_are_deterministic_per_seed() {
        let a = TrustedDevice::new(DeviceKind::Tpm20, 1);
        let b = TrustedDevice::new(DeviceKind::Tpm20, 1);
        let c = TrustedDevice::new(DeviceKind::Tpm20, 2);
        assert_eq!(a.endorsement_key(), b.endorsement_key());
        assert_ne!(a.endorsement_key(), c.endorsement_key());
    }

    #[test]
    fn same_seed_different_kind_different_ek() {
        let a = TrustedDevice::new(DeviceKind::Tpm20, 1);
        let b = TrustedDevice::new(DeviceKind::IntelSgx, 1);
        assert_ne!(a.endorsement_key(), b.endorsement_key());
    }

    #[test]
    fn aik_certificate_verifies_under_endorsement() {
        let device = TrustedDevice::new(DeviceKind::AmdPsp, 3);
        let aik = device.create_aik("a");
        let msg = aik_cert_message(aik.device_kind(), &aik.public_key());
        assert!(device.endorsement_key().verify(&msg, aik.certificate()));
        assert_eq!(aik.endorsement(), device.endorsement_key());
        assert_eq!(aik.device_kind(), DeviceKind::AmdPsp);
    }

    #[test]
    fn distinct_labels_give_distinct_aiks() {
        let device = TrustedDevice::new(DeviceKind::IbmSsc, 4);
        assert_ne!(
            device.create_aik("a").public_key(),
            device.create_aik("b").public_key()
        );
    }

    #[test]
    fn quote_production_smoke() {
        let device = TrustedDevice::new(DeviceKind::ArmTrustZone, 5);
        let aik = device.create_aik("q");
        let vote = KeyPair::from_seed(1).public_key();
        let q = aik.quote(sha256(b"m"), 7, vote, SimTime::from_secs(1));
        assert_eq!(q.measurement(), sha256(b"m"));
        assert_eq!(q.nonce(), 7);
        assert_eq!(q.vote_key(), vote);
        assert_eq!(q.device_kind(), DeviceKind::ArmTrustZone);
    }
}
