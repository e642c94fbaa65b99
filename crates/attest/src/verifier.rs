//! Quote verification: trust roots plus policy.

use std::collections::HashSet;

use fi_types::{Digest, PublicKey, SimTime};

use crate::device::DeviceKind;
use crate::error::AttestError;
use crate::quote::Quote;

/// What a verifier accepts: measurements, device kinds, quote freshness,
/// and an AIK revocation list.
#[derive(Debug, Clone, PartialEq)]
pub struct AttestationPolicy {
    accepted_measurements: HashSet<Digest>,
    allowed_devices: HashSet<DeviceKind>,
    max_age: SimTime,
    revoked: HashSet<PublicKey>,
}

impl AttestationPolicy {
    /// Starts building a policy. By default: no accepted measurements
    /// (accept **any** measurement — discovery mode), all device kinds
    /// allowed, unlimited age, nothing revoked.
    #[must_use]
    pub fn builder() -> AttestationPolicyBuilder {
        AttestationPolicyBuilder {
            policy: AttestationPolicy {
                accepted_measurements: HashSet::new(),
                allowed_devices: DeviceKind::ALL.into_iter().collect(),
                max_age: SimTime::MAX,
                revoked: HashSet::new(),
            },
        }
    }

    /// A permissive discovery policy (any measurement, any device, any
    /// age). Used when the goal is to *learn* the configuration
    /// distribution rather than to gate membership.
    #[must_use]
    pub fn discovery() -> AttestationPolicy {
        Self::builder().build()
    }

    /// Whether the measurement set is open (discovery mode).
    #[must_use]
    fn accepts_any_measurement(&self) -> bool {
        self.accepted_measurements.is_empty()
    }
}

/// Builder for [`AttestationPolicy`].
#[derive(Debug, Clone)]
pub struct AttestationPolicyBuilder {
    policy: AttestationPolicy,
}

impl AttestationPolicyBuilder {
    /// Accepts a measurement (switches from discovery mode to allow-list
    /// mode on first call).
    // lint: allow(unused-pub) paper-facing policy (§III-B): the verifier's measurement allow-list, shown in the crate example and held by the verifier's unit tests
    #[must_use]
    pub fn accept_measurement(mut self, m: Digest) -> Self {
        self.policy.accepted_measurements.insert(m);
        self
    }

    /// Restricts allowed device kinds (first call clears the default
    /// allow-all).
    // lint: allow(unused-pub) paper-facing policy (§III-B): SGX.Fail's strict verifier in integration_resilience_scenarios admits TPMs only through it
    #[must_use]
    pub fn allow_device(mut self, kind: DeviceKind) -> Self {
        if self.policy.allowed_devices.len() == DeviceKind::ALL.len() {
            self.policy.allowed_devices.clear();
        }
        self.policy.allowed_devices.insert(kind);
        self
    }

    /// Sets the maximum quote age.
    #[must_use]
    pub fn max_age(mut self, age: SimTime) -> Self {
        self.policy.max_age = age;
        self
    }

    /// Finishes the policy.
    #[must_use]
    pub fn build(self) -> AttestationPolicy {
        self.policy
    }
}

/// Verifies quotes against trusted endorsement roots and a policy, and
/// issues the challenge nonces the quotes answer.
#[derive(Debug, Clone)]
pub struct Verifier {
    policy: AttestationPolicy,
    trusted_endorsements: HashSet<PublicKey>,
    next_nonce: u64,
}

impl Verifier {
    /// Creates a verifier with no trust roots (every quote fails until
    /// [`trust_endorsement`](Self::trust_endorsement) is called).
    #[must_use]
    pub fn new(policy: AttestationPolicy) -> Self {
        Verifier {
            policy,
            trusted_endorsements: HashSet::new(),
            next_nonce: 1,
        }
    }

    /// Installs an endorsement trust root (a device vendor CA in the real
    /// world).
    pub fn trust_endorsement(&mut self, ek: PublicKey) {
        self.trusted_endorsements.insert(ek);
    }

    /// Revokes an AIK (e.g. after its device family is found compromised —
    /// the SGX.Fail scenario of the paper's §III-A).
    // lint: allow(unused-pub) paper-facing policy (§III-A): AIK revocation, rejected end to end in integration_monitor_pipeline
    pub fn revoke(&mut self, aik: PublicKey) {
        self.policy.revoked.insert(aik);
    }

    /// Issues a fresh challenge nonce for a replica's next quote — 1, 2,
    /// 3, … — never the same twice from one verifier. The quote answers it,
    /// and [`verify`](Self::verify) takes it back as `expected_nonce`.
    pub fn challenge(&mut self) -> u64 {
        let nonce = self.next_nonce;
        self.next_nonce += 1;
        nonce
    }

    /// Full verification: trust chain, signatures, revocation, policy, and
    /// freshness. `expected_nonce` is the [`challenge`](Self::challenge)
    /// this verifier issued; pass `None` for archived quotes whose
    /// challenge is no longer known.
    ///
    /// # Errors
    ///
    /// Returns the first failing [`AttestError`] check, in this order:
    /// endorsement trust, signatures, revocation, device kind, nonce,
    /// future timestamp, staleness, measurement.
    pub fn verify(
        &self,
        quote: &Quote,
        now: SimTime,
        expected_nonce: Option<u64>,
    ) -> Result<(), AttestError> {
        if !self.trusted_endorsements.contains(&quote.endorsement()) {
            return Err(AttestError::UntrustedEndorsement);
        }
        if !quote.signatures_valid() {
            return Err(AttestError::BadSignature);
        }
        if self.policy.revoked.contains(&quote.aik()) {
            return Err(AttestError::RevokedKey);
        }
        if !self.policy.allowed_devices.contains(&quote.device_kind()) {
            return Err(AttestError::DeviceNotAllowed);
        }
        if let Some(expected) = expected_nonce {
            if quote.nonce() != expected {
                return Err(AttestError::NonceMismatch {
                    expected,
                    actual: quote.nonce(),
                });
            }
        }
        if quote.quoted_at() > now {
            return Err(AttestError::FutureQuote);
        }
        let age = now.saturating_sub(quote.quoted_at());
        if age > self.policy.max_age {
            return Err(AttestError::StaleQuote {
                quoted_at: quote.quoted_at(),
                now,
                max_age: self.policy.max_age,
            });
        }
        if !self.policy.accepts_any_measurement()
            && !self
                .policy
                .accepted_measurements
                .contains(&quote.measurement())
        {
            return Err(AttestError::MeasurementNotAccepted);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::TrustedDevice;
    use fi_types::{sha256, KeyPair};

    fn setup() -> (TrustedDevice, Quote) {
        let device = TrustedDevice::new(DeviceKind::IntelSgx, 1);
        let aik = device.create_aik("a");
        let quote = aik.quote(
            sha256(b"golden"),
            7,
            KeyPair::from_seed(2).public_key(),
            SimTime::from_secs(100),
        );
        (device, quote)
    }

    fn trusting_verifier(device: &TrustedDevice, policy: AttestationPolicy) -> Verifier {
        let mut v = Verifier::new(policy);
        v.trust_endorsement(device.endorsement_key());
        v
    }

    #[test]
    fn happy_path() {
        let (device, quote) = setup();
        let v = trusting_verifier(&device, AttestationPolicy::discovery());
        assert!(v.verify(&quote, SimTime::from_secs(101), Some(7)).is_ok());
    }

    #[test]
    fn untrusted_endorsement_rejected() {
        let (_, quote) = setup();
        let v = Verifier::new(AttestationPolicy::discovery());
        assert_eq!(
            v.verify(&quote, SimTime::from_secs(101), None),
            Err(AttestError::UntrustedEndorsement)
        );
    }

    #[test]
    fn bad_signature_rejected() {
        let (device, quote) = setup();
        let v = trusting_verifier(&device, AttestationPolicy::discovery());
        let tampered = quote.with_measurement(sha256(b"evil"));
        assert_eq!(
            v.verify(&tampered, SimTime::from_secs(101), None),
            Err(AttestError::BadSignature)
        );
    }

    #[test]
    fn revoked_aik_rejected() {
        let (device, quote) = setup();
        let mut v = trusting_verifier(&device, AttestationPolicy::discovery());
        v.revoke(quote.aik());
        assert_eq!(
            v.verify(&quote, SimTime::from_secs(101), None),
            Err(AttestError::RevokedKey)
        );
    }

    #[test]
    fn challenges_are_unique() {
        let mut v = Verifier::new(AttestationPolicy::discovery());
        let a = v.challenge();
        let b = v.challenge();
        assert_ne!(a, b);
    }

    #[test]
    fn device_allow_list_enforced() {
        let (device, quote) = setup();
        let policy = AttestationPolicy::builder()
            .allow_device(DeviceKind::Tpm20)
            .build();
        let v = trusting_verifier(&device, policy);
        assert_eq!(
            v.verify(&quote, SimTime::from_secs(101), None),
            Err(AttestError::DeviceNotAllowed)
        );
    }

    #[test]
    fn nonce_mismatch_rejected() {
        let (device, quote) = setup();
        let v = trusting_verifier(&device, AttestationPolicy::discovery());
        assert_eq!(
            v.verify(&quote, SimTime::from_secs(101), Some(8)),
            Err(AttestError::NonceMismatch {
                expected: 8,
                actual: 7
            })
        );
    }

    #[test]
    fn stale_and_future_quotes_rejected() {
        let (device, quote) = setup();
        let policy = AttestationPolicy::builder()
            .max_age(SimTime::from_secs(10))
            .build();
        let v = trusting_verifier(&device, policy);
        assert!(matches!(
            v.verify(&quote, SimTime::from_secs(200), None),
            Err(AttestError::StaleQuote { .. })
        ));
        assert_eq!(
            v.verify(&quote, SimTime::from_secs(50), None),
            Err(AttestError::FutureQuote)
        );
        assert!(v.verify(&quote, SimTime::from_secs(105), None).is_ok());
    }

    #[test]
    fn measurement_allow_list_enforced() {
        let (device, quote) = setup();
        let policy = AttestationPolicy::builder()
            .accept_measurement(sha256(b"different-golden"))
            .build();
        let v = trusting_verifier(&device, policy);
        assert_eq!(
            v.verify(&quote, SimTime::from_secs(101), None),
            Err(AttestError::MeasurementNotAccepted)
        );
        // A policy that lists the quote's measurement accepts it.
        let policy = AttestationPolicy::builder()
            .accept_measurement(sha256(b"golden"))
            .build();
        let v = trusting_verifier(&device, policy);
        assert!(v.verify(&quote, SimTime::from_secs(101), None).is_ok());
    }

    #[test]
    fn discovery_policy_accepts_any_measurement() {
        let p = AttestationPolicy::discovery();
        assert!(p.accepts_any_measurement());
        let p2 = AttestationPolicy::builder()
            .accept_measurement(sha256(b"x"))
            .build();
        assert!(!p2.accepts_any_measurement());
    }
}
