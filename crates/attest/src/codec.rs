//! Canonical binary encodings for the attestation vocabulary.
//!
//! Implements `fi_types::codec`'s [`Encode`]/[`Decode`] for the types the
//! durability layer persists: [`ChurnOp`] (the write-ahead log's record
//! payload), [`RegisteredDevice`] and [`ReplicaTier`] (snapshot-checkpoint
//! roster rows), and [`TwoTierWeights`] (checkpoint configuration — encoded
//! as IEEE-754 bit patterns, so the round trip is bit-exact and the
//! recovered registry scales effective power identically to the pre-crash
//! one).
//!
//! Enum layouts (one tag byte, then fields in declaration order):
//!
//! | type | tag | fields |
//! |---|---|---|
//! | `ChurnOp::Attest` | 0 | replica, measurement, vote_key (`Option`), power |
//! | `ChurnOp::Unattested` | 1 | replica, power |
//! | `ChurnOp::Deregister` | 2 | replica |
//! | `ReplicaTier::Attested` | 0 | — |
//! | `ReplicaTier::Unattested` | 1 | — |
//!
//! A [`RegisteredDevice`] row is `replica, tier, measurement (Option),
//! power`. The tier byte restates whether a measurement follows: the
//! encoder writes it from the measurement, and the decoder refuses a row
//! where the two disagree — a device value cannot hold that state, and this
//! is the one place bytes from outside become device values.

use fi_types::codec::{CodecError, Decode, Encode, Reader};
use fi_types::{Digest, PublicKey, ReplicaId, VotingPower};

use crate::churn::ChurnOp;
use crate::registry::{RegisteredDevice, ReplicaTier, TwoTierWeights};

impl Encode for ChurnOp {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ChurnOp::Attest {
                replica,
                measurement,
                vote_key,
                power,
            } => {
                out.push(0);
                replica.encode(out);
                measurement.encode(out);
                vote_key.encode(out);
                power.encode(out);
            }
            ChurnOp::Unattested { replica, power } => {
                out.push(1);
                replica.encode(out);
                power.encode(out);
            }
            ChurnOp::Deregister { replica } => {
                out.push(2);
                replica.encode(out);
            }
        }
    }
}

impl Decode for ChurnOp {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(ChurnOp::Attest {
                replica: ReplicaId::decode(r)?,
                measurement: Digest::decode(r)?,
                vote_key: Option::<PublicKey>::decode(r)?,
                power: VotingPower::decode(r)?,
            }),
            1 => Ok(ChurnOp::Unattested {
                replica: ReplicaId::decode(r)?,
                power: VotingPower::decode(r)?,
            }),
            2 => Ok(ChurnOp::Deregister {
                replica: ReplicaId::decode(r)?,
            }),
            tag => Err(CodecError::InvalidTag {
                context: "ChurnOp",
                tag,
            }),
        }
    }
}

impl Encode for ReplicaTier {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            ReplicaTier::Attested => 0,
            ReplicaTier::Unattested => 1,
        });
    }
}

impl Decode for ReplicaTier {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(ReplicaTier::Attested),
            1 => Ok(ReplicaTier::Unattested),
            tag => Err(CodecError::InvalidTag {
                context: "ReplicaTier",
                tag,
            }),
        }
    }
}

impl Encode for RegisteredDevice {
    fn encode(&self, out: &mut Vec<u8>) {
        self.replica.encode(out);
        self.tier().encode(out);
        self.measurement.encode(out);
        self.power.encode(out);
    }
}

impl Decode for RegisteredDevice {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let replica = ReplicaId::decode(r)?;
        let tier = ReplicaTier::decode(r)?;
        let device = RegisteredDevice {
            replica,
            measurement: Option::<Digest>::decode(r)?,
            power: VotingPower::decode(r)?,
        };
        if device.tier() != tier {
            return Err(CodecError::InvalidTag {
                context: "RegisteredDevice (tier contradicts the measurement option)",
                tag: tier.to_bytes()[0],
            });
        }
        Ok(device)
    }
}

impl Encode for TwoTierWeights {
    fn encode(&self, out: &mut Vec<u8>) {
        self.attested().to_bits().encode(out);
        self.unattested().to_bits().encode(out);
    }
}

impl Decode for TwoTierWeights {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let attested = f64::from_bits(u64::decode(r)?);
        let unattested = f64::from_bits(u64::decode(r)?);
        // `TwoTierWeights::new` panics on non-finite or negative weights;
        // decoding untrusted bytes must reject them as data errors instead.
        if !(attested.is_finite() && attested >= 0.0) {
            return Err(CodecError::InvalidTag {
                context: "TwoTierWeights::attested (non-finite or negative)",
                tag: 0,
            });
        }
        if !(unattested.is_finite() && unattested >= 0.0) {
            return Err(CodecError::InvalidTag {
                context: "TwoTierWeights::unattested (non-finite or negative)",
                tag: 1,
            });
        }
        Ok(TwoTierWeights::new(attested, unattested))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fi_types::{sha256, KeyPair};

    fn sample_ops() -> Vec<ChurnOp> {
        vec![
            ChurnOp::attest(ReplicaId::new(1), sha256(b"cfg-a"), VotingPower::new(10)),
            ChurnOp::Attest {
                replica: ReplicaId::new(2),
                measurement: sha256(b"cfg-b"),
                vote_key: Some(KeyPair::from_seed(5).public_key()),
                power: VotingPower::new(u64::MAX),
            },
            ChurnOp::Unattested {
                replica: ReplicaId::new(3),
                power: VotingPower::new(0),
            },
            ChurnOp::Deregister {
                replica: ReplicaId::new(u64::MAX),
            },
        ]
    }

    #[test]
    fn churn_ops_round_trip_bit_exactly() {
        for op in sample_ops() {
            let bytes = op.to_bytes();
            assert_eq!(ChurnOp::from_bytes(&bytes).unwrap(), op);
            // Determinism: re-encoding the decoded value is byte-identical.
            assert_eq!(ChurnOp::from_bytes(&bytes).unwrap().to_bytes(), bytes);
        }
        let batch = sample_ops();
        assert_eq!(
            Vec::<ChurnOp>::from_bytes(&batch.to_bytes()).unwrap(),
            batch
        );
    }

    #[test]
    fn devices_and_tiers_round_trip() {
        let devices = vec![
            RegisteredDevice {
                replica: ReplicaId::new(0),
                measurement: Some(sha256(b"cfg")),
                power: VotingPower::new(9),
            },
            RegisteredDevice {
                replica: ReplicaId::new(1),
                measurement: None,
                power: VotingPower::new(4),
            },
        ];
        assert_eq!(
            Vec::<RegisteredDevice>::from_bytes(&devices.to_bytes()).unwrap(),
            devices
        );
        for tier in [ReplicaTier::Attested, ReplicaTier::Unattested] {
            assert_eq!(ReplicaTier::from_bytes(&tier.to_bytes()).unwrap(), tier);
        }
        assert!(matches!(
            ReplicaTier::from_bytes(&[9]),
            Err(CodecError::InvalidTag { tag: 9, .. })
        ));
    }

    #[test]
    fn a_tier_byte_that_contradicts_the_measurement_option_does_not_decode() {
        // Byte 8 of a row is the tier, right behind the 8-byte replica id.
        for measurement in [Some(sha256(b"cfg")), None] {
            let device = RegisteredDevice {
                replica: ReplicaId::new(7),
                measurement,
                power: VotingPower::new(3),
            };
            let mut bytes = device.to_bytes();
            assert_eq!(RegisteredDevice::from_bytes(&bytes).unwrap(), device);
            assert_eq!(bytes[8], u8::from(measurement.is_none()));
            bytes[8] ^= 1;
            assert!(matches!(
                RegisteredDevice::from_bytes(&bytes),
                Err(CodecError::InvalidTag { tag, .. }) if tag == bytes[8]
            ));
        }
    }

    #[test]
    fn weights_round_trip_bit_exactly_and_reject_poison() {
        for w in [
            TwoTierWeights::default(),
            TwoTierWeights::flat(),
            TwoTierWeights::new(0.1 + 0.2, 1e-300),
        ] {
            let back = TwoTierWeights::from_bytes(&w.to_bytes()).unwrap();
            assert_eq!(back.attested().to_bits(), w.attested().to_bits());
            assert_eq!(back.unattested().to_bits(), w.unattested().to_bits());
        }
        // NaN / negative bit patterns must come back as errors, not panics.
        let mut nan = Vec::new();
        f64::NAN.to_bits().encode(&mut nan);
        1.0f64.to_bits().encode(&mut nan);
        assert!(TwoTierWeights::from_bytes(&nan).is_err());
        let mut neg = Vec::new();
        1.0f64.to_bits().encode(&mut neg);
        (-0.5f64).to_bits().encode(&mut neg);
        assert!(TwoTierWeights::from_bytes(&neg).is_err());
    }

    #[test]
    fn unknown_churn_tag_is_an_error() {
        assert!(matches!(
            ChurnOp::from_bytes(&[3]),
            Err(CodecError::InvalidTag { tag: 3, .. })
        ));
        // Truncated Attest payload.
        let mut bytes = sample_ops()[0].to_bytes();
        bytes.truncate(bytes.len() - 1);
        assert!(matches!(
            ChurnOp::from_bytes(&bytes),
            Err(CodecError::UnexpectedEof { .. })
        ));
    }
}
