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
//! Enum layouts (one tag byte, then the fields listed, in order):
//!
//! | type | tag | fields |
//! |---|---|---|
//! | `ChurnOp::Attest` | 0 | replica, measurement, vote-key slot (`Option`, written `None`; a key read from an older log is discarded), power |
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
                power,
            } => {
                out.push(0);
                replica.encode(out);
                measurement.encode(out);
                None::<PublicKey>.encode(out);
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
            0 => {
                let replica = ReplicaId::decode(r)?;
                let measurement = Digest::decode(r)?;
                let _vote_key = Option::<PublicKey>::decode(r)?;
                Ok(ChurnOp::Attest {
                    replica,
                    measurement,
                    power: VotingPower::decode(r)?,
                })
            }
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
            ChurnOp::attest(
                ReplicaId::new(2),
                sha256(b"cfg-b"),
                VotingPower::new(u64::MAX),
            ),
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
    fn an_attest_op_encodes_to_the_pinned_bytes() {
        // Tag, replica (little-endian), measurement, the empty key slot,
        // power: the layout every log has been written in.
        let op = ChurnOp::attest(
            ReplicaId::new(0x0102_0304_0506_0708),
            Digest([0xAB; 32]),
            VotingPower::new(0x1112_1314_1516_1718),
        );
        let pinned = [
            &[0x00][..],
            &[0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01],
            &[0xAB; 32],
            &[0x00],
            &[0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11],
        ]
        .concat();
        assert_eq!(op.to_bytes(), pinned);
        assert_eq!(ChurnOp::from_bytes(&pinned).unwrap(), op);
    }

    /// An `Attest` record as a log written with vote keys holds it: the
    /// slot present (`1`) and the 32 key bytes behind it.
    fn keyed_record(op: &ChurnOp, key_tag: u8) -> Vec<u8> {
        let ChurnOp::Attest {
            replica,
            measurement,
            power,
        } = *op
        else {
            panic!("a keyed record is an Attest record");
        };
        let key = KeyPair::from_seed(5).public_key();
        [
            &[0x00][..],
            &replica.as_u64().to_le_bytes(),
            measurement.as_bytes(),
            &[key_tag],
            key.as_bytes(),
            &power.as_units().to_le_bytes(),
        ]
        .concat()
    }

    #[test]
    fn a_keyed_attest_record_decodes_to_the_keyless_op() {
        let op = sample_ops()[1];
        let keyed = keyed_record(&op, 1);
        assert_eq!(keyed.len(), op.to_bytes().len() + 32);
        let decoded = ChurnOp::from_bytes(&keyed).unwrap();
        assert_eq!(decoded, op);
        assert_eq!(decoded.to_bytes(), op.to_bytes());
        // In a batch too: the record after the keyed one still decodes.
        let mut batch = 2u64.to_le_bytes().to_vec();
        batch.extend_from_slice(&keyed);
        batch.extend_from_slice(&sample_ops()[2].to_bytes());
        assert_eq!(
            Vec::<ChurnOp>::from_bytes(&batch).unwrap(),
            vec![op, sample_ops()[2]]
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
        // A key slot that is neither empty nor present, and a record cut
        // inside the key.
        let op = sample_ops()[1];
        assert!(matches!(
            ChurnOp::from_bytes(&keyed_record(&op, 2)),
            Err(CodecError::InvalidTag { tag: 2, .. })
        ));
        let mut cut = keyed_record(&op, 1);
        cut.truncate(1 + 8 + 32 + 1 + 16);
        assert!(matches!(
            ChurnOp::from_bytes(&cut),
            Err(CodecError::UnexpectedEof { .. })
        ));
    }
}
