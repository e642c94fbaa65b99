//! Attestation-path cost: quote generation, verification, registry
//! ingestion and churn — the per-replica overhead of configuration
//! discovery.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fi_attest::prelude::*;
use fi_types::{sha256, KeyPair, ReplicaId, SimTime, VotingPower};

/// Devices in one registry shard of fibench's fleet.
const SHARD_DEVICES: u64 = 62_500;

/// Devices in fibench's whole fleet.
const WAVE_DEVICES: u64 = 250_000;

fn bench_attestation(c: &mut Criterion) {
    let device = TrustedDevice::new(DeviceKind::Tpm20, 1);
    let aik = device.create_aik("bench");
    let vote = KeyPair::from_seed(9).public_key();
    let measurement = sha256(b"bench-config");

    c.bench_function("attest/quote", |b| {
        b.iter(|| {
            aik.quote(
                black_box(measurement),
                black_box(7),
                vote,
                SimTime::from_secs(1),
            )
        });
    });

    let quote = aik.quote(measurement, 7, vote, SimTime::from_secs(1));
    let mut verifier = Verifier::new(AttestationPolicy::discovery());
    verifier.trust_endorsement(device.endorsement_key());
    c.bench_function("attest/verify", |b| {
        b.iter(|| {
            verifier
                .verify(black_box(&quote), SimTime::from_secs(2), Some(7))
                .unwrap()
        });
    });

    c.bench_function("attest/registry_ingest_100", |b| {
        b.iter(|| {
            let mut reg = AttestedRegistry::new(TwoTierWeights::default());
            for i in 0..100u64 {
                verifier
                    .verify(&quote, SimTime::from_secs(2), Some(7))
                    .unwrap();
                reg.apply(&ChurnOp::from_verified_quote(
                    ReplicaId::new(i),
                    &quote,
                    VotingPower::new(10),
                ));
            }
            black_box(reg.len())
        });
    });

    // One fibench shard's worth of devices over 12 measurements. Each
    // iteration re-attests the next 1 % of them to their next measurement,
    // then drains the delta as a seal would, so the registry's size and the
    // delta's stay flat however long the timer runs.
    let measurements: Vec<_> = (0..12u64)
        .map(|i| sha256(format!("bench-config-{i}").as_bytes()))
        .collect();
    let mut reg = AttestedRegistry::new(TwoTierWeights::default());
    for i in 0..SHARD_DEVICES {
        reg.apply(&ChurnOp::attest(
            ReplicaId::new(i),
            measurements[i as usize % 12],
            VotingPower::new(1 + i % 97),
        ));
    }
    reg.take_delta();
    let mut next = 0u64;
    c.bench_function("attest/registry_churn", |b| {
        b.iter(|| {
            for _ in 0..SHARD_DEVICES / 100 {
                let i = next % SHARD_DEVICES;
                let turn = next / SHARD_DEVICES + 1;
                reg.apply(&ChurnOp::attest(
                    ReplicaId::new(i),
                    measurements[((i + turn) % 12) as usize],
                    VotingPower::new(1 + i % 97),
                ));
                next += 1;
            }
            black_box(reg.take_delta())
        });
    });

    // A single-registry replay's registration: fibench's 250 000 devices,
    // every eighth unattested, as one batch into an empty registry. The
    // batch is longer than the empty table's capacity, so `apply_batch`
    // counts and sizes first.
    let wave: Vec<ChurnOp> = (0..WAVE_DEVICES)
        .map(|i| {
            let (replica, power) = (ReplicaId::new(i), VotingPower::new(1 + i % 97));
            match i % 8 {
                0 => ChurnOp::Unattested { replica, power },
                _ => ChurnOp::attest(replica, measurements[i as usize % 12], power),
            }
        })
        .collect();
    c.bench_function("registry/apply_batch/register/250000", |b| {
        b.iter(|| {
            let mut reg = AttestedRegistry::new(TwoTierWeights::default());
            reg.apply_batch(black_box(&wave));
            black_box(reg.len())
        });
    });

    c.bench_function("attest/commitment_roundtrip", |b| {
        b.iter(|| {
            let c = ConfigCommitment::commit(black_box(measurement), 42);
            c.open(measurement, 42).unwrap()
        });
    });
}

criterion_group!(benches, bench_attestation);
criterion_main!(benches);
