//! Committee-selection cost per policy: the per-epoch overhead a
//! permissionless chain pays for diversity enforcement.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fi_attest::TwoTierWeights;
use fi_committee::prelude::*;
use fi_types::{ReplicaId, VotingPower};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn pool_with_configs(n: u64, m: usize) -> Vec<Candidate> {
    (0..n)
        .map(|i| {
            Candidate::new(
                ReplicaId::new(i),
                VotingPower::new(10_000 / (i + 1) + 1),
                (i as usize) % m,
                i % 3 != 0,
            )
        })
        .collect()
}

fn pool(n: u64) -> Vec<Candidate> {
    pool_with_configs(n, 16)
}

fn bench_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("committee_selection");
    for &n in &[100u64, 1_000, 10_000] {
        let candidates = pool(n);
        let k = 32;
        group.bench_with_input(BenchmarkId::new("top_stake", n), &candidates, |b, cs| {
            b.iter(|| top_stake(black_box(cs), k));
        });
        // The pool's configurations are already dense slots 0..16; the
        // index build is timed too, as in `greedy_diverse`.
        group.bench_with_input(
            BenchmarkId::new("select_tolerant", n),
            &candidates,
            |b, cs| {
                b.iter(|| PrunedRoster::from_dense(16, black_box(cs)).select_tolerant(k));
            },
        );
        group.bench_with_input(BenchmarkId::new("two_tier", n), &candidates, |b, cs| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(7);
                two_tier_weighted(black_box(cs), k, TwoTierWeights::default(), &mut rng)
            });
        });
        // Greedy selection builds the pruned index over the candidates and
        // band-walks it, so it scales to the full sweep.
        group.bench_with_input(
            BenchmarkId::new("greedy_diverse", n),
            &candidates,
            |b, cs| {
                b.iter(|| greedy_diverse(black_box(cs), k));
            },
        );
    }
    // The production shape: 10k candidates spread over 64 configurations,
    // selecting a 100-seat committee — an index build plus a band walk.
    let large = pool_with_configs(10_000, 64);
    group.bench_function("greedy_diverse/10000x64/k100", |b| {
        b.iter(|| greedy_diverse(black_box(&large), 100));
    });
    // The same band walk with the index prebuilt, as the epoch snapshot
    // carries it: the row above less this one is the build.
    let roster = PrunedRoster::from_dense(64, &large);
    group.bench_function("pruned_select/10000x64/k100", |b| {
        b.iter(|| black_box(&roster).select(100));
    });
    // The naive reference fold is only affordable at the smallest size; it
    // stays here as the comparison anchor.
    let candidates = pool(100);
    group.bench_function("greedy_naive/100", |b| {
        b.iter(|| fi_committee::greedy::greedy_diverse_naive(black_box(&candidates), 32));
    });
    group.finish();
}

criterion_group!(benches, bench_selection);
criterion_main!(benches);
