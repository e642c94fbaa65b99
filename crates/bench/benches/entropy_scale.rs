//! Diversity-metric cost at scale: a monitor must re-evaluate entropy on
//! every membership change; this measures that cost up to 100k
//! configurations — batch recomputation vs the O(1) incremental
//! accumulator the hot paths now use.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fi_entropy::optimal::KappaOptimality;
use fi_entropy::renyi::renyi_entropy_bits;
use fi_entropy::{Distribution, EntropyAccumulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn skewed_distribution(k: usize, seed: u64) -> Distribution {
    let mut rng = StdRng::seed_from_u64(seed);
    let weights: Vec<f64> = (0..k).map(|_| rng.gen_range(0.01..10.0)).collect();
    Distribution::from_weights(&weights).unwrap()
}

fn skewed_weights(k: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..k).map(|_| rng.gen_range(1u64..10_000)).collect()
}

fn bench_entropy(c: &mut Criterion) {
    let mut group = c.benchmark_group("entropy_scale");
    for &k in &[100usize, 1_000, 10_000, 100_000] {
        let dist = skewed_distribution(k, 7);
        group.bench_with_input(BenchmarkId::new("shannon", k), &dist, |b, d| {
            b.iter(|| black_box(d.shannon_entropy()));
        });
        group.bench_with_input(BenchmarkId::new("renyi2", k), &dist, |b, d| {
            b.iter(|| renyi_entropy_bits(black_box(d), 2.0).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("kappa_check", k), &dist, |b, d| {
            b.iter(|| KappaOptimality::check(black_box(d), 1e-9));
        });
        // The incremental engine at the same scale: one monitored
        // reassignment = O(1) move + O(1) entropy read.
        let weights = skewed_weights(k, 7);
        group.bench_with_input(
            BenchmarkId::new("accumulator_build", k),
            &weights,
            |b, w| {
                b.iter(|| black_box(EntropyAccumulator::from_weights(black_box(w))));
            },
        );
        let mut acc = EntropyAccumulator::from_weights(&weights);
        let mut flip = false;
        group.bench_function(BenchmarkId::new("incremental_update", k), |b| {
            b.iter(|| {
                let (from, to) = if flip { (1, 0) } else { (0, 1) };
                flip = !flip;
                acc.apply_move(from, to, 1);
                black_box(acc.entropy_bits())
            });
        });
        let acc = EntropyAccumulator::from_weights(&weights);
        group.bench_function(BenchmarkId::new("peek_add", k), |b| {
            b.iter(|| black_box(acc.peek_add(0, 17)));
        });
    }
    // The selection-sweep shape: 10k candidate additions over 64
    // configuration buckets, peeking each marginal gain first — what a
    // greedy band walk does for each candidate in a band.
    let mut acc = EntropyAccumulator::new(64);
    let mut i = 0usize;
    group.bench_function("peek_then_add/64buckets", |b| {
        b.iter(|| {
            let slot = i % 64;
            i += 1;
            black_box(acc.peek_add(slot, 13));
            acc.add(slot, 13);
        });
    });
    group.finish();
}

criterion_group!(benches, bench_entropy);
criterion_main!(benches);
