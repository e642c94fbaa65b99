//! BFT cost vs cluster size — the Proposition-3 message-overhead trade-off
//! measured on the real protocol.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fi_bft::harness::{run_cluster, ClusterConfig};
use fi_types::SimTime;

fn bench_bft(c: &mut Criterion) {
    let mut group = c.benchmark_group("bft_rounds");
    group.sample_size(10);
    for &n in &[4usize, 7, 10, 13] {
        group.bench_with_input(BenchmarkId::new("5_requests", n), &n, |b, &n| {
            b.iter(|| {
                let config = ClusterConfig::new(n)
                    .requests(5)
                    .max_time(SimTime::from_secs(20));
                let report = run_cluster(&config, 42, &[]);
                assert!(report.liveness.all_executed());
                report.messages_sent
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_bft);
criterion_main!(benches);
