//! Simulator event throughput — the budget every consensus experiment
//! spends from.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fi_simnet::{
    ClientPopulation, Context, LatencyModel, NetworkConfig, Node, NodeId, PopulationConfig,
    Simulation,
};
use fi_types::SimTime;

/// A node that keeps `fanout` messages in flight forever.
struct Flooder {
    fanout: usize,
}

impl Node for Flooder {
    type Message = u64;
    type Fault = ();

    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        for i in 0..self.fanout {
            let to = NodeId::new((ctx.id().index() + 1 + i) % ctx.node_count());
            ctx.send(to, 0);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Context<'_, u64>) {
        ctx.send(from, msg + 1);
    }
}

fn bench_simnet(c: &mut Criterion) {
    let mut group = c.benchmark_group("simnet");
    group.sample_size(10);
    for &events in &[10_000u64, 100_000] {
        group.bench_with_input(BenchmarkId::new("events", events), &events, |b, &events| {
            b.iter(|| {
                let config = NetworkConfig::with_latency(LatencyModel::Uniform {
                    min: SimTime::from_micros(100),
                    max: SimTime::from_millis(2),
                });
                let mut sim: Simulation<Flooder> = Simulation::new(config, 42);
                for _ in 0..16 {
                    sim.add_node(Flooder { fanout: 4 });
                }
                sim.run_to_quiescence(events)
            });
        });
    }
    group.finish();
}

/// Churn generation per op: each iteration takes one op from a 1 024-op
/// tick of 32-op requests and generates the next tick when the last one
/// is used up, so ns/iter is ns per generated op, requests included. The
/// device draw runs over a 250k-device Zipf 1.1 population, as `steady`
/// generates, and over 2M devices drawn uniformly, `mixed`'s draw at ten
/// times its size.
fn bench_population(c: &mut Criterion) {
    let mut group = c.benchmark_group("population");
    group.sample_size(10);
    for (devices, zipf_s, label) in [
        (250_000u64, 1.1, "250000dev/zipf1.1"),
        (2_000_000, 0.0, "2000000dev/uniform"),
    ] {
        let config = PopulationConfig::new(devices, 1024)
            .with_zipf(zipf_s)
            .with_diurnal(0.0, 0);
        let mut population = ClientPopulation::new(config);
        let mut pending = population.next_tick().requests.into_iter().flatten();
        group.bench_function(BenchmarkId::new("next_tick", label), |b| {
            b.iter(|| loop {
                if let Some(op) = pending.next() {
                    break op;
                }
                pending = population.next_tick().requests.into_iter().flatten();
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_simnet, bench_population);
criterion_main!(benches);
