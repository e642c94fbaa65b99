//! Committee selection policies compared (paper §II-A committee model and
//! §V two-tier sketch): entropy, the heaviest claimed configuration's
//! share, and single-vulnerability exposure — the heaviest attested
//! configuration plus all unattested power — of the committee each policy
//! elects from the same skewed candidate pool.
//!
//! Run with: `cargo run --example committee_diversity`

use fault_independence::fi_attest::TwoTierWeights;
use fault_independence::fi_committee::prelude::*;
use fault_independence::fi_types::{ReplicaId, VotingPower};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn describe(name: &str, committee: &Committee) {
    println!(
        "{:<24} size {:>2}  entropy {:>6.3} bits  worst-config share {:>6.2}%  fault exposure {:>6.2}%  attested {:>5.1}%",
        name,
        committee.len(),
        committee.entropy_bits(),
        committee.worst_config_share() * 100.0,
        committee.worst_fault_share() * 100.0,
        committee.attested_share() * 100.0,
    );
}

fn main() {
    // 60 candidates: stake follows a harsh power law; configurations are
    // clustered (half the stake on two stacks); a third are unattested.
    let candidates: Vec<Candidate> = (0..60u64)
        .map(|i| {
            let power = VotingPower::new(5_000 / (i + 1));
            let config = match i {
                0..=14 => 0,
                15..=29 => 1,
                _ => 2 + (i as usize % 6),
            };
            Candidate::new(ReplicaId::new(i), power, config, i % 3 != 0)
        })
        .collect();

    let k = 16;
    println!("electing a committee of {k} from 60 candidates\n");

    describe("top-stake", &top_stake(&candidates, k));

    let mut rng = StdRng::seed_from_u64(7);
    describe(
        "stake sortition",
        &two_tier_weighted(&candidates, k, TwoTierWeights::flat(), &mut rng),
    );

    describe("greedy diverse", &greedy_diverse(&candidates, k));

    // Configurations 0..=7 are already the roster's dense slots.
    let tolerant = PrunedRoster::from_dense(8, &candidates).select_tolerant(k);
    describe("greedy tolerant", &tolerant.expect("this pool holds one"));

    let mut rng = StdRng::seed_from_u64(7);
    describe(
        "two-tier (1.0 / 0.3)",
        &two_tier_weighted(&candidates, k, TwoTierWeights::new(1.0, 0.3), &mut rng),
    );

    println!(
        "\nreading: greedy selection trades stake weight for configuration \
         entropy, shrinking what one zero-day can capture; the tolerant \
         committee swaps out members until no attested configuration, plus \
         all unattested power, holds more than the quorum rule's f of its \
         power (an unattested claim is opaque, so that power counts against \
         every configuration), so a zero-day confined to one configuration \
         cannot break its safety; the two-tier lottery \
         additionally pushes unattested (opaque) stacks out of the committee \
         — the paper's §V proposal."
    );
}
