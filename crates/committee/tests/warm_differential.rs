//! Differential suite for the serving-grade selection engines: random
//! churn chains where, at **every** intermediate step, the [`PrunedRoster`]
//! carried forward by `patch_dense` — the editor the seal uses — plus
//! warm-start replay must select the byte-identical member sequence to the
//! naive O(n·k·(k+m)) oracle over the merged pool — through evictions of
//! sitting members, tie-heavy power distributions (down to a single stake
//! value, where a list is one run of equal power and the band walk steps
//! it as one), re-registrations to and from zero power, and the high-churn
//! fallback boundary.

use std::ops::RangeInclusive;

use fi_committee::greedy::greedy_diverse_naive;
use fi_committee::prelude::*;
use fi_types::{ReplicaId, VotingPower};
use proptest::prelude::*;

/// One churn step against the current pool.
#[derive(Debug, Clone)]
enum Churn {
    /// Register (or re-register with a new row) device `id`.
    Upsert { id: u64, power: u64, config: usize },
    /// Deregister device `id` (a no-op if absent — still counted churned,
    /// which a warm start must tolerate).
    Remove { id: u64 },
}

fn churn_step(
    ids: u64,
    powers: RangeInclusive<u64>,
    configs: usize,
) -> impl Strategy<Value = Churn> {
    // The vendored `prop_oneof!` is an unweighted union; listing the upsert
    // arm three times biases chains toward growth (3:1 upsert:remove) so
    // pools stay populated.
    let upsert = || {
        (0..ids, powers.clone(), 0..configs).prop_map(|(id, power, config)| Churn::Upsert {
            id,
            power,
            config,
        })
    };
    prop_oneof![
        upsert(),
        upsert(),
        upsert(),
        (0..ids).prop_map(|id| Churn::Remove { id }),
    ]
}

/// A chain: an initial pool followed by epochs of churn batches.
fn chain(
    ids: u64,
    powers: RangeInclusive<u64>,
    configs: usize,
) -> impl Strategy<Value = (Vec<Churn>, Vec<Vec<Churn>>)> {
    (
        proptest::collection::vec(churn_step(ids, powers.clone(), configs), 5..40),
        proptest::collection::vec(
            proptest::collection::vec(churn_step(ids, powers, configs), 1..8),
            1..6,
        ),
    )
}

/// Applies one batch to the pool (sorted by replica id), returning the
/// sorted churned-replica set.
fn apply(pool: &mut Vec<Candidate>, batch: &[Churn]) -> Vec<ReplicaId> {
    let mut churned: Vec<ReplicaId> = Vec::new();
    for step in batch {
        let (id, row) = match *step {
            Churn::Upsert { id, power, config } => (
                id,
                Some(Candidate::new(
                    ReplicaId::new(id),
                    VotingPower::new(power),
                    config,
                    id % 3 != 0,
                )),
            ),
            Churn::Remove { id } => (id, None),
        };
        let replica = ReplicaId::new(id);
        match (pool.binary_search_by_key(&replica, Candidate::replica), row) {
            (Ok(pos), Some(c)) => pool[pos] = c,
            (Ok(pos), None) => {
                pool.remove(pos);
            }
            (Err(pos), Some(c)) => pool.insert(pos, c),
            (Err(_), None) => {}
        }
        if let Err(pos) = churned.binary_search(&replica) {
            churned.insert(pos, replica);
        }
    }
    churned
}

/// The roster patch the seal performs: every churned replica's old row
/// departs and its new row arrives, in one `patch_dense`. Returns the
/// patched roster and the arrivals — the churned replicas' current rows,
/// which is what the seal hands a warm start.
fn patch_roster(
    roster: &PrunedRoster,
    old_pool: &[Candidate],
    new_pool: &[Candidate],
    churned: &[ReplicaId],
) -> (PrunedRoster, Vec<Candidate>) {
    let rows_in = |pool: &[Candidate]| -> Vec<Candidate> {
        churned
            .iter()
            .filter_map(|&replica| {
                let pos = pool.binary_search_by_key(&replica, Candidate::replica);
                pos.ok().map(|pos| pool[pos])
            })
            .collect()
    };
    let current = rows_in(new_pool);
    let patched = roster
        .patch_dense(&rows_in(old_pool), &current, &[], &[])
        .expect("the churned rows were read off the pool the roster indexes");
    (patched, current)
}

/// Drives one chain over `slots` configuration slots: at every epoch the
/// patched roster's warm-start (and cold pruned) selection must equal the
/// naive oracle over the merged pool, for every probed k.
fn run_chain(
    slots: usize,
    initial: &[Churn],
    epochs: &[Vec<Churn>],
    ks: &[usize],
) -> Result<(), TestCaseError> {
    let mut pool: Vec<Candidate> = Vec::new();
    apply(&mut pool, initial);
    let mut roster = PrunedRoster::from_dense(slots, &pool);
    let mut previous: Vec<Committee> = ks.iter().map(|&k| roster.select(k)).collect();
    for (ki, &k) in ks.iter().enumerate() {
        prop_assert_eq!(
            previous[ki].members(),
            greedy_diverse_naive(&pool, k).members(),
            "cold pruned selection diverged at the initial pool, k = {}",
            k
        );
    }

    for (e, batch) in epochs.iter().enumerate() {
        let old_pool = pool.clone();
        let churned = apply(&mut pool, batch);
        let current;
        (roster, current) = patch_roster(&roster, &old_pool, &pool, &churned);
        // No slot moves in these chains.
        let identity: Vec<usize> = (0..slots).collect();
        for (ki, &k) in ks.iter().enumerate() {
            let oracle = greedy_diverse_naive(&pool, k);
            let (warm, report) = warm_greedy(
                &roster,
                previous[ki].members(),
                &churned,
                &current,
                &identity,
                k,
            );
            prop_assert_eq!(
                warm.members(),
                oracle.members(),
                "warm selection diverged from the naive oracle at epoch {}, k = {} ({:?})",
                e,
                k,
                report
            );
            let cold = roster.select(k);
            prop_assert_eq!(
                cold.members(),
                oracle.members(),
                "patched-roster cold selection diverged at epoch {}, k = {}",
                e,
                k
            );
            previous[ki] = warm;
        }
    }
    Ok(())
}

proptest! {
    // Pinned case count: the vendored proptest runner derives every case
    // seed from the test name, so this suite is reproducible bit-for-bit.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn warm_chain_matches_naive_oracle((initial, epochs) in chain(48, 1..=10_000, 9)) {
        run_chain(9, &initial, &epochs, &[1, 6, 17])?;
    }

    #[test]
    fn warm_chain_matches_on_tie_heavy_pools((initial, epochs) in chain(40, 1..=4, 3)) {
        // Powers drawn from {1..4} over 3 configs: almost every round is
        // an exact entropy tie, exercising the `preferred` fold and the
        // degenerate +0.0 buckets rather than the analytic peak.
        run_chain(3, &initial, &epochs, &[2, 9])?;
    }

    #[test]
    fn warm_chain_matches_when_stake_is_quantised(
        (initial, epochs) in (1u64..=3).prop_flat_map(|stakes| chain(40, 1..=stakes, 4))
    ) {
        // One, two or three stake values over at most 4 configs: every
        // list is a handful of long runs of equal power — with one value,
        // a single run — and every churned row lands inside one. k runs up
        // to the whole pool, so runs are consumed member by member until
        // nothing unselected is left in them.
        run_chain(4, &initial, &epochs, &[1, 7, 40])?;
    }

    #[test]
    fn warm_chain_matches_with_zero_power_rows((initial, epochs) in chain(32, 0..=3, 4)) {
        // One upsert in four is at zero power: devices re-register to and
        // from it, rows the roster holds and no selection — cold, warm,
        // or a challenger test — may return.
        run_chain(4, &initial, &epochs, &[1, 5, 32])?;
    }

    #[test]
    fn warm_chain_matches_across_the_fallback_boundary(
        (initial, epochs) in chain(16, 1..=500, 4)
    ) {
        // Few configurations and k = 1: the fallback threshold
        // `k · configs` is 4 churned rows while batches churn up
        // to 7, so chains cross warm→cold in both directions; k = 8 keeps
        // a replaying chain beside it on the same pools.
        run_chain(4, &initial, &epochs, &[1, 8])?;
    }
}

#[test]
fn eviction_of_every_sitting_member_is_repaired() {
    // Deterministic worst case: churn away the *entire* previous
    // committee. Warm start must diverge at round 0 and the repair must
    // still match the oracle.
    let mut pool: Vec<Candidate> = (0..30u64)
        .map(|i| {
            Candidate::new(
                ReplicaId::new(i),
                VotingPower::new(1 + (i * 97) % 700),
                (i % 5) as usize,
                true,
            )
        })
        .collect();
    let roster = PrunedRoster::from_dense(5, &pool);
    let previous = roster.select(3);
    let old_pool = pool.clone();
    let mut churned: Vec<ReplicaId> = previous.members().iter().map(Candidate::replica).collect();
    churned.sort_unstable();
    pool.retain(|c| churned.binary_search(&c.replica()).is_err());
    let (roster, current) = patch_roster(&roster, &old_pool, &pool, &churned);
    assert!(current.is_empty(), "every churned replica left");
    let (warm, report) = warm_greedy(
        &roster,
        previous.members(),
        &churned,
        &current,
        &[0, 1, 2, 3, 4],
        3,
    );
    assert_eq!(warm.members(), greedy_diverse_naive(&pool, 3).members());
    assert_eq!(report.replayed, 0);
    assert!(report.repaired == 3 || report.fell_back);
}
