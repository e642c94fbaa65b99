//! Property-based tests for committee selection: structural invariants
//! (size, uniqueness, membership) and policy dominance relations.

use fi_attest::TwoTierWeights;
use fi_committee::greedy::greedy_diverse_naive;
use fi_committee::prelude::*;
use fi_types::{ReplicaId, VotingPower, WeightedQuorum};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn candidate_pool() -> impl Strategy<Value = Vec<Candidate>> {
    proptest::collection::vec((1u64..10_000, 0usize..12, proptest::bool::ANY), 1..60).prop_map(
        |specs| {
            specs
                .into_iter()
                .enumerate()
                .map(|(i, (power, config, attested))| {
                    Candidate::new(
                        ReplicaId::new(i as u64),
                        VotingPower::new(power),
                        config,
                        attested,
                    )
                })
                .collect()
        },
    )
}

/// Pools with quantised stake: up to 59 replicas over at most 4
/// configurations, every power one of at most three values — one value
/// included, where each configuration's candidates are a single run of
/// equal power.
fn tie_heavy_pool() -> impl Strategy<Value = Vec<Candidate>> {
    (1u64..=3).prop_flat_map(|stakes| {
        proptest::collection::vec((0..stakes, 0usize..4, proptest::bool::ANY), 1..60).prop_map(
            |specs| {
                specs
                    .into_iter()
                    .enumerate()
                    .map(|(i, (stake, config, attested))| {
                        Candidate::new(
                            ReplicaId::new(i as u64),
                            VotingPower::new(100 + 50 * stake),
                            config,
                            attested,
                        )
                    })
                    .collect()
            },
        )
    })
}

/// Tie-heavy pools where about one stake in three is zero, over 4
/// configurations of which the last holds nothing but zero-power members:
/// rows the pruned index holds and no selection may return.
fn zero_stake_pool() -> impl Strategy<Value = Vec<Candidate>> {
    proptest::collection::vec((0u64..3, 0usize..4, proptest::bool::ANY), 1..60).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (stake, config, attested))| {
                let power = if stake == 0 || config == 3 {
                    0
                } else {
                    100 + 50 * stake
                };
                Candidate::new(
                    ReplicaId::new(i as u64),
                    VotingPower::new(power),
                    config,
                    attested,
                )
            })
            .collect()
    })
}

/// Pools whose configurations mix both tiers, with heavy power ties and
/// zero-power rows, each row paired with whether a churn step moves it to
/// the other tier of its configuration.
fn mixed_tier_pool() -> impl Strategy<Value = Vec<(Candidate, bool)>> {
    proptest::collection::vec(
        (0u64..4, 0usize..3, proptest::bool::ANY, proptest::bool::ANY),
        1..60,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (power, config, attested, flips))| {
                let c = Candidate::new(
                    ReplicaId::new(i as u64),
                    VotingPower::new(power),
                    config,
                    attested,
                );
                (c, flips)
            })
            .collect()
    })
}

/// `rows` in one canonical order, tier included.
fn sorted_rows(mut rows: Vec<Candidate>) -> Vec<Candidate> {
    rows.sort_unstable_by_key(|c| (c.config(), c.power(), c.replica(), c.attested()));
    rows
}

/// Whether no configuration of `committee` holds more than the quorum
/// rule's `f` of its power: the tolerance predicate, spelled out.
fn tolerates_by_power(committee: &Committee) -> bool {
    WeightedQuorum::for_total(committee.total_power()).is_some_and(|q| {
        committee
            .power_by_config()
            .iter()
            .all(|&(_, power)| q.tolerates(power))
    })
}

fn check_structure(
    committee: &Committee,
    pool: &[Candidate],
    k: usize,
) -> Result<(), TestCaseError> {
    prop_assert!(committee.len() <= k);
    prop_assert!(committee.len() <= pool.len());
    // No duplicates; every member drawn from the pool.
    let mut ids: Vec<ReplicaId> = committee.members().iter().map(|c| c.replica()).collect();
    ids.sort();
    let before = ids.len();
    ids.dedup();
    prop_assert_eq!(ids.len(), before);
    for m in committee.members() {
        prop_assert!(pool.iter().any(|c| c == m));
    }
    // Entropy within [0, log2(support)].
    let h = committee.entropy_bits();
    prop_assert!(h >= 0.0);
    prop_assert!(h <= 12f64.log2() + 1e-9);
    Ok(())
}

proptest! {
    // Pinned case count: the vendored proptest runner derives every case
    // seed from the test name, so this suite is reproducible bit-for-bit.
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn structural_invariants_all_policies(pool in candidate_pool(), k in 1usize..20, seed in 0u64..100) {
        check_structure(&top_stake(&pool, k), &pool, k)?;
        check_structure(&greedy_diverse(&pool, k), &pool, k)?;
        if let Some(tolerant) = PrunedRoster::from_dense(12, &pool).select_tolerant(k) {
            check_structure(&tolerant, &pool, k)?;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        check_structure(&random_weighted(&pool, k, &mut rng), &pool, k)?;
        let mut rng = StdRng::seed_from_u64(seed);
        check_structure(
            &two_tier_weighted(&pool, k, TwoTierWeights::new(1.0, 0.4), &mut rng),
            &pool,
            k,
        )?;
    }

    /// Greedy selection never has lower entropy than top-stake at the same
    /// size (entropy is what it greedily maximises).
    #[test]
    fn greedy_dominates_top_stake(pool in candidate_pool(), k in 1usize..16) {
        let greedy = greedy_diverse(&pool, k);
        let stake = top_stake(&pool, k);
        // Compare only when both filled the same number of seats (zero-power
        // candidates are skipped by greedy).
        if greedy.len() == stake.len() {
            prop_assert!(
                greedy.entropy_bits() >= stake.entropy_bits() - 1e-9,
                "greedy {} < stake {}",
                greedy.entropy_bits(),
                stake.entropy_bits()
            );
        }
    }

    /// `select_tolerant` is `select` whenever that already tolerates a
    /// fault in one configuration; otherwise every committee it returns
    /// tolerates one by the quorum rule, checked here without
    /// `tolerates_one_config`, and is a valid committee of the pool.
    #[test]
    fn tolerant_selection_is_select_or_tolerates(pool in candidate_pool(), k in 1usize..20) {
        let roster = PrunedRoster::from_dense(12, &pool);
        let greedy = roster.select(k);
        let tolerant = roster.select_tolerant(k);
        if greedy.tolerates_one_config() {
            prop_assert_eq!(tolerant.as_ref().map(Committee::members), Some(greedy.members()));
        }
        if let Some(tolerant) = tolerant {
            prop_assert!(tolerates_by_power(&tolerant));
            check_structure(&tolerant, &pool, k)?;
        }
    }

    /// Zero unattested weight yields an all-attested committee.
    #[test]
    fn zero_weight_excludes_unattested(pool in candidate_pool(), k in 1usize..20, seed in 0u64..50) {
        let mut rng = StdRng::seed_from_u64(seed);
        let committee = two_tier_weighted(&pool, k, TwoTierWeights::new(1.0, 0.0), &mut rng);
        prop_assert!(committee.members().iter().all(Candidate::attested));
    }

    /// top_stake picks a maximal-power subset: its total power is at least
    /// that of any other policy's committee of at most the same size.
    #[test]
    fn top_stake_maximizes_power(pool in candidate_pool(), k in 1usize..16, seed in 0u64..50) {
        let stake = top_stake(&pool, k);
        let greedy = greedy_diverse(&pool, k);
        if greedy.len() == stake.len() {
            prop_assert!(stake.total_power() >= greedy.total_power());
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let sortition = random_weighted(&pool, k, &mut rng);
        if sortition.len() == stake.len() {
            prop_assert!(stake.total_power() >= sortition.total_power());
        }
    }

    /// `greedy_diverse` — the band walk over the caller's configurations,
    /// mapped to dense slots and back — selects the byte-identical member
    /// sequence as the naive oracle on every pool, up to the whole pool.
    #[test]
    fn greedy_matches_naive_oracle(pool in candidate_pool(), k in 1usize..64) {
        let fast = greedy_diverse(&pool, k);
        let naive = greedy_diverse_naive(&pool, k);
        prop_assert_eq!(fast.members(), naive.members());
        // Equal selections imply equal cached aggregates.
        prop_assert_eq!(fast.total_power(), naive.total_power());
        prop_assert_eq!(
            fast.entropy_bits().to_bits(),
            naive.entropy_bits().to_bits()
        );
    }

    /// The pruned engine steps a run of equal power as one evaluation; on
    /// pools that are nothing but such runs it must still select what the
    /// naive per-candidate fold selects, member for member, for every
    /// committee size up to the whole pool.
    #[test]
    fn pruned_selection_matches_greedy_on_tie_heavy_pools(pool in tie_heavy_pool()) {
        let roster = PrunedRoster::from_dense(4, &pool);
        for k in [1, 2, 5, pool.len() / 2, pool.len(), pool.len() + 3] {
            prop_assert_eq!(
                roster.select(k).members(),
                greedy_diverse_naive(&pool, k).members(),
                "k = {}", k
            );
        }
    }

    /// The pruned index holds zero-power rows — a whole bucket of them
    /// included — and every band walk steps past them: its selection is
    /// the naive oracle's, member for member, and never a zero-power row.
    #[test]
    fn pruned_selection_skips_zero_power_rows(pool in zero_stake_pool()) {
        let roster = PrunedRoster::from_dense(4, &pool);
        prop_assert_eq!(roster.len(), pool.len());
        for k in [1, 2, 5, pool.len() / 2, pool.len(), pool.len() + 3] {
            let pruned = roster.select(k);
            prop_assert_eq!(
                pruned.members(),
                greedy_diverse_naive(&pool, k).members(),
                "k = {}", k
            );
            prop_assert!(pruned.members().iter().all(|c| !c.power().is_zero()));
        }
    }

    /// The pruned index keeps a row's tier in which of its configuration's
    /// two lists holds it, not in the row: reading the index back returns
    /// the input rows, tier included, and a patch that moves rows between
    /// the two tiers of one configuration equals a rebuild of the moved
    /// pool — and selects like the naive per-candidate fold over it.
    #[test]
    fn the_pruned_index_keeps_each_rows_tier(rows in mixed_tier_pool()) {
        let pool: Vec<Candidate> = rows.iter().map(|&(c, _)| c).collect();
        let roster = PrunedRoster::from_dense(3, &pool);
        prop_assert_eq!(
            sorted_rows(roster.candidates().collect()),
            sorted_rows(pool.clone())
        );

        let departed: Vec<Candidate> =
            rows.iter().filter(|&&(_, flips)| flips).map(|&(c, _)| c).collect();
        let arrivals: Vec<Candidate> = departed
            .iter()
            .map(|c| Candidate::new(c.replica(), c.power(), c.config(), !c.attested()))
            .collect();
        let moved: Vec<Candidate> = rows
            .iter()
            .map(|&(c, flips)| {
                Candidate::new(c.replica(), c.power(), c.config(), c.attested() != flips)
            })
            .collect();
        let patched = roster
            .patch_dense(&departed, &arrivals, &[], &[])
            .expect("every departure is a row of the roster");
        prop_assert_eq!(&patched, &PrunedRoster::from_dense(3, &moved));
        prop_assert_eq!(
            sorted_rows(patched.candidates().collect()),
            sorted_rows(moved.clone())
        );
        for k in [1, 4, moved.len()] {
            prop_assert_eq!(
                patched.select(k).members(),
                greedy_diverse_naive(&moved, k).members(),
                "k = {}", k
            );
        }
    }

    /// Committee caches agree with from-scratch recomputation.
    #[test]
    fn committee_caches_are_consistent(pool in candidate_pool(), k in 1usize..20) {
        let committee = top_stake(&pool, k);
        let total: fi_types::VotingPower =
            committee.members().iter().map(Candidate::power).sum();
        prop_assert_eq!(committee.total_power(), total);
        if let Ok(d) = committee.distribution() {
            prop_assert!((committee.entropy_bits() - d.shannon_entropy()).abs() < 1e-9);
        } else {
            prop_assert_eq!(committee.entropy_bits(), 0.0);
        }
    }
}

/// Whether some `k`-subset of `pool` (at most 31 candidates) survives a
/// fault in any one configuration.
fn some_subset_tolerates(pool: &[Candidate], k: usize) -> bool {
    (0u32..1 << pool.len())
        .filter(|mask| mask.count_ones() as usize == k)
        .any(|mask| {
            let subset = (0..pool.len())
                .filter(|&i| mask & (1 << i) != 0)
                .map(|i| pool[i]);
            tolerates_by_power(&subset.collect())
        })
}

/// Against an exhaustive oracle over 600 small pools (5–12 candidates on
/// 2–5 configurations, `k` from 3 to 7): `select_tolerant` never returns a
/// committee where no `k`-subset tolerates, and finds one in at least
/// `FLOOR` of the cases where some subset does. The search is a
/// heuristic; the measured share is stated beside the floor.
#[test]
fn tolerant_selection_against_an_exhaustive_oracle() {
    /// Measured at this seed: 120 of 128 feasible cases (0.938).
    const FLOOR: f64 = 0.85;
    let mut rng = StdRng::seed_from_u64(46);
    let (mut feasible, mut found) = (0u32, 0u32);
    for _ in 0..600 {
        let n = rng.gen_range(5..=12usize);
        let configs = rng.gen_range(2..=5usize);
        let pool: Vec<Candidate> = (0..n as u64)
            .map(|i| {
                Candidate::new(
                    ReplicaId::new(i),
                    VotingPower::new(rng.gen_range(1..1_000)),
                    rng.gen_range(0..configs),
                    rng.gen_bool(0.5),
                )
            })
            .collect();
        let k = rng.gen_range(3..=n.min(7));
        let tolerant = PrunedRoster::from_dense(configs, &pool).select_tolerant(k);
        if some_subset_tolerates(&pool, k) {
            feasible += 1;
            if let Some(committee) = tolerant {
                assert_eq!(committee.len(), k);
                assert!(tolerates_by_power(&committee));
                found += 1;
            }
        } else {
            assert!(tolerant.is_none(), "a tolerant committee where none exists");
        }
    }
    let share = f64::from(found) / f64::from(feasible);
    eprintln!("select_tolerant found {found} of {feasible} feasible cases ({share:.3})");
    assert!(share >= FLOOR, "found {found} of {feasible}");
}
