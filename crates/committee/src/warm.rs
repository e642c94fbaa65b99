//! Warm-start greedy re-selection: O(churn) committee repair.
//!
//! Consecutive epochs share almost their entire candidate roster, yet a
//! cold selection re-derives every round from scratch. Warm start exploits
//! the structure of the greedy fold instead: round `r`'s winner depends
//! only on the committee state built by rounds `< r` (the accumulator's
//! bucket-keyed weights) and on each candidate's own `(bucket, power)` row.
//! If the first `r` members of the previous committee are all *untouched*
//! by the churn, replaying them reproduces bit-identical accumulator
//! states, so every untouched candidate's marginal gain at round `r` is the
//! bit-identical float it was last epoch — the previous winner still beats
//! all of them, and only the **churned** rows (arrived, departed,
//! re-powered, or re-attested devices) need to be evaluated against it. The
//! caller hands those rows over — the churned devices' current rows, which
//! a differential seal has in hand anyway — with the map from the previous
//! epoch's configuration slots to this one's, so a warm start reads nothing
//! that is O(fleet): no replica-sorted roster is consulted, let alone built.
//! The churned rows are indexed once per call, as a [`PrunedRoster`] of
//! their own, so each round's displacement check walks only each churned
//! list's analytic-peak band (the cold engine's own pruning, run by run,
//! byte-equivalent to peeking every row); a full epoch whose committee
//! survives costs O(k · churned-buckets) band walks instead of O(k · n)
//! peeks.
//!
//! When a churned row does contend — it wins, or ties within the fold
//! window — the round is recomputed with the full pruned engine
//! ([`PrunedRoster::select`]'s internals). If the incumbent still wins the
//! exact fold, the verified prefix is unchanged and replay resumes; if the
//! winner differs (the previous member was churned away or genuinely
//! displaced), the remaining rounds are pruned-engine repairs seeded with
//! the verified prefix — never a cold re-sort. When churn is so heavy that
//! replay cannot pay for itself — more churned rows than the
//! `k · configs` bands a cold selection walks — [`warm_greedy`] skips
//! straight to the cold pruned selection (see [`WarmReport::fell_back`]).
//! Every fibench workload churns 1.5–8 % of rows per epoch and takes that
//! fallback; the sub-1 % regime where replay wins is the `fleet_seal`
//! criterion sweep's.

use fi_types::ReplicaId;

use crate::candidate::{Candidate, Committee};
use crate::pruned::{PrunedRoster, SelectionRun};

/// How a warm-start selection was produced — the differential suites use
/// this to assert the fast path actually ran, and fibench reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmReport {
    /// Rounds reproduced by verifying the previous committee's member
    /// against the churned rows only.
    pub replayed: usize,
    /// Rounds recomputed by the pruned engine (divergence repair, or
    /// extension past the previous committee's length).
    pub repaired: usize,
    /// Whether the churn threshold routed the whole selection to the cold
    /// pruned path (`replayed == 0` then).
    pub fell_back: bool,
}

/// Selects `k` members over `roster`, warm-started from `previous` — the
/// last epoch's committee for the same `k`-policy, in selection order, its
/// configurations in the *last* epoch's slot layout — and the churn between
/// the two epochs: `churned`, the sorted replica ids touched (arrivals,
/// departures, and any power/measurement change); `current`, the rows those
/// of them that are still registered hold now; and `slot_map`, each of the
/// last epoch's configuration slots to its position in `roster`
/// (`usize::MAX` for a slot that is gone).
///
/// **Byte-identity contract:** the returned committee is the identical
/// member sequence to a cold [`PrunedRoster::select`] over the same
/// roster, and so to the reference fold,
/// [`greedy_diverse_naive`](crate::greedy::greedy_diverse_naive) — replay
/// only ever *verifies* the previous winner with the exact fold arithmetic and tie
/// predicate, and hands any divergence to the full engine. The
/// differential proptests pin this at every intermediate epoch of random
/// churn chains.
///
/// `churned` must contain every replica whose roster row differs from the
/// epoch `previous` was selected on (extra untouched replicas are
/// harmless); `previous` may be any length (longer committees' prefixes
/// are valid — greedy selection is prefix-stable). A member whose slot
/// `slot_map` does not carry over ends the replay there.
///
/// # Panics
///
/// Panics if a `current` row's configuration is not a slot of `roster`.
#[must_use]
pub fn warm_greedy(
    roster: &PrunedRoster,
    previous: &[Candidate],
    churned: &[ReplicaId],
    current: &[Candidate],
    slot_map: &[usize],
    k: usize,
) -> (Committee, WarmReport) {
    debug_assert!(
        churned.windows(2).all(|w| w[0] < w[1]),
        "churned replicas must be sorted"
    );
    // Replay-or-not is decided by the two engines' own costs, not by a
    // share of the roster: indexing the churned rows is a few radix passes
    // over them before the first round, while the pruned engine selects
    // cold in O(k · configs · log L) band walks regardless of churn. Once the
    // churned set outnumbers the rows a cold selection would even look at,
    // replay cannot pay for itself — and the cold path has no divergence
    // to repair.
    if churned.len() > k.saturating_mul(roster.num_configs()) {
        return (
            roster.select(k),
            WarmReport {
                replayed: 0,
                repaired: 0,
                fell_back: true,
            },
        );
    }

    // The churned rows, indexed once as a roster of their own and its
    // non-empty lists picked out once, so each replay round's displacement
    // check walks only those lists' analytic-peak bands, however many
    // buckets the roster has (byte-equivalent to peeking every churned
    // row — see `SelectionRun::any_displaces`).
    let challengers = PrunedRoster::from_dense(roster.num_configs(), current);
    let challengers: Vec<_> = challengers.filled_lists().collect();

    let mut run = SelectionRun::new(roster);
    let mut replayed = 0usize;
    for prev in previous.iter().take(k) {
        // A churned incumbent may have changed row (or left entirely): its
        // round — and, because its accumulator contribution may differ from
        // last epoch's, every later round — must be recomputed.
        if churned.binary_search(&prev.replica()).is_ok() {
            break;
        }
        // Untouched, so the same row as last epoch but for its slot's
        // position. A slot the map does not carry over means the churn set
        // was under-reported (or `previous` is not from the parent epoch);
        // recompute from here.
        let Some(&config) = slot_map
            .get(prev.config())
            .filter(|&&slot| slot < roster.num_configs())
        else {
            break;
        };
        if prev.power().is_zero() {
            break;
        }
        let incumbent = Candidate::new(prev.replica(), prev.power(), config, prev.attested());
        let incumbent_gain = run.peek(incumbent.config(), incumbent.power().as_units());
        // Every untouched candidate evaluates to the bit-identical gain it
        // did last epoch (same bucket-keyed committee state, same row), so
        // the incumbent still beats all of them; only churned rows can
        // displace it.
        if run.any_displaces(&challengers, &incumbent, incumbent_gain) {
            // A churned row wins — or ties within the fold window — so run
            // this round with the full engine. If the incumbent still wins
            // the exact fold, the verified prefix is unchanged (same
            // member, same untouched row) and replay resumes next round;
            // a different winner ends the bit-identity argument for the
            // rest of the previous committee.
            if !run.round() || run.last_member().map(Candidate::replica) != Some(prev.replica()) {
                break;
            }
            continue;
        }
        run.accept(incumbent);
        replayed += 1;
    }

    run.run_to(k);
    let repaired = run.len() - replayed;
    (
        run.into_committee(),
        WarmReport {
            replayed,
            repaired,
            fell_back: false,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::{greedy_diverse, greedy_diverse_naive};
    use fi_types::VotingPower;

    fn pool(n: u64) -> Vec<Candidate> {
        (0..n)
            .map(|i| {
                Candidate::new(
                    ReplicaId::new(i),
                    VotingPower::new(1 + (i * 37) % 499),
                    (i % 11) as usize,
                    i % 4 != 0,
                )
            })
            .collect()
    }

    fn sorted_roster(mut candidates: Vec<Candidate>) -> Vec<Candidate> {
        candidates.sort_unstable_by_key(Candidate::replica);
        candidates
    }

    /// [`warm_greedy`] as a caller holding the whole roster calls it: the
    /// churned replicas' current rows looked up in `candidates`, and no
    /// slot moved between the two epochs.
    fn warm_greedy(
        roster: &PrunedRoster,
        candidates: &[Candidate],
        previous: &[Candidate],
        churned: &[ReplicaId],
        k: usize,
    ) -> (Committee, WarmReport) {
        let current: Vec<Candidate> = candidates
            .iter()
            .filter(|c| churned.contains(&c.replica()))
            .copied()
            .collect();
        let identity: Vec<usize> = (0..roster.num_configs()).collect();
        super::warm_greedy(roster, previous, churned, &current, &identity, k)
    }

    #[test]
    fn zero_churn_replays_the_whole_committee() {
        let candidates = sorted_roster(pool(80));
        let roster = PrunedRoster::from_dense(11, &candidates);
        let previous = greedy_diverse_naive(&candidates, 16);
        let (warm, report) = warm_greedy(&roster, &candidates, previous.members(), &[], 16);
        assert_eq!(warm.members(), previous.members());
        assert_eq!(report.replayed, 16);
        assert_eq!(report.repaired, 0);
        assert!(!report.fell_back);
    }

    #[test]
    fn small_churn_repairs_only_affected_rounds() {
        let mut candidates = pool(80);
        let previous = greedy_diverse(&sorted_roster(candidates.clone()), 16);
        // Churn: remove one selected member, re-power one other device.
        let victim = previous.members()[5].replica();
        candidates.retain(|c| c.replica() != victim);
        let repowered = ReplicaId::new(79);
        for c in &mut candidates {
            if c.replica() == repowered {
                *c = Candidate::new(repowered, VotingPower::new(450), c.config(), c.attested());
            }
        }
        let candidates = sorted_roster(candidates);
        let mut churned = vec![victim, repowered];
        churned.sort_unstable();
        let roster = PrunedRoster::from_dense(11, &candidates);
        let (warm, report) = warm_greedy(&roster, &candidates, previous.members(), &churned, 16);
        assert_eq!(
            warm.members(),
            greedy_diverse_naive(&candidates, 16).members()
        );
        assert!(!report.fell_back);
        assert!(
            report.replayed >= 5 && report.replayed + report.repaired == 16,
            "expected a verified prefix then repair: {report:?}"
        );
    }

    #[test]
    fn heavy_churn_falls_back_to_cold_selection() {
        let candidates = sorted_roster(pool(40));
        let roster = PrunedRoster::from_dense(11, &candidates);
        let previous = greedy_diverse(&candidates, 2);
        // 11 configurations × k = 2 is 22 band walks for a cold selection;
        // 23 churned replicas (untouched rows are a legal, if pessimistic,
        // churn report) cost more than that just to resolve.
        let threshold = 2 * roster.num_configs();
        let churned: Vec<ReplicaId> = (0..=threshold as u64).map(ReplicaId::new).collect();
        let (warm, report) = warm_greedy(&roster, &candidates, previous.members(), &churned, 2);
        assert!(report.fell_back);
        assert_eq!(report.replayed, 0);
        assert_eq!(
            warm.members(),
            greedy_diverse_naive(&candidates, 2).members()
        );
        // One fewer churned row is still worth replaying.
        let (warm, report) = warm_greedy(
            &roster,
            &candidates,
            previous.members(),
            &churned[..threshold],
            2,
        );
        assert!(!report.fell_back);
        assert_eq!(
            warm.members(),
            greedy_diverse_naive(&candidates, 2).members()
        );
    }

    #[test]
    fn growing_k_extends_past_the_previous_committee() {
        let candidates = sorted_roster(pool(60));
        let roster = PrunedRoster::from_dense(11, &candidates);
        let previous = greedy_diverse(&candidates, 6);
        let (warm, report) = warm_greedy(&roster, &candidates, previous.members(), &[], 12);
        assert_eq!(
            warm.members(),
            greedy_diverse_naive(&candidates, 12).members()
        );
        assert_eq!(report.replayed, 6);
        assert_eq!(report.repaired, 6);
    }

    #[test]
    fn shrinking_k_uses_the_prefix() {
        // Greedy selection is prefix-stable, so a longer previous committee
        // warm-starts a shorter one exactly.
        let candidates = sorted_roster(pool(60));
        let roster = PrunedRoster::from_dense(11, &candidates);
        let previous = greedy_diverse(&candidates, 12);
        let (warm, report) = warm_greedy(&roster, &candidates, previous.members(), &[], 5);
        assert_eq!(
            warm.members(),
            greedy_diverse_naive(&candidates, 5).members()
        );
        assert_eq!(report.replayed, 5);
        assert_eq!(report.repaired, 0);
    }

    #[test]
    fn empty_previous_committee_is_a_pure_repair() {
        let candidates = sorted_roster(pool(30));
        let roster = PrunedRoster::from_dense(11, &candidates);
        let (warm, report) = warm_greedy(&roster, &candidates, &[], &[], 7);
        assert_eq!(
            warm.members(),
            greedy_diverse_naive(&candidates, 7).members()
        );
        assert_eq!(report.replayed, 0);
        assert_eq!(report.repaired, 7);
        assert!(!report.fell_back);
    }

    #[test]
    fn arrival_that_displaces_a_member_diverges_correctly() {
        let mut candidates = pool(50);
        let previous = greedy_diverse(&sorted_roster(candidates.clone()), 10);
        // A heavyweight arrival on a rare configuration should enter the
        // committee early, displacing the tail.
        let arrival = Candidate::new(ReplicaId::new(999), VotingPower::new(498), 10, true);
        candidates.push(arrival);
        let candidates = sorted_roster(candidates);
        let roster = PrunedRoster::from_dense(11, &candidates);
        let (warm, report) = warm_greedy(
            &roster,
            &candidates,
            previous.members(),
            &[ReplicaId::new(999)],
            10,
        );
        let cold = greedy_diverse_naive(&candidates, 10);
        assert_eq!(warm.members(), cold.members());
        assert!(
            cold.members()
                .iter()
                .any(|c| c.replica() == ReplicaId::new(999)),
            "the arrival must actually join the committee for this test to bite"
        );
        assert!(report.repaired > 0, "{report:?}");
    }
}
