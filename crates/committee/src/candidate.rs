//! Candidates and committees.

use std::cmp::Reverse;

use fi_entropy::incremental::weighted_entropy_bits;
use fi_entropy::Distribution;
use fi_types::{ReplicaId, VotingPower, WeightedQuorum};

/// A replica eligible for committee membership. 24 bytes. An epoch
/// snapshot stores its roster as [`PrunedRoster`](crate::PrunedRoster)
/// entries, the table a seal writes; `Candidate` is the replica-sorted view
/// derived from it on demand, and the input the selection functions take.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    replica: ReplicaId,
    power: VotingPower,
    /// The configuration index, with [`ATTESTED`] set on top of it for an
    /// attested candidate. An index addresses a slice, so it never exceeds
    /// `isize::MAX` and the top bit is free.
    config: usize,
}

/// The bit of [`Candidate::config`] that holds `attested`.
const ATTESTED: usize = 1 << (usize::BITS - 1);

impl Candidate {
    /// Creates a candidate: its stake/power, its configuration index (from
    /// attestation; an unattested candidate's is a *claim*, which selection
    /// buckets by but the tolerance rule treats as opaque), and whether that
    /// configuration is attested. The index is kept modulo
    /// 2^(`usize::BITS` − 1): anything that indexes a slice fits.
    #[must_use]
    pub fn new(replica: ReplicaId, power: VotingPower, config: usize, attested: bool) -> Self {
        Candidate {
            replica,
            power,
            config: (config & !ATTESTED) | if attested { ATTESTED } else { 0 },
        }
    }

    /// The replica id.
    #[must_use]
    pub fn replica(&self) -> ReplicaId {
        self.replica
    }

    /// The candidate's voting power / stake.
    #[must_use]
    pub fn power(&self) -> VotingPower {
        self.power
    }

    /// The configuration index.
    #[must_use]
    pub fn config(&self) -> usize {
        self.config & !ATTESTED
    }

    /// Whether the configuration is attested.
    #[must_use]
    pub fn attested(&self) -> bool {
        self.config & ATTESTED != 0
    }
}

/// The four values [`Candidate::new`] took, not the packed word.
impl std::fmt::Debug for Candidate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Candidate")
            .field("replica", &self.replica)
            .field("power", &self.power)
            .field("config", &self.config())
            .field("attested", &self.attested())
            .finish()
    }
}

/// A selected committee.
///
/// Construction aggregates members once into a sorted-vec bucket map
/// (configuration index → summed power) and caches the total power and the
/// power-weighted configuration entropy, so the monitoring accessors
/// ([`power_by_config`](Self::power_by_config),
/// [`entropy_bits`](Self::entropy_bits), [`total_power`](Self::total_power),
/// [`worst_config_share`](Self::worst_config_share)) are O(1)/O(m) reads
/// with no hashing or re-derivation. The tier-aware reads
/// ([`worst_fault_share`](Self::worst_fault_share),
/// [`tolerates_one_config`](Self::tolerates_one_config)) walk the members.
#[derive(Debug, Clone)]
pub struct Committee {
    members: Vec<Candidate>,
    /// Power per configuration index, sorted by index (cache; derived from
    /// `members`). Zero-power buckets are kept so the distribution's
    /// dimension reflects every configuration present in the committee.
    buckets: Vec<(usize, VotingPower)>,
    /// Total committee power (cache).
    total: VotingPower,
    /// Power-weighted configuration entropy in bits (cache).
    entropy: f64,
}

/// Committees compare by their member sequence; the bucket/entropy caches
/// are deterministic functions of it.
impl PartialEq for Committee {
    fn eq(&self, other: &Self) -> bool {
        self.members == other.members
    }
}

impl Committee {
    /// Wraps selected members (order preserved as selected), building the
    /// per-configuration bucket cache in one sort + merge pass.
    #[must_use]
    pub fn new(members: Vec<Candidate>) -> Self {
        let mut buckets: Vec<(usize, VotingPower)> =
            members.iter().map(|m| (m.config(), m.power)).collect();
        buckets.sort_unstable_by_key(|&(config, _)| config);
        buckets.dedup_by(|cur, prev| {
            if cur.0 == prev.0 {
                prev.1 += cur.1;
                true
            } else {
                false
            }
        });
        let total = buckets.iter().map(|&(_, p)| p).sum();
        let entropy = weighted_entropy_bits(buckets.iter().map(|&(_, p)| p.as_units()));
        Committee {
            members,
            buckets,
            total,
            entropy,
        }
    }

    /// The members in selection order.
    #[must_use]
    pub fn members(&self) -> &[Candidate] {
        &self.members
    }

    /// Committee size.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the committee is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Total committee voting power (`n_t` of the committee, §II-A).
    /// Cached at construction — O(1).
    #[must_use]
    pub fn total_power(&self) -> VotingPower {
        self.total
    }

    /// Power aggregated per configuration index, sorted by index. Cached at
    /// construction — no hashing or allocation per call.
    #[must_use]
    pub fn power_by_config(&self) -> &[(usize, VotingPower)] {
        &self.buckets
    }

    /// The committee's power-weighted configuration distribution.
    ///
    /// # Errors
    ///
    /// Returns a [`fi_entropy::DistributionError`] for an empty or
    /// zero-power committee.
    pub fn distribution(&self) -> Result<Distribution, fi_entropy::DistributionError> {
        let units: Vec<u64> = self.buckets.iter().map(|(_, p)| p.as_units()).collect();
        Distribution::from_counts(&units)
    }

    /// Shannon entropy (bits) of the configuration distribution; `0.0` for
    /// degenerate committees. Cached at construction — O(1).
    #[must_use]
    pub fn entropy_bits(&self) -> f64 {
        self.entropy
    }

    /// The share of committee power in the heaviest claimed configuration,
    /// tier-blind: an unattested member counts under the index it claims,
    /// as in [`power_by_config`](Self::power_by_config) and the entropy
    /// (lower is more diverse; it is `2^{−H_∞}`). What one
    /// configuration-level fault reaches, which counts unattested power
    /// against every configuration, is
    /// [`worst_fault_share`](Self::worst_fault_share).
    #[must_use]
    pub fn worst_config_share(&self) -> f64 {
        self.buckets
            .iter()
            .map(|&(_, p)| p.share_of(self.total))
            .fold(0.0, f64::max)
    }

    /// The share of committee power one configuration-level fault reaches,
    /// counted as the sealed verdict counts it: the heaviest attested
    /// configuration plus all unattested power, whose claimed
    /// configurations are opaque. The committee
    /// [tolerates](Self::tolerates_one_config) exactly when that power is
    /// within its [`WeightedQuorum`] `f`. `0.0` for a zero-power committee.
    #[must_use]
    pub fn worst_fault_share(&self) -> f64 {
        let exposure = Exposure::of(&self.members);
        exposure.fault().share_of(exposure.total)
    }

    /// Whether the committee survives a fault in any one configuration
    /// (paper §II-C), counted as the sealed verdict counts it: the heaviest
    /// attested configuration plus all unattested power, whose claimed
    /// configurations are opaque, is within the [`WeightedQuorum`] `f` of
    /// its power. `false` below 4 units, where `f` is undefined.
    #[must_use]
    pub fn tolerates_one_config(&self) -> bool {
        single_config_fault(&self.members).is_ok()
    }

    /// Share of committee power held by attested members.
    #[must_use]
    pub fn attested_share(&self) -> f64 {
        let attested: VotingPower = self
            .members
            .iter()
            .filter(|m| m.attested())
            .map(Candidate::power)
            .sum();
        attested.share_of(self.total_power())
    }
}

/// What one configuration-level fault reaches in a set of members, by the
/// tier rule: the heaviest attested configuration (the lowest index on a
/// tie) and every unattested member.
struct Exposure<'a> {
    /// The members of the heaviest attested configuration.
    worst: Vec<&'a Candidate>,
    /// Every unattested member.
    unattested: Vec<&'a Candidate>,
    /// The members' power, both tiers.
    total: VotingPower,
}

/// The summed power of `among`.
fn power(among: &[&Candidate]) -> VotingPower {
    among.iter().map(|m| m.power()).sum()
}

impl<'a> Exposure<'a> {
    fn of(members: &'a [Candidate]) -> Self {
        let (mut attested, unattested): (Vec<&Candidate>, Vec<_>) =
            members.iter().partition(|m| m.attested());
        let total = power(&attested) + power(&unattested);
        attested.sort_by_key(|m| m.config());
        // Reversed: of equally heavy configurations `max_by_key` keeps the
        // last.
        let configs = attested.chunk_by(|a, b| a.config() == b.config());
        let worst = configs.rev().max_by_key(|c| power(c)).unwrap_or_default();
        Exposure {
            worst: worst.to_vec(),
            unattested,
            total,
        }
    }

    /// The power the fault reaches.
    fn fault(&self) -> VotingPower {
        power(&self.worst) + power(&self.unattested)
    }
}

/// [`Committee::tolerates_one_config`]'s rule: `Ok` when `members`
/// tolerate, else `Err` with the member the tolerant repair ejects (`None`
/// only for no members). That is the heaviest unattested member while any
/// sits, as its power counts against every configuration, then the heaviest
/// member of the heaviest attested configuration (the lowest index on a
/// tie); heaviest by the fold's preference, `(power, Reverse(replica))`.
pub(crate) fn single_config_fault(members: &[Candidate]) -> Result<(), Option<Candidate>> {
    let heaviest = |among: &[&Candidate]| {
        let rank = |m: &&&Candidate| (m.power(), Reverse(m.replica()));
        among.iter().max_by_key(rank).map(|&&m| m)
    };
    let exposure = Exposure::of(members);
    if WeightedQuorum::for_total(exposure.total).is_some_and(|q| q.tolerates(exposure.fault())) {
        return Ok(());
    }
    Err(heaviest(&exposure.unattested).or_else(|| heaviest(&exposure.worst)))
}

impl FromIterator<Candidate> for Committee {
    fn from_iter<I: IntoIterator<Item = Candidate>>(iter: I) -> Self {
        Committee::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidates() -> Vec<Candidate> {
        vec![
            Candidate::new(ReplicaId::new(0), VotingPower::new(50), 0, true),
            Candidate::new(ReplicaId::new(1), VotingPower::new(30), 0, false),
            Candidate::new(ReplicaId::new(2), VotingPower::new(20), 1, true),
        ]
    }

    #[test]
    fn accessors() {
        let c = candidates()[0];
        assert_eq!(c.replica(), ReplicaId::new(0));
        assert_eq!(c.power(), VotingPower::new(50));
        assert_eq!(c.config(), 0);
        assert!(c.attested());
    }

    #[test]
    fn a_candidate_is_three_words_and_prints_its_four_values() {
        assert_eq!(std::mem::size_of::<Candidate>(), 24);
        for (config, attested) in [(0, false), (0, true), (usize::MAX >> 1, false), (7, true)] {
            let c = Candidate::new(ReplicaId::new(3), VotingPower::new(9), config, attested);
            assert_eq!((c.config(), c.attested()), (config, attested));
        }
        // The one configuration value that does not fit is folded, not
        // rejected: `new` has no failure path.
        let folded = Candidate::new(ReplicaId::new(3), VotingPower::new(9), usize::MAX, false);
        assert_eq!(
            (folded.config(), folded.attested()),
            (usize::MAX >> 1, false)
        );
        let c = Candidate::new(ReplicaId::new(3), VotingPower::new(9), 7, true);
        assert_eq!(
            format!("{c:?}"),
            format!(
                "Candidate {{ replica: {:?}, power: {:?}, config: 7, attested: true }}",
                c.replica(),
                c.power()
            )
        );
    }

    #[test]
    fn committee_aggregates() {
        let committee: Committee = candidates().into_iter().collect();
        assert_eq!(committee.len(), 3);
        assert!(!committee.is_empty());
        assert_eq!(committee.total_power(), VotingPower::new(100));
        assert_eq!(
            committee.power_by_config(),
            vec![(0, VotingPower::new(80)), (1, VotingPower::new(20))]
        );
        assert!((committee.worst_config_share() - 0.8).abs() < 1e-12);
        // Configuration 0's attested 50 and the unattested 30.
        assert!((committee.worst_fault_share() - 0.8).abs() < 1e-12);
        assert!((committee.attested_share() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn entropy_of_committee() {
        let committee: Committee = candidates().into_iter().collect();
        let d = committee.distribution().unwrap();
        assert_eq!(d.dimension(), 2);
        let expect = -(0.8f64 * 0.8f64.log2() + 0.2 * 0.2f64.log2());
        assert!((committee.entropy_bits() - expect).abs() < 1e-12);
    }

    #[test]
    fn cached_aggregates_match_recomputation() {
        // The caches are built once at construction; they must agree with a
        // from-scratch recomputation over the members.
        let committee: Committee = candidates().into_iter().collect();
        let total: VotingPower = committee.members().iter().map(Candidate::power).sum();
        assert_eq!(committee.total_power(), total);
        let d = committee.distribution().unwrap();
        assert!((committee.entropy_bits() - d.shannon_entropy()).abs() < 1e-12);
        // Buckets are sorted by config index with no duplicates.
        for w in committee.power_by_config().windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn zero_power_members_keep_their_bucket() {
        // A zero-power candidate still contributes a configuration bucket
        // (dimension), matching the pre-cache HashMap behavior.
        let committee = Committee::new(vec![
            Candidate::new(ReplicaId::new(0), VotingPower::new(10), 0, true),
            Candidate::new(ReplicaId::new(1), VotingPower::ZERO, 5, true),
        ]);
        assert_eq!(
            committee.power_by_config(),
            vec![(0, VotingPower::new(10)), (5, VotingPower::ZERO)]
        );
        assert_eq!(committee.distribution().unwrap().dimension(), 2);
        assert_eq!(committee.entropy_bits(), 0.0);
    }

    #[test]
    fn unattested_power_counts_against_every_configuration() {
        let m = |replica, power, config, attested| {
            Candidate::new(
                ReplicaId::new(replica),
                VotingPower::new(power),
                config,
                attested,
            )
        };
        // 12 units, f = 3: no claimed bucket holds more than 3, but
        // configuration 0's 3 plus the unattested 3 is 6. The unattested
        // member leaves first.
        let claimed = Committee::new(vec![
            m(0, 3, 0, true),
            m(1, 3, 1, false),
            m(2, 3, 2, true),
            m(3, 3, 3, true),
        ]);
        assert!(claimed.worst_config_share() <= 0.25);
        assert!((claimed.worst_fault_share() - 0.5).abs() < 1e-12);
        assert!(!claimed.tolerates_one_config());
        assert_eq!(
            single_config_fault(claimed.members()),
            Err(Some(m(1, 3, 1, false)))
        );
        // All attested, three configurations of 4 > f: the lowest index
        // goes first, and in it the member the fold prefers.
        let attested = [
            m(3, 2, 0, true),
            m(1, 2, 0, true),
            m(0, 4, 1, true),
            m(2, 4, 2, true),
        ];
        assert_eq!(single_config_fault(&attested), Err(Some(m(1, 2, 0, true))));
        // Four configurations of one unit each tolerate; below 4 units, or
        // with nobody to eject, nothing does.
        let spread: Vec<Candidate> = (0..4).map(|c| m(c as u64, 1, c, true)).collect();
        assert_eq!(single_config_fault(&spread), Ok(()));
        assert_eq!(single_config_fault(&spread[..3]), Err(Some(spread[0])));
        assert_eq!(single_config_fault(&[]), Err(None));
    }

    #[test]
    fn empty_committee_degenerates_gracefully() {
        let committee = Committee::new(vec![]);
        assert!(committee.is_empty());
        assert_eq!(committee.entropy_bits(), 0.0);
        assert_eq!(committee.worst_config_share(), 0.0);
        assert_eq!(committee.worst_fault_share(), 0.0);
        assert!(committee.distribution().is_err());
        assert_eq!(committee.attested_share(), 0.0);
    }
}
