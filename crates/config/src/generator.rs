//! Assignments of configurations and voting power to replicas, plus the
//! generators used by experiments (uniform, monoculture, Zipf-skewed,
//! explicit).
//!
//! An [`Assignment`] is the bridge between the configuration model and the
//! diversity math: from it we derive the power-weighted configuration
//! distribution `p` (the paper's *relative configuration abundance*) and
//! the replica-count abundance vector.

use std::collections::HashMap;

use fi_entropy::{AbundanceVector, Distribution, EntropyAccumulator};
use fi_types::{ReplicaId, VotingPower};
use rand::distributions::Distribution as RandDistribution;
use rand::Rng;

use crate::configuration::Configuration;
use crate::error::ConfigError;
use crate::space::ConfigurationSpace;

/// One replica's row in an assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AssignmentEntry {
    /// The replica.
    pub replica: ReplicaId,
    /// Index of its configuration in the space.
    pub config: usize,
    /// Its voting power.
    pub power: VotingPower,
}

/// A complete mapping `replica → (configuration, voting power)` over a
/// configuration space.
///
/// # Example
///
/// ```
/// use fi_config::prelude::*;
/// let space = ConfigurationSpace::cartesian(&[catalog::operating_systems()])?;
/// let a = Assignment::round_robin(&space, 16, VotingPower::new(10))?;
/// assert_eq!(a.replica_count(), 16);
/// assert_eq!(a.total_power(), VotingPower::new(160));
/// // 16 replicas over 8 OSes round-robin: uniform, 3 bits.
/// assert!((a.entropy_bits()? - 3.0).abs() < 1e-12);
/// # Ok::<(), fi_config::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    space: ConfigurationSpace,
    entries: Vec<AssignmentEntry>,
    by_replica: HashMap<ReplicaId, usize>,
}

impl Assignment {
    /// Creates an assignment from explicit entries.
    ///
    /// # Errors
    ///
    /// * [`ConfigError::EmptyAssignment`] if `entries` is empty;
    /// * [`ConfigError::DuplicateReplica`] on repeated replica ids;
    /// * [`ConfigError::UnknownConfiguration`] on out-of-range indices.
    pub fn new(
        space: ConfigurationSpace,
        entries: Vec<AssignmentEntry>,
    ) -> Result<Self, ConfigError> {
        if entries.is_empty() {
            return Err(ConfigError::EmptyAssignment);
        }
        let mut by_replica = HashMap::with_capacity(entries.len());
        for (i, e) in entries.iter().enumerate() {
            if e.config >= space.len() {
                return Err(ConfigError::UnknownConfiguration {
                    index: e.config,
                    space_size: space.len(),
                });
            }
            if by_replica.insert(e.replica, i).is_some() {
                return Err(ConfigError::DuplicateReplica { replica: e.replica });
            }
        }
        Ok(Assignment {
            space,
            entries,
            by_replica,
        })
    }

    /// `n` replicas with equal power, assigned round-robin across the whole
    /// space — the most diverse assignment achievable with equal shares.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidParameter`] if `n == 0`.
    pub fn round_robin(
        space: &ConfigurationSpace,
        n: usize,
        power_each: VotingPower,
    ) -> Result<Self, ConfigError> {
        if n == 0 {
            return Err(ConfigError::InvalidParameter {
                reason: "round_robin requires at least one replica".into(),
            });
        }
        let entries = (0..n)
            .map(|i| AssignmentEntry {
                replica: ReplicaId::new(i as u64),
                config: i % space.len(),
                power: power_each,
            })
            .collect();
        Self::new(space.clone(), entries)
    }

    /// `n` replicas all running configuration `config` — the monoculture
    /// worst case (entropy 0, one vulnerability takes everything).
    ///
    /// # Errors
    ///
    /// * [`ConfigError::InvalidParameter`] if `n == 0`;
    /// * [`ConfigError::UnknownConfiguration`] if `config` is out of range.
    // lint: allow(unused-pub) paper-facing: the entropy-0 monoculture the integration tests pit against diverse assignments
    pub fn monoculture(
        space: &ConfigurationSpace,
        config: usize,
        n: usize,
        power_each: VotingPower,
    ) -> Result<Self, ConfigError> {
        if n == 0 {
            return Err(ConfigError::InvalidParameter {
                reason: "monoculture requires at least one replica".into(),
            });
        }
        let entries = (0..n)
            .map(|i| AssignmentEntry {
                replica: ReplicaId::new(i as u64),
                config,
                power: power_each,
            })
            .collect();
        Self::new(space.clone(), entries)
    }

    /// `n` equal-power replicas whose configuration popularity follows a
    /// Zipf law with exponent `s` (configuration 0 most popular) — the
    /// realistic "almost everyone runs the same two stacks" shape.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidParameter`] if `n == 0` or
    /// `s` is not finite and positive.
    // lint: allow(unused-pub) paper-facing: the skewed configuration popularity integration_committee selects committees from
    pub fn zipf<R: Rng + ?Sized>(
        space: &ConfigurationSpace,
        n: usize,
        power_each: VotingPower,
        s: f64,
        rng: &mut R,
    ) -> Result<Self, ConfigError> {
        if n == 0 {
            return Err(ConfigError::InvalidParameter {
                reason: "zipf requires at least one replica".into(),
            });
        }
        if !s.is_finite() || s <= 0.0 {
            return Err(ConfigError::InvalidParameter {
                reason: format!("zipf exponent must be positive and finite, got {s}"),
            });
        }
        let weights: Vec<f64> = (1..=space.len()).map(|r| (r as f64).powf(-s)).collect();
        let sampler = rand::distributions::WeightedIndex::new(&weights).map_err(|e| {
            ConfigError::InvalidParameter {
                reason: format!("zipf weights rejected: {e}"),
            }
        })?;
        let entries = (0..n)
            .map(|i| AssignmentEntry {
                replica: ReplicaId::new(i as u64),
                config: sampler.sample(rng),
                power: power_each,
            })
            .collect();
        Self::new(space.clone(), entries)
    }

    /// Replicas with explicit per-replica powers, round-robin over
    /// configurations. Used to reproduce Bitcoin-like skewed power with
    /// best-case unique configurations (Example 1's assumption).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::EmptyAssignment`] if `powers` is empty.
    pub fn with_powers(
        space: &ConfigurationSpace,
        powers: &[VotingPower],
    ) -> Result<Self, ConfigError> {
        let entries = powers
            .iter()
            .enumerate()
            .map(|(i, &power)| AssignmentEntry {
                replica: ReplicaId::new(i as u64),
                config: i % space.len(),
                power,
            })
            .collect();
        Self::new(space.clone(), entries)
    }

    /// The configuration space this assignment draws from.
    #[must_use]
    pub fn space(&self) -> &ConfigurationSpace {
        &self.space
    }

    /// The rows of the assignment.
    #[must_use]
    pub fn entries(&self) -> &[AssignmentEntry] {
        &self.entries
    }

    /// Number of replicas.
    #[must_use]
    pub fn replica_count(&self) -> usize {
        self.entries.len()
    }

    /// Total voting power `n_t`.
    #[must_use]
    pub fn total_power(&self) -> VotingPower {
        self.entries.iter().map(|e| e.power).sum()
    }

    /// The configuration index of `replica`, if assigned.
    #[must_use]
    fn config_of(&self, replica: ReplicaId) -> Option<usize> {
        self.by_replica
            .get(&replica)
            .map(|&i| self.entries[i].config)
    }

    /// The configuration of `replica`, if assigned.
    #[must_use]
    pub fn configuration_of(&self, replica: ReplicaId) -> Option<&Configuration> {
        self.config_of(replica).and_then(|i| self.space.get(i).ok())
    }

    /// Voting power aggregated per configuration index.
    #[must_use]
    pub fn power_by_config(&self) -> Vec<VotingPower> {
        let mut acc = vec![VotingPower::ZERO; self.space.len()];
        for e in &self.entries {
            acc[e.config] += e.power;
        }
        acc
    }

    /// An [`EntropyAccumulator`] seeded with this assignment's
    /// power-by-config weights: one bucket per configuration of the space.
    ///
    /// Build it once, then evaluate reassignments in O(1) with
    /// `peek_move(from, to, power)` / `apply_move` instead of cloning the
    /// assignment and recomputing the distribution per trial — this is what
    /// the diversity recommender's and rotation monitor's hot loops do.
    ///
    /// # Example
    ///
    /// ```
    /// use fi_config::prelude::*;
    /// let space = ConfigurationSpace::cartesian(&[catalog::operating_systems()])?;
    /// let a = Assignment::round_robin(&space, 16, VotingPower::new(10))?;
    /// let acc = a.entropy_accumulator();
    /// assert!((acc.entropy_bits() - a.entropy_bits()?).abs() < 1e-12);
    /// # Ok::<(), fi_config::ConfigError>(())
    /// ```
    #[must_use]
    pub fn entropy_accumulator(&self) -> EntropyAccumulator {
        let mut acc = EntropyAccumulator::new(self.space.len());
        for e in &self.entries {
            acc.add(e.config, e.power.as_units());
        }
        acc
    }

    /// Replica count per configuration index (configuration abundance).
    #[must_use]
    fn count_by_config(&self) -> Vec<u64> {
        let mut acc = vec![0u64; self.space.len()];
        for e in &self.entries {
            acc[e.config] += 1;
        }
        acc
    }

    /// The power-weighted configuration distribution `p` — the paper's
    /// relative configuration abundance over the full space `D`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Distribution`] if total power is zero.
    pub fn distribution(&self) -> Result<Distribution, ConfigError> {
        let units: Vec<u64> = self
            .power_by_config()
            .iter()
            .map(|p| p.as_units())
            .collect();
        Ok(Distribution::from_counts(&units)?)
    }

    /// The replica-count abundance vector (paper §IV-B's configuration
    /// abundance).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Distribution`] if the space is empty (cannot
    /// happen for constructed assignments).
    pub fn abundance(&self) -> Result<AbundanceVector, ConfigError> {
        Ok(AbundanceVector::new(self.count_by_config())?)
    }

    /// Shannon entropy (bits) of the power-weighted distribution.
    ///
    /// # Errors
    ///
    /// As [`distribution`](Self::distribution).
    pub fn entropy_bits(&self) -> Result<f64, ConfigError> {
        Ok(self.distribution()?.shannon_entropy())
    }

    /// Moves `replica` to configuration `new_config` (a diversity-manager
    /// action), returning the previous configuration index.
    ///
    /// # Errors
    ///
    /// * [`ConfigError::UnknownConfiguration`] if `new_config` is out of
    ///   range;
    /// * [`ConfigError::EmptyAssignment`] if `replica` is not assigned
    ///   (no rows would change).
    pub fn reassign(
        &mut self,
        replica: ReplicaId,
        new_config: usize,
    ) -> Result<usize, ConfigError> {
        if new_config >= self.space.len() {
            return Err(ConfigError::UnknownConfiguration {
                index: new_config,
                space_size: self.space.len(),
            });
        }
        let &i = self
            .by_replica
            .get(&replica)
            .ok_or(ConfigError::EmptyAssignment)?;
        let old = self.entries[i].config;
        self.entries[i].config = new_config;
        Ok(old)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::catalog;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> ConfigurationSpace {
        ConfigurationSpace::cartesian(&[catalog::operating_systems()[..4].to_vec()]).unwrap()
    }

    #[test]
    fn round_robin_is_uniform_when_divisible() {
        let a = Assignment::round_robin(&space(), 8, VotingPower::new(5)).unwrap();
        assert_eq!(a.count_by_config(), vec![2, 2, 2, 2]);
        assert!((a.entropy_bits().unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(a.total_power(), VotingPower::new(40));
    }

    #[test]
    fn round_robin_rejects_zero() {
        assert!(Assignment::round_robin(&space(), 0, VotingPower::new(1)).is_err());
    }

    #[test]
    fn monoculture_has_zero_entropy() {
        let a = Assignment::monoculture(&space(), 2, 10, VotingPower::new(1)).unwrap();
        assert_eq!(a.entropy_bits().unwrap(), 0.0);
        assert_eq!(a.count_by_config()[2], 10);
        assert_eq!(a.count_by_config()[0], 0);
    }

    #[test]
    fn monoculture_validates_inputs() {
        assert!(Assignment::monoculture(&space(), 9, 3, VotingPower::new(1)).is_err());
        assert!(Assignment::monoculture(&space(), 0, 0, VotingPower::new(1)).is_err());
    }

    #[test]
    fn zipf_is_deterministic_per_seed_and_skewed() {
        let mut rng1 = StdRng::seed_from_u64(7);
        let mut rng2 = StdRng::seed_from_u64(7);
        let a = Assignment::zipf(&space(), 1000, VotingPower::new(1), 1.5, &mut rng1).unwrap();
        let b = Assignment::zipf(&space(), 1000, VotingPower::new(1), 1.5, &mut rng2).unwrap();
        assert_eq!(a.count_by_config(), b.count_by_config());
        // Config 0 dominates under Zipf(1.5).
        let counts = a.count_by_config();
        assert!(counts[0] > counts[1] && counts[1] > counts[3]);
        // Entropy is below the uniform bound.
        assert!(a.entropy_bits().unwrap() < 2.0);
    }

    #[test]
    fn zipf_validates_exponent() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(Assignment::zipf(&space(), 5, VotingPower::new(1), 0.0, &mut rng).is_err());
        assert!(Assignment::zipf(&space(), 5, VotingPower::new(1), f64::NAN, &mut rng).is_err());
        assert!(Assignment::zipf(&space(), 0, VotingPower::new(1), 1.0, &mut rng).is_err());
    }

    #[test]
    fn with_powers_keeps_shares() {
        let powers = [
            VotingPower::new(60),
            VotingPower::new(30),
            VotingPower::new(10),
        ];
        let a = Assignment::with_powers(&space(), &powers).unwrap();
        let d = a.distribution().unwrap();
        assert!((d.probabilities()[0] - 0.6).abs() < 1e-12);
        assert_eq!(a.entries()[1].power, VotingPower::new(30));
    }

    #[test]
    fn new_rejects_duplicates_and_bad_indices() {
        let s = space();
        let dup = vec![
            AssignmentEntry {
                replica: ReplicaId::new(0),
                config: 0,
                power: VotingPower::new(1),
            },
            AssignmentEntry {
                replica: ReplicaId::new(0),
                config: 1,
                power: VotingPower::new(1),
            },
        ];
        assert!(matches!(
            Assignment::new(s.clone(), dup),
            Err(ConfigError::DuplicateReplica { .. })
        ));
        let bad = vec![AssignmentEntry {
            replica: ReplicaId::new(0),
            config: 99,
            power: VotingPower::new(1),
        }];
        assert!(matches!(
            Assignment::new(s.clone(), bad),
            Err(ConfigError::UnknownConfiguration { .. })
        ));
        assert!(matches!(
            Assignment::new(s, vec![]),
            Err(ConfigError::EmptyAssignment)
        ));
    }

    #[test]
    fn lookups() {
        let a = Assignment::round_robin(&space(), 5, VotingPower::new(2)).unwrap();
        assert_eq!(a.config_of(ReplicaId::new(4)), Some(0));
        assert_eq!(a.config_of(ReplicaId::new(77)), None);
        assert!(a.configuration_of(ReplicaId::new(4)).is_some());
        assert_eq!(a.replica_count(), 5);
    }

    #[test]
    fn abundance_matches_counts() {
        let a = Assignment::round_robin(&space(), 6, VotingPower::new(1)).unwrap();
        let ab = a.abundance().unwrap();
        assert_eq!(ab.counts(), a.count_by_config().as_slice());
    }

    #[test]
    fn reassign_moves_power() {
        let mut a = Assignment::round_robin(&space(), 4, VotingPower::new(10)).unwrap();
        let before = a.entropy_bits().unwrap();
        let old = a.reassign(ReplicaId::new(1), 0).unwrap();
        assert_eq!(old, 1);
        assert_eq!(a.config_of(ReplicaId::new(1)), Some(0));
        // Moving a replica onto an occupied configuration reduces entropy.
        assert!(a.entropy_bits().unwrap() < before);
        assert!(a.reassign(ReplicaId::new(1), 99).is_err());
        assert!(a.reassign(ReplicaId::new(42), 0).is_err());
    }

    #[test]
    fn zero_power_replicas_allowed_but_zero_total_rejected_in_distribution() {
        let s = space();
        let entries = vec![AssignmentEntry {
            replica: ReplicaId::new(0),
            config: 0,
            power: VotingPower::ZERO,
        }];
        let a = Assignment::new(s, entries).unwrap();
        assert!(a.distribution().is_err());
    }
}
