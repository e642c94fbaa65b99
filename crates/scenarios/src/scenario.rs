//! The declarative scenario model: adversaries, substrates, knobs, grids.
//!
//! A [`Scenario`] is a complete, seedable description of one resilience
//! experiment — which consensus substrate runs, how replicas/pools/
//! candidates are spread over a configuration space, what the adversary
//! does, and what safety budget the paper's condition `f ≥ Σ_i f^i_t`
//! (§II-C) is checked against. Scenarios carry their *expected* verdict, so
//! the campaign runner doubles as a regression gate: a substrate change
//! that flips any verdict fails the campaign.

use fi_config::prelude::{catalog, ComponentSelector, Severity};
use fi_config::{Assignment, Component, ConfigError, ConfigurationSpace, Vulnerability};
use fi_types::{SimTime, VotingPower, VulnId};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which consensus substrate a scenario exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Substrate {
    /// PBFT-style replication on the deterministic simnet (`fi-bft`).
    Bft,
    /// Proof-of-work mining, pools, and double-spend races (`fi-nakamoto`).
    Nakamoto,
    /// Diversity-aware committee selection (`fi-committee`).
    Committee,
}

impl Substrate {
    /// Stable lowercase label used in scenario names and JSON reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Substrate::Bft => "bft",
            Substrate::Nakamoto => "nakamoto",
            Substrate::Committee => "committee",
        }
    }
}

/// The configuration dimension a zero-day lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dimension {
    /// The operating-system layer of the space.
    OperatingSystem,
    /// The cryptographic-library layer of the space.
    CryptoLibrary,
}

impl Dimension {
    /// The catalog component at `product` on this dimension.
    ///
    /// # Panics
    ///
    /// Panics if `product` exceeds the catalog for the dimension.
    #[must_use]
    pub fn component(self, product: usize) -> Component {
        match self {
            Dimension::OperatingSystem => catalog::operating_systems()[product].clone(),
            Dimension::CryptoLibrary => catalog::crypto_libraries()[product].clone(),
        }
    }
}

/// How replicas (or pools, or candidates) are spread over the space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Spread {
    /// Uniform round-robin — the most diverse equal-power shape.
    RoundRobin,
    /// Zipf-skewed popularity (configuration 0 most popular) with the
    /// exponent in permille (1200 ⇒ s = 1.2) so scenarios stay `Eq`/`Hash`.
    Zipf {
        /// Zipf exponent × 1000.
        s_permille: u32,
    },
    /// Everyone on configuration 0 — the monoculture worst case.
    Monoculture,
}

impl Spread {
    /// Builds the assignment this spread induces over `space`, with
    /// `power_each` units per replica, deterministically from `seed`.
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigError`] from the underlying generator (e.g.
    /// `n == 0`).
    pub fn assign(
        self,
        space: &ConfigurationSpace,
        n: usize,
        power_each: VotingPower,
        seed: u64,
    ) -> Result<Assignment, ConfigError> {
        match self {
            Spread::RoundRobin => Assignment::round_robin(space, n, power_each),
            Spread::Zipf { s_permille } => {
                let mut rng = StdRng::seed_from_u64(seed);
                Assignment::zipf(
                    space,
                    n,
                    power_each,
                    f64::from(s_permille) / 1000.0,
                    &mut rng,
                )
            }
            Spread::Monoculture => Assignment::monoculture(space, 0, n, power_each),
        }
    }
}

/// Committee-selection policy under test (committee substrate only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Entropy-maximising greedy selection ([`fi_committee::greedy_diverse`]).
    Greedy,
    /// Highest stake wins ([`fi_committee::top_stake`] — the oligopoly
    /// baseline).
    TopStake,
}

impl Policy {
    /// Stable label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Policy::Greedy => "greedy",
            Policy::TopStake => "top-stake",
        }
    }
}

/// The adversary model: what gets compromised, and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Adversary {
    /// A zero-day in one COTS product: every configuration containing
    /// `product` on `dimension` falls at once (the paper's correlated
    /// compromise).
    SharedZeroDay {
        /// Which configuration layer the bug is in.
        dimension: Dimension,
        /// Catalog index of the vulnerable product.
        product: usize,
    },
    /// The top `pools` mining pools run the same operator software and all
    /// fall to one exploit (Example 1's oligopoly catastrophe).
    PoolCompromise {
        /// How many of the highest-power pools share the flaw.
        pools: usize,
    },
    /// A disclosed vulnerability exploited inside its patch window:
    /// compromised at disclosure (1 ms), recovered at `patched_ms`; the
    /// verdict is probed at `probe_ms`.
    PatchWindow {
        /// Which configuration layer the bug is in.
        dimension: Dimension,
        /// Catalog index of the vulnerable product.
        product: usize,
        /// Patch landing time (simulated milliseconds).
        patched_ms: u64,
        /// When the safety/liveness verdict is read (simulated ms).
        probe_ms: u64,
    },
    /// A zero-day stays live while the operator rotates configurations:
    /// `rounds` rotation rounds of `period_ms` each, re-deriving the
    /// correlated fault set after every round.
    ChurnRotation {
        /// Which configuration layer the bug is in.
        dimension: Dimension,
        /// Catalog index of the vulnerable product.
        product: usize,
        /// Rotation period (simulated milliseconds).
        period_ms: u64,
        /// Rotation rounds to sweep.
        rounds: u32,
    },
}

impl Adversary {
    /// Short stable label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Adversary::SharedZeroDay { .. } => "shared-zero-day",
            Adversary::PoolCompromise { .. } => "pool-compromise",
            Adversary::PatchWindow { .. } => "patch-window",
            Adversary::ChurnRotation { .. } => "churn-rotation",
        }
    }

    /// The vulnerability this adversary wields, if it is component-shaped.
    /// Zero-days get an effectively unbounded window; patch-window attacks
    /// get `[1 ms, patched_ms]`.
    #[must_use]
    pub fn vulnerability(self) -> Option<Vulnerability> {
        let (dimension, product, disclosed, patched) = match self {
            Adversary::SharedZeroDay { dimension, product }
            | Adversary::ChurnRotation {
                dimension, product, ..
            } => (dimension, product, SimTime::from_millis(1), SimTime::MAX),
            Adversary::PatchWindow {
                dimension,
                product,
                patched_ms,
                ..
            } => (
                dimension,
                product,
                SimTime::from_millis(1),
                SimTime::from_millis(patched_ms),
            ),
            Adversary::PoolCompromise { .. } => return None,
        };
        let component = dimension.component(product);
        Some(
            Vulnerability::new(
                VulnId::new(0),
                format!("zero-day-{}", component.name()),
                ComponentSelector::product(component.kind(), component.name()),
                Severity::Critical,
            )
            .with_window(disclosed, patched),
        )
    }
}

/// Shape of the configuration space: a cartesian product of the first `os`
/// catalog operating systems and (optionally) the first `crypto` catalog
/// cryptographic libraries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpaceSpec {
    /// Operating-system alternatives (1..=8).
    pub os: usize,
    /// Crypto-library alternatives (0 = single-layer space, ..=5).
    pub crypto: usize,
}

impl SpaceSpec {
    /// Builds the configuration space.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidParameter`] when a layer falls
    /// outside its catalog (`os == 0`, `os > 8`, `crypto > 5`), and
    /// otherwise propagates [`ConfigError`] from the cartesian builder.
    pub fn build(self) -> Result<ConfigurationSpace, ConfigError> {
        let os_catalog = catalog::operating_systems();
        let crypto_catalog = catalog::crypto_libraries();
        if self.os == 0 || self.os > os_catalog.len() || self.crypto > crypto_catalog.len() {
            return Err(ConfigError::InvalidParameter {
                reason: format!(
                    "space spec {self:?} outside the catalogs ({} OSes, {} crypto libraries)",
                    os_catalog.len(),
                    crypto_catalog.len()
                ),
            });
        }
        let mut layers = vec![os_catalog[..self.os].to_vec()];
        if self.crypto > 0 {
            layers.push(crypto_catalog[..self.crypto].to_vec());
        }
        ConfigurationSpace::cartesian(&layers)
    }

    /// Number of configurations the built space will contain.
    #[must_use]
    pub fn len(self) -> usize {
        self.os * self.crypto.max(1)
    }

    /// Whether the spec describes an empty space.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }
}

/// One complete experiment description.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Stable unique name (doubles as the golden-fixture key).
    pub name: String,
    /// Which substrate runs.
    pub substrate: Substrate,
    /// The adversary model.
    pub adversary: Adversary,
    /// Replica / pool / candidate count. Pool-compromise scenarios draw
    /// the top `replicas` pools of the 2023 Bitcoin catalog.
    pub replicas: usize,
    /// Shape of the configuration space.
    pub space: SpaceSpec,
    /// How participants spread over the space.
    pub spread: Spread,
    /// Committee size `k` (committee substrate only; 0 elsewhere).
    pub committee: usize,
    /// Selection policy (committee substrate only).
    pub policy: Policy,
    /// Safety budget: the largest tolerable compromised power share, in
    /// permille of total power (333 ≈ the BFT third, 500 = the Nakamoto
    /// majority bound).
    pub fault_budget_permille: u32,
    /// Root seed for every random draw the scenario makes.
    pub seed: u64,
    /// The verdict this scenario is expected to produce — the regression
    /// contract the campaign enforces.
    pub expect_safe: bool,
}

impl Scenario {
    /// Checks internal consistency: the adversary fits the substrate, the
    /// space is non-degenerate, products exist in the catalog, and
    /// committee scenarios carry a usable `k`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.space.os == 0 || self.space.os > catalog::operating_systems().len() {
            return Err(format!("{}: os layer out of range", self.name));
        }
        if self.space.crypto > catalog::crypto_libraries().len() {
            return Err(format!("{}: crypto layer out of range", self.name));
        }
        if self.replicas == 0 {
            return Err(format!("{}: needs at least one replica", self.name));
        }
        let product_ok = |dimension: Dimension, product: usize| match dimension {
            Dimension::OperatingSystem => product < self.space.os,
            Dimension::CryptoLibrary => self.space.crypto > 0 && product < self.space.crypto,
        };
        match (self.substrate, self.adversary) {
            (Substrate::Bft | Substrate::Committee, Adversary::PoolCompromise { .. }) => {
                Err(format!(
                    "{}: pool compromise needs the nakamoto substrate",
                    self.name
                ))
            }
            (Substrate::Nakamoto | Substrate::Committee, Adversary::ChurnRotation { .. }) => {
                Err(format!(
                    "{}: churn + rotation is a BFT-substrate adversary",
                    self.name
                ))
            }
            (Substrate::Committee, Adversary::PatchWindow { .. }) => Err(format!(
                "{}: committee selection has no time axis for a patch window",
                self.name
            )),
            (Substrate::Bft, _) if self.replicas < 4 => {
                Err(format!("{}: BFT needs n >= 4", self.name))
            }
            (Substrate::Committee, _) if self.committee == 0 => {
                Err(format!("{}: committee scenarios need k > 0", self.name))
            }
            (_, Adversary::SharedZeroDay { dimension, product })
            | (
                _,
                Adversary::PatchWindow {
                    dimension, product, ..
                },
            )
            | (
                _,
                Adversary::ChurnRotation {
                    dimension, product, ..
                },
            ) if !product_ok(dimension, product) => Err(format!(
                "{}: vulnerable product outside the configured space",
                self.name
            )),
            (Substrate::Nakamoto, Adversary::PoolCompromise { pools }) => {
                // The population is the top `replicas` pools of the 2023
                // Bitcoin catalog; every knob must stay inside it so none
                // is silently dead.
                let catalog = fi_nakamoto::bitcoin_pools_2023().len();
                if pools == 0 {
                    Err(format!(
                        "{}: pool compromise needs at least one pool",
                        self.name
                    ))
                } else if self.replicas > catalog {
                    Err(format!(
                        "{}: only {catalog} catalog pools exist, {} requested",
                        self.name, self.replicas
                    ))
                } else if pools > self.replicas {
                    Err(format!(
                        "{}: cannot compromise {pools} of {} pools",
                        self.name, self.replicas
                    ))
                } else {
                    Ok(())
                }
            }
            _ => Ok(()),
        }
    }
}

/// The full standard grid: ≥ 12 distinct scenario configurations covering
/// all three substrates and all four adversary kinds, on fixed seeds. The
/// committed golden summaries are rendered from exactly this grid.
#[must_use]
pub fn standard_grid() -> Vec<Scenario> {
    vec![
        // ── BFT on fi-simnet ────────────────────────────────────────────────
        Scenario {
            name: "bft/zeroday-os/mono-n4".into(),
            substrate: Substrate::Bft,
            adversary: Adversary::SharedZeroDay {
                dimension: Dimension::OperatingSystem,
                product: 0,
            },
            replicas: 4,
            space: SpaceSpec { os: 2, crypto: 0 },
            spread: Spread::Monoculture,
            committee: 0,
            policy: Policy::Greedy,
            fault_budget_permille: 333,
            seed: 101,
            expect_safe: false,
        },
        Scenario {
            name: "bft/zeroday-os/rr-n4".into(),
            substrate: Substrate::Bft,
            adversary: Adversary::SharedZeroDay {
                dimension: Dimension::OperatingSystem,
                product: 0,
            },
            replicas: 4,
            space: SpaceSpec { os: 2, crypto: 0 },
            spread: Spread::RoundRobin,
            committee: 0,
            policy: Policy::Greedy,
            fault_budget_permille: 333,
            seed: 102,
            expect_safe: false,
        },
        Scenario {
            name: "bft/zeroday-os/rr-n7".into(),
            substrate: Substrate::Bft,
            adversary: Adversary::SharedZeroDay {
                dimension: Dimension::OperatingSystem,
                product: 0,
            },
            replicas: 7,
            space: SpaceSpec { os: 4, crypto: 0 },
            spread: Spread::RoundRobin,
            committee: 0,
            policy: Policy::Greedy,
            fault_budget_permille: 333,
            seed: 103,
            expect_safe: true,
        },
        Scenario {
            name: "bft/zeroday-crypto/rr-n8".into(),
            substrate: Substrate::Bft,
            adversary: Adversary::SharedZeroDay {
                dimension: Dimension::CryptoLibrary,
                product: 0,
            },
            replicas: 8,
            space: SpaceSpec { os: 2, crypto: 2 },
            spread: Spread::RoundRobin,
            committee: 0,
            policy: Policy::Greedy,
            fault_budget_permille: 333,
            seed: 104,
            expect_safe: false,
        },
        Scenario {
            name: "bft/patch-window/rr-n4".into(),
            substrate: Substrate::Bft,
            adversary: Adversary::PatchWindow {
                dimension: Dimension::OperatingSystem,
                product: 0,
                patched_ms: 2_000,
                probe_ms: 20_000,
            },
            replicas: 4,
            space: SpaceSpec { os: 4, crypto: 0 },
            spread: Spread::RoundRobin,
            committee: 0,
            policy: Policy::Greedy,
            fault_budget_permille: 333,
            seed: 105,
            expect_safe: true,
        },
        Scenario {
            name: "bft/churn-rotation/rr-n8".into(),
            substrate: Substrate::Bft,
            adversary: Adversary::ChurnRotation {
                dimension: Dimension::OperatingSystem,
                product: 0,
                period_ms: 3_600_000,
                rounds: 3,
            },
            replicas: 8,
            space: SpaceSpec { os: 4, crypto: 0 },
            spread: Spread::RoundRobin,
            committee: 0,
            policy: Policy::Greedy,
            fault_budget_permille: 333,
            seed: 106,
            expect_safe: true,
        },
        // ── Nakamoto double-spend races ─────────────────────────────────────
        Scenario {
            name: "nakamoto/pool-top1".into(),
            substrate: Substrate::Nakamoto,
            adversary: Adversary::PoolCompromise { pools: 1 },
            replicas: 17,
            space: SpaceSpec { os: 8, crypto: 0 },
            spread: Spread::RoundRobin,
            committee: 0,
            policy: Policy::Greedy,
            fault_budget_permille: 500,
            seed: 201,
            expect_safe: true,
        },
        Scenario {
            name: "nakamoto/pool-top2".into(),
            substrate: Substrate::Nakamoto,
            adversary: Adversary::PoolCompromise { pools: 2 },
            replicas: 17,
            space: SpaceSpec { os: 8, crypto: 0 },
            spread: Spread::RoundRobin,
            committee: 0,
            policy: Policy::Greedy,
            fault_budget_permille: 500,
            seed: 202,
            expect_safe: false,
        },
        Scenario {
            name: "nakamoto/pool-top4".into(),
            substrate: Substrate::Nakamoto,
            adversary: Adversary::PoolCompromise { pools: 4 },
            replicas: 17,
            space: SpaceSpec { os: 8, crypto: 0 },
            spread: Spread::RoundRobin,
            committee: 0,
            policy: Policy::Greedy,
            fault_budget_permille: 500,
            seed: 203,
            expect_safe: false,
        },
        Scenario {
            name: "nakamoto/zeroday-os/rr-n12".into(),
            substrate: Substrate::Nakamoto,
            adversary: Adversary::SharedZeroDay {
                dimension: Dimension::OperatingSystem,
                product: 0,
            },
            replicas: 12,
            space: SpaceSpec { os: 4, crypto: 0 },
            spread: Spread::RoundRobin,
            committee: 0,
            policy: Policy::Greedy,
            fault_budget_permille: 500,
            seed: 204,
            expect_safe: true,
        },
        Scenario {
            name: "nakamoto/zeroday-os/mono-n8".into(),
            substrate: Substrate::Nakamoto,
            adversary: Adversary::SharedZeroDay {
                dimension: Dimension::OperatingSystem,
                product: 0,
            },
            replicas: 8,
            space: SpaceSpec { os: 4, crypto: 0 },
            spread: Spread::Monoculture,
            committee: 0,
            policy: Policy::Greedy,
            fault_budget_permille: 500,
            seed: 205,
            expect_safe: false,
        },
        Scenario {
            name: "nakamoto/patch-window/rr-n12".into(),
            substrate: Substrate::Nakamoto,
            adversary: Adversary::PatchWindow {
                dimension: Dimension::OperatingSystem,
                product: 0,
                patched_ms: 2_000,
                // Probe *inside* the window: the exploit is live, so the
                // race numbers (q = 1/4) land in the golden and any drift
                // in the pool/attack models is caught here.
                probe_ms: 1_000,
            },
            replicas: 12,
            space: SpaceSpec { os: 4, crypto: 0 },
            spread: Spread::RoundRobin,
            committee: 0,
            policy: Policy::Greedy,
            fault_budget_permille: 500,
            seed: 206,
            expect_safe: true,
        },
        // ── Committee selection ─────────────────────────────────────────────
        Scenario {
            name: "committee/zeroday-os/greedy-zipf-n32-k8".into(),
            substrate: Substrate::Committee,
            adversary: Adversary::SharedZeroDay {
                dimension: Dimension::OperatingSystem,
                product: 0,
            },
            replicas: 32,
            space: SpaceSpec { os: 4, crypto: 0 },
            spread: Spread::Zipf { s_permille: 1_200 },
            committee: 8,
            policy: Policy::Greedy,
            fault_budget_permille: 333,
            seed: 301,
            expect_safe: true,
        },
        Scenario {
            name: "committee/zeroday-os/topstake-zipf-n32-k8".into(),
            substrate: Substrate::Committee,
            adversary: Adversary::SharedZeroDay {
                dimension: Dimension::OperatingSystem,
                product: 0,
            },
            replicas: 32,
            space: SpaceSpec { os: 4, crypto: 0 },
            spread: Spread::Zipf { s_permille: 1_200 },
            committee: 8,
            policy: Policy::TopStake,
            fault_budget_permille: 333,
            seed: 301,
            expect_safe: false,
        },
        Scenario {
            name: "committee/zeroday-os/greedy-mono-n16-k4".into(),
            substrate: Substrate::Committee,
            adversary: Adversary::SharedZeroDay {
                dimension: Dimension::OperatingSystem,
                product: 0,
            },
            replicas: 16,
            space: SpaceSpec { os: 4, crypto: 0 },
            spread: Spread::Monoculture,
            committee: 4,
            policy: Policy::Greedy,
            fault_budget_permille: 333,
            seed: 302,
            expect_safe: false,
        },
        Scenario {
            name: "committee/zeroday-crypto/greedy-zipf-n64-k16".into(),
            substrate: Substrate::Committee,
            adversary: Adversary::SharedZeroDay {
                dimension: Dimension::CryptoLibrary,
                product: 0,
            },
            replicas: 64,
            space: SpaceSpec { os: 2, crypto: 2 },
            spread: Spread::Zipf { s_permille: 800 },
            committee: 16,
            policy: Policy::Greedy,
            fault_budget_permille: 333,
            seed: 303,
            expect_safe: false,
        },
        Scenario {
            name: "committee/zeroday-os/greedy-rr-n48-k12".into(),
            substrate: Substrate::Committee,
            adversary: Adversary::SharedZeroDay {
                dimension: Dimension::OperatingSystem,
                product: 0,
            },
            replicas: 48,
            space: SpaceSpec { os: 8, crypto: 0 },
            spread: Spread::RoundRobin,
            committee: 12,
            policy: Policy::Greedy,
            fault_budget_permille: 333,
            seed: 304,
            expect_safe: true,
        },
    ]
}

/// The CI smoke grid: a fast, fixed 6-scenario subset of
/// [`standard_grid`] — two scenarios per substrate.
#[must_use]
pub fn smoke_grid() -> Vec<Scenario> {
    let keep = [
        "bft/zeroday-os/rr-n4",
        "bft/zeroday-os/rr-n7",
        "nakamoto/pool-top1",
        "nakamoto/pool-top2",
        "committee/zeroday-os/greedy-zipf-n32-k8",
        "committee/zeroday-os/topstake-zipf-n32-k8",
    ];
    standard_grid()
        .into_iter()
        .filter(|s| keep.contains(&s.name.as_str()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn standard_grid_is_wide_enough() {
        let grid = standard_grid();
        assert!(grid.len() >= 12, "grid has only {} scenarios", grid.len());
        let substrates: HashSet<&str> = grid.iter().map(|s| s.substrate.label()).collect();
        assert_eq!(substrates.len(), 3, "all three substrates must appear");
        let adversaries: HashSet<&str> = grid.iter().map(|s| s.adversary.label()).collect();
        assert_eq!(adversaries.len(), 4, "all four adversary kinds must appear");
    }

    #[test]
    fn grid_names_are_unique_and_valid() {
        let grid = standard_grid();
        let names: HashSet<&str> = grid.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names.len(), grid.len(), "scenario names must be unique");
        for s in &grid {
            s.validate().unwrap();
        }
    }

    #[test]
    fn smoke_grid_is_a_subset_covering_every_substrate() {
        let full: HashSet<String> = standard_grid().into_iter().map(|s| s.name).collect();
        let smoke = smoke_grid();
        assert_eq!(smoke.len(), 6);
        let substrates: HashSet<&str> = smoke.iter().map(|s| s.substrate.label()).collect();
        assert_eq!(substrates.len(), 3);
        for s in &smoke {
            assert!(full.contains(&s.name), "{} missing from full grid", s.name);
        }
    }

    #[test]
    fn space_spec_builds_expected_sizes() {
        assert_eq!(SpaceSpec { os: 4, crypto: 0 }.build().unwrap().len(), 4);
        assert_eq!(SpaceSpec { os: 2, crypto: 3 }.build().unwrap().len(), 6);
        assert_eq!(SpaceSpec { os: 2, crypto: 3 }.len(), 6);
        assert!(!SpaceSpec { os: 1, crypto: 0 }.is_empty());
    }

    #[test]
    fn space_spec_rejects_out_of_catalog_layers_without_panicking() {
        assert!(SpaceSpec { os: 0, crypto: 0 }.build().is_err());
        assert!(SpaceSpec { os: 99, crypto: 0 }.build().is_err());
        assert!(SpaceSpec { os: 2, crypto: 99 }.build().is_err());
    }

    #[test]
    fn spreads_are_deterministic_per_seed() {
        let space = SpaceSpec { os: 4, crypto: 0 }.build().unwrap();
        for spread in [
            Spread::RoundRobin,
            Spread::Zipf { s_permille: 1_000 },
            Spread::Monoculture,
        ] {
            let a = spread.assign(&space, 12, VotingPower::new(10), 7).unwrap();
            let b = spread.assign(&space, 12, VotingPower::new(10), 7).unwrap();
            assert_eq!(a, b, "{spread:?} must be seed-deterministic");
        }
    }

    #[test]
    fn zero_day_vulnerability_matches_only_its_product() {
        let adversary = Adversary::SharedZeroDay {
            dimension: Dimension::OperatingSystem,
            product: 1,
        };
        let vuln = adversary.vulnerability().unwrap();
        let space = SpaceSpec { os: 2, crypto: 0 }.build().unwrap();
        let affected: Vec<usize> = (0..space.len())
            .filter(|&i| vuln.affects(space.get(i).unwrap()))
            .collect();
        assert_eq!(affected, vec![1]);
        assert!(
            vuln.active_at(SimTime::from_secs(1_000_000)),
            "zero-day never patches"
        );
    }

    #[test]
    fn pool_compromise_has_no_component_vulnerability() {
        assert!(Adversary::PoolCompromise { pools: 3 }
            .vulnerability()
            .is_none());
    }

    #[test]
    fn validate_rejects_misshapen_scenarios() {
        let mut s = standard_grid().remove(0);
        s.adversary = Adversary::PoolCompromise { pools: 1 };
        assert!(
            s.validate().is_err(),
            "pool compromise on BFT must be rejected"
        );

        let mut s = standard_grid().remove(0);
        s.replicas = 3;
        assert!(s.validate().is_err(), "BFT with n < 4 must be rejected");

        let mut s = standard_grid().remove(0);
        s.adversary = Adversary::SharedZeroDay {
            dimension: Dimension::CryptoLibrary,
            product: 0,
        };
        assert!(
            s.validate().is_err(),
            "crypto bug without a crypto layer must be rejected"
        );

        // Pool-compromise knobs must stay inside the pool catalog.
        let pool_scenario = |replicas: usize, pools: usize| {
            let mut s = standard_grid()
                .into_iter()
                .find(|s| s.name == "nakamoto/pool-top1")
                .unwrap();
            s.replicas = replicas;
            s.adversary = Adversary::PoolCompromise { pools };
            s
        };
        assert!(pool_scenario(18, 1).validate().is_err(), "catalog overrun");
        assert!(pool_scenario(5, 6).validate().is_err(), "pools > replicas");
        assert!(pool_scenario(5, 5).validate().is_ok());
    }
}
