//! Scenario execution: one function per substrate, all deterministic per
//! seed.
//!
//! The observed verdict a run reports is *guaranteed safety*, not luck: a
//! scenario is safe iff no substrate-level violation materialised **and**
//! the compromised power stayed within the scenario's fault budget (the
//! paper's `f ≥ Σ_i f^i_t`, §II-C). A cluster whose every replica is
//! compromised produces no honest-pair fork to observe, but it is not safe.

use fi_bft::harness::{
    faults_from_vulnerability, run_cluster_with_faults, run_cluster_with_schedule, ClusterConfig,
    ScheduledFault,
};
use fi_bft::Behavior;
use fi_config::prelude::{correlated_fault_set, fault_summary};
use fi_config::{ConfigurationSpace, Vulnerability, VulnerabilityDb};
use fi_entropy::EntropyAccumulator;
use fi_nakamoto::attack::{double_spend_success_probability, monte_carlo_double_spend};
use fi_nakamoto::pool::{bitcoin_pools_2023, compromised_share, total_power};
use fi_nakamoto::{Miner, MinerStrategy, MiningSim, MiningSimConfig, Pool};
use fi_types::{PoolId, SimTime, VotingPower};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::ScenarioReport;
use crate::scenario::{Adversary, Policy, Scenario, Substrate};

/// Confirmation depth every Nakamoto race is evaluated at.
const CONFIRMATIONS: u32 = 6;
/// Monte-Carlo trials per Nakamoto scenario (fixed: part of the golden).
const MC_TRIALS: u32 = 20_000;
/// Block-discovery events per empirical mining race.
const RACE_BLOCKS: u64 = 1_200;
/// Voting power per replica in generated assignments.
const POWER_EACH: VotingPower = VotingPower::new(100);

/// Integer permille of `part` in `total` (0 for an empty total).
fn permille(part: u64, total: u64) -> u32 {
    (part * 1_000)
        .checked_div(total)
        .map_or(0, |p| u32::try_from(p).expect("permille fits u32"))
}

/// The paper's safety condition against the scenario budget, in exact
/// integer arithmetic: `part / total ≤ budget / 1000`.
fn within_budget(part: u64, total: u64, budget_permille: u32) -> bool {
    part * 1_000 <= total * u64::from(budget_permille)
}

/// Configuration indices of `space` the vulnerability compromises.
fn affected_configs(space: &ConfigurationSpace, vuln: &Vulnerability) -> Vec<usize> {
    (0..space.len())
        .filter(|&i| vuln.affects(space.get(i).expect("index in range")))
        .collect()
}

/// Shifts the scheduled faults' victim power in `acc`: removed when the
/// compromise lands, restored (`restore = true`) when the victims recover.
fn shift_fault_power(
    acc: &mut EntropyAccumulator,
    assignment: &fi_config::Assignment,
    faults: &[ScheduledFault],
    restore: bool,
) {
    for fault in faults {
        let replica = fi_types::ReplicaId::new(fault.replica as u64);
        let config = assignment.config_of(replica).expect("fault maps a replica");
        let power = assignment.power_of(replica).expect("fault maps a replica");
        if restore {
            acc.add(config, power.as_units());
        } else {
            acc.remove(config, power.as_units());
        }
    }
}

/// Runs one scenario to completion and reports. Deterministic per
/// scenario (including its seed) and independent of every other run.
///
/// # Panics
///
/// Panics if the scenario fails [`Scenario::validate`] — the campaign
/// runner validates grids up front.
#[must_use]
pub fn run_scenario(scenario: &Scenario) -> ScenarioReport {
    if let Err(reason) = scenario.validate() {
        panic!("invalid scenario: {reason}");
    }
    match scenario.substrate {
        Substrate::Bft => run_bft(scenario),
        Substrate::Nakamoto => run_nakamoto(scenario),
        Substrate::Committee => run_committee(scenario),
    }
}

// ────────────────────────────── BFT ────────────────────────────────────

fn run_bft(s: &Scenario) -> ScenarioReport {
    let space = s.space.build().expect("validated space");
    let assignment = s
        .spread
        .assign(&space, s.replicas, POWER_EACH, s.seed)
        .expect("validated replica count");
    let vuln = s
        .adversary
        .vulnerability()
        .expect("BFT adversaries are component-shaped");
    let mut db = VulnerabilityDb::new();
    db.add(vuln.clone());
    let total = assignment.total_power().as_units();

    match s.adversary {
        Adversary::SharedZeroDay { .. } => {
            let faults = faults_from_vulnerability(&assignment, &vuln, Behavior::Equivocate);
            let cluster = ClusterConfig::new(s.replicas)
                .requests(4)
                .max_time(SimTime::from_secs(10));
            let report = run_cluster_with_faults(&cluster, s.seed, &faults);

            let summary = fault_summary(&assignment, &db, SimTime::from_millis(2));
            let compromised = summary.sum_power().as_units();
            let predicted_safe = within_budget(compromised, total, s.fault_budget_permille);

            // Entropy before the compromise, and of the surviving honest
            // power after the correlated fault removes its victims.
            let mut acc = assignment.entropy_accumulator();
            let h0 = acc.entropy_bits();
            shift_fault_power(&mut acc, &assignment, &faults, false);
            let h1 = acc.entropy_bits();

            ScenarioReport {
                name: s.name.clone(),
                substrate: s.substrate,
                seed: s.seed,
                safe: report.safety.holds() && predicted_safe,
                expect_safe: s.expect_safe,
                predicted_safe,
                violations: report.safety.violations().len() as u64,
                compromised_permille: permille(compromised, total),
                entropy_trajectory: vec![h0, h1],
                notes: vec![
                    ("compromised_replicas", faults.len().to_string()),
                    ("executed", report.liveness.executed_requests.to_string()),
                    ("max_view", report.max_view.to_string()),
                    ("delivered", report.messages_delivered.to_string()),
                ],
            }
        }
        Adversary::PatchWindow {
            patched_ms,
            probe_ms,
            ..
        } => {
            // Victims fall silent at disclosure and recover when the patch
            // lands; the verdict is read at the probe, after the window.
            let faults = faults_from_vulnerability(&assignment, &vuln, Behavior::Silent);
            let recoveries: Vec<(SimTime, usize)> = faults
                .iter()
                .map(|f| (SimTime::from_millis(patched_ms), f.replica))
                .collect();
            let cluster = ClusterConfig::new(s.replicas)
                .requests(5)
                .max_time(SimTime::from_millis(probe_ms));
            let report = run_cluster_with_schedule(&cluster, s.seed, &faults, &recoveries);

            let in_window = fault_summary(&assignment, &db, SimTime::from_millis(2));
            let window_units = in_window.sum_power().as_units();
            // At the probe the vulnerability is patched: exposure is gone.
            let at_probe = fault_summary(&assignment, &db, SimTime::from_millis(probe_ms));
            let probe_units = at_probe.sum_power().as_units();
            let predicted_safe = within_budget(probe_units, total, s.fault_budget_permille);

            let mut acc = assignment.entropy_accumulator();
            let h0 = acc.entropy_bits();
            shift_fault_power(&mut acc, &assignment, &faults, false);
            let h_window = acc.entropy_bits();
            shift_fault_power(&mut acc, &assignment, &faults, true);
            let h_after = acc.entropy_bits();

            ScenarioReport {
                name: s.name.clone(),
                substrate: s.substrate,
                seed: s.seed,
                safe: report.safety.holds() && report.liveness.all_executed() && predicted_safe,
                expect_safe: s.expect_safe,
                predicted_safe,
                violations: report.safety.violations().len() as u64,
                compromised_permille: permille(probe_units, total),
                entropy_trajectory: vec![h0, h_window, h_after],
                notes: vec![
                    ("window_permille", permille(window_units, total).to_string()),
                    ("executed", report.liveness.executed_requests.to_string()),
                    ("max_view", report.max_view.to_string()),
                ],
            }
        }
        Adversary::ChurnRotation {
            period_ms, rounds, ..
        } => {
            // The zero-day stays live while every replica rotates one
            // configuration per round. Entropy is tracked incrementally
            // (rotation is measure-preserving); the correlated fault set is
            // re-derived per round and the worst round is also replayed
            // operationally.
            let k = space.len();
            let mut rotated = assignment.clone();
            let mut acc = assignment.entropy_accumulator();
            let mut trajectory = vec![acc.entropy_bits()];
            let mut worst_units = 0u64;
            let mut rounds_over_budget = 0u64;
            let mut worst_round_faults =
                faults_from_vulnerability(&rotated, &vuln, Behavior::Equivocate);
            {
                let t0 = correlated_fault_set(&rotated, &vuln, SimTime::from_millis(2));
                worst_units = worst_units.max(t0.power().as_units());
                if !within_budget(t0.power().as_units(), total, s.fault_budget_permille) {
                    rounds_over_budget += 1;
                }
            }
            for round in 1..=u64::from(rounds) {
                let moves: Vec<(fi_types::ReplicaId, usize, usize, u64)> = rotated
                    .entries()
                    .iter()
                    .map(|e| (e.replica, e.config, (e.config + 1) % k, e.power.as_units()))
                    .collect();
                for (replica, from, to, units) in moves {
                    acc.apply_move(from, to, units);
                    rotated
                        .reassign(replica, to)
                        .expect("rotation stays in space");
                }
                trajectory.push(acc.entropy_bits());

                let at = SimTime::from_millis(period_ms.saturating_mul(round));
                let fault = correlated_fault_set(&rotated, &vuln, at.max(SimTime::from_millis(2)));
                let units = fault.power().as_units();
                if units > worst_units {
                    worst_units = units;
                    worst_round_faults =
                        faults_from_vulnerability(&rotated, &vuln, Behavior::Equivocate);
                }
                if !within_budget(units, total, s.fault_budget_permille) {
                    rounds_over_budget += 1;
                }
            }

            let cluster = ClusterConfig::new(s.replicas)
                .requests(4)
                .max_time(SimTime::from_secs(10));
            let report = run_cluster_with_faults(&cluster, s.seed, &worst_round_faults);
            let predicted_safe = rounds_over_budget == 0;

            ScenarioReport {
                name: s.name.clone(),
                substrate: s.substrate,
                seed: s.seed,
                safe: report.safety.holds() && predicted_safe,
                expect_safe: s.expect_safe,
                predicted_safe,
                violations: rounds_over_budget + report.safety.violations().len() as u64,
                compromised_permille: permille(worst_units, total),
                entropy_trajectory: trajectory,
                notes: vec![
                    ("rounds", rounds.to_string()),
                    ("executed", report.liveness.executed_requests.to_string()),
                ],
            }
        }
        Adversary::PoolCompromise { .. } => unreachable!("rejected by Scenario::validate"),
    }
}

// ──────────────────────────── Nakamoto ─────────────────────────────────

/// The pool population a Nakamoto scenario races over, plus the indices of
/// the pools the adversary captures.
fn nakamoto_population(s: &Scenario) -> (Vec<Pool>, Vec<usize>) {
    match s.adversary {
        Adversary::PoolCompromise { pools: captured } => {
            // The `replicas` knob is live here too: the population is the
            // top `replicas` pools of the 2023 Bitcoin catalog (validate
            // caps it at the catalog size).
            let mut pools = bitcoin_pools_2023();
            pools.truncate(s.replicas);
            let captured = captured.min(pools.len());
            (pools, (0..captured).collect())
        }
        Adversary::SharedZeroDay { .. } | Adversary::PatchWindow { .. } => {
            let space = s.space.build().expect("validated space");
            let assignment = s
                .spread
                .assign(&space, s.replicas, POWER_EACH, s.seed)
                .expect("validated replica count");
            let vuln = s.adversary.vulnerability().expect("component-shaped");
            let probe = match s.adversary {
                Adversary::PatchWindow { probe_ms, .. } => SimTime::from_millis(probe_ms),
                _ => SimTime::from_millis(2),
            };
            let configs = if vuln.active_at(probe) {
                affected_configs(&space, &vuln)
            } else {
                Vec::new()
            };
            let pools: Vec<Pool> = assignment
                .entries()
                .iter()
                .enumerate()
                .map(|(i, e)| {
                    Pool::new(
                        PoolId::new(e.replica.as_u64()),
                        format!("pool-{i}"),
                        e.power,
                        e.config,
                    )
                })
                .collect();
            let captured: Vec<usize> = pools
                .iter()
                .enumerate()
                .filter(|(_, p)| configs.contains(&p.config()))
                .map(|(i, _)| i)
                .collect();
            (pools, captured)
        }
        Adversary::ChurnRotation { .. } => unreachable!("rejected by Scenario::validate"),
    }
}

fn run_nakamoto(s: &Scenario) -> ScenarioReport {
    let (pools, captured_idx) = nakamoto_population(s);
    let total = total_power(&pools);
    let captured_configs: Vec<usize> = captured_idx.iter().map(|&i| pools[i].config()).collect();
    let q = compromised_share(&pools, &captured_configs, total);
    let captured_units: u64 = captured_idx
        .iter()
        .map(|&i| pools[i].power().as_units())
        .sum();

    let analytic = double_spend_success_probability(q, CONFIRMATIONS);
    let empirical = monte_carlo_double_spend(q, CONFIRMATIONS, MC_TRIALS, s.seed);

    // Empirical history-rewrite race: the captured power mines a private
    // branch against every surviving honest pool.
    let mut miners: Vec<Miner> = pools
        .iter()
        .enumerate()
        .filter(|(i, _)| !captured_idx.contains(i))
        .enumerate()
        .map(|(dense, (_, p))| Miner::new(dense, p.power()))
        .collect();
    let attacker_ahead = if captured_units > 0 {
        let mut attacker = Miner::new(miners.len(), VotingPower::new(captured_units));
        attacker.set_strategy(MinerStrategy::PrivateBranch);
        miners.push(attacker);
        let config = MiningSimConfig {
            block_interval: SimTime::from_secs(600),
            propagation_delay: SimTime::ZERO,
            blocks: RACE_BLOCKS,
        };
        MiningSim::new(miners, config, s.seed).run().attacker_ahead
    } else {
        false
    };

    // Pool-level entropy, then the captured pools collapse into one
    // adversary bucket.
    let mut acc = EntropyAccumulator::new(pools.len());
    for (i, p) in pools.iter().enumerate() {
        acc.add(i, p.power().as_units());
    }
    let h0 = acc.entropy_bits();
    if let Some(&target) = captured_idx.first() {
        for &i in &captured_idx {
            if i != target {
                acc.apply_move(i, target, acc.weight(i));
            }
        }
    }
    let h1 = acc.entropy_bits();

    let predicted_safe = within_budget(captured_units, total.as_units(), s.fault_budget_permille);
    ScenarioReport {
        name: s.name.clone(),
        substrate: s.substrate,
        seed: s.seed,
        safe: predicted_safe && !attacker_ahead,
        expect_safe: s.expect_safe,
        predicted_safe,
        violations: u64::from(attacker_ahead),
        compromised_permille: permille(captured_units, total.as_units()),
        entropy_trajectory: vec![h0, h1],
        notes: vec![
            ("q", format!("{q:.4}")),
            ("analytic_z6", format!("{analytic:.6}")),
            ("monte_carlo_z6", format!("{empirical:.6}")),
            ("captured_pools", captured_idx.len().to_string()),
        ],
    }
}

// ──────────────────────────── Committee ────────────────────────────────

fn run_committee(s: &Scenario) -> ScenarioReport {
    let space = s.space.build().expect("validated space");
    let assignment = s
        .spread
        .assign(&space, s.replicas, POWER_EACH, s.seed)
        .expect("validated replica count");
    // Skewed stake drawn from an independent stream so the spread's own
    // sampling stays untouched.
    let mut stake_rng = StdRng::seed_from_u64(s.seed ^ 0x9E37_79B9_7F4A_7C15);
    let candidates: Vec<fi_committee::Candidate> = assignment
        .entries()
        .iter()
        .map(|e| {
            fi_committee::Candidate::new(
                e.replica,
                VotingPower::new(stake_rng.gen_range(10u64..1_000)),
                e.config,
                true,
            )
        })
        .collect();

    let committee = match s.policy {
        Policy::Greedy => fi_committee::greedy_diverse(&candidates, s.committee),
        Policy::TopStake => fi_committee::top_stake(&candidates, s.committee),
    };
    let baseline = match s.policy {
        Policy::Greedy => fi_committee::top_stake(&candidates, s.committee),
        Policy::TopStake => fi_committee::greedy_diverse(&candidates, s.committee),
    };

    let vuln = s.adversary.vulnerability().expect("component-shaped");
    let captured_configs = affected_configs(&space, &vuln);

    let committee_total = committee.total_power().as_units();
    let committee_captured: u64 = committee
        .members()
        .iter()
        .filter(|m| captured_configs.contains(&m.config()))
        .map(|m| m.power().as_units())
        .sum();
    let captured_members = committee
        .members()
        .iter()
        .filter(|m| captured_configs.contains(&m.config()))
        .count() as u64;

    // Pre-selection exposure: what the adversary holds in the raw candidate
    // pool — the verdict had no selection policy intervened.
    let pool_total: u64 = candidates.iter().map(|c| c.power().as_units()).sum();
    let pool_captured: u64 = candidates
        .iter()
        .filter(|c| captured_configs.contains(&c.config()))
        .map(|c| c.power().as_units())
        .sum();
    let predicted_safe = within_budget(pool_captured, pool_total, s.fault_budget_permille);

    // Entropy trajectory: committee configuration entropy after each member
    // joins, in selection order.
    let mut acc = EntropyAccumulator::new(space.len());
    let mut trajectory = Vec::with_capacity(committee.len());
    for m in committee.members() {
        acc.add(m.config(), m.power().as_units());
        trajectory.push(acc.entropy_bits());
    }

    let safe = within_budget(committee_captured, committee_total, s.fault_budget_permille);
    ScenarioReport {
        name: s.name.clone(),
        substrate: s.substrate,
        seed: s.seed,
        safe,
        expect_safe: s.expect_safe,
        predicted_safe,
        violations: captured_members,
        compromised_permille: permille(committee_captured, committee_total),
        entropy_trajectory: trajectory,
        notes: vec![
            ("policy", s.policy.label().to_string()),
            (
                "committee_entropy",
                format!("{:.4}", committee.entropy_bits()),
            ),
            (
                "baseline_entropy",
                format!("{:.4}", baseline.entropy_bits()),
            ),
            (
                "worst_config_share",
                format!("{:.4}", committee.worst_config_share()),
            ),
            (
                "pool_permille",
                permille(pool_captured, pool_total).to_string(),
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{smoke_grid, standard_grid, Dimension, SpaceSpec};

    #[test]
    fn permille_is_exact_integer_arithmetic() {
        assert_eq!(permille(1, 3), 333);
        assert_eq!(permille(1, 2), 500);
        assert_eq!(permille(0, 7), 0);
        assert_eq!(permille(7, 7), 1_000);
        assert_eq!(permille(5, 0), 0);
    }

    #[test]
    fn budget_check_is_inclusive() {
        assert!(within_budget(1, 3, 334));
        assert!(!within_budget(1, 2, 333));
        assert!(within_budget(2, 6, 334));
        assert!(within_budget(0, 0, 0));
    }

    #[test]
    fn affected_configs_follow_the_dimension() {
        let space = SpaceSpec { os: 2, crypto: 2 }.build().unwrap();
        let os_bug = Adversary::SharedZeroDay {
            dimension: Dimension::OperatingSystem,
            product: 0,
        }
        .vulnerability()
        .unwrap();
        assert_eq!(affected_configs(&space, &os_bug).len(), 2);
        let crypto_bug = Adversary::SharedZeroDay {
            dimension: Dimension::CryptoLibrary,
            product: 1,
        }
        .vulnerability()
        .unwrap();
        assert_eq!(affected_configs(&space, &crypto_bug).len(), 2);
    }

    #[test]
    fn scenario_runs_are_deterministic() {
        for scenario in smoke_grid() {
            let a = run_scenario(&scenario);
            let b = run_scenario(&scenario);
            assert_eq!(a, b, "{} must be run-to-run deterministic", scenario.name);
        }
    }

    #[test]
    fn bft_zero_day_below_f_is_safe_and_above_f_is_not() {
        let grid = standard_grid();
        let below = grid
            .iter()
            .find(|s| s.name == "bft/zeroday-os/rr-n7")
            .unwrap();
        let report = run_scenario(below);
        assert!(report.safe, "{report:?}");
        assert_eq!(report.violations, 0);
        let above = grid
            .iter()
            .find(|s| s.name == "bft/zeroday-os/rr-n4")
            .unwrap();
        let report = run_scenario(above);
        assert!(!report.safe, "{report:?}");
        assert!(!report.predicted_safe);
    }

    #[test]
    fn bft_entropy_trajectory_drops_when_victims_leave() {
        let grid = standard_grid();
        let s = grid
            .iter()
            .find(|s| s.name == "bft/zeroday-os/rr-n7")
            .unwrap();
        let report = run_scenario(s);
        assert_eq!(report.entropy_trajectory.len(), 2);
        assert!(
            report.entropy_trajectory[1] < report.entropy_trajectory[0],
            "removing one configuration's power must lower entropy: {report:?}"
        );
    }

    #[test]
    fn bft_patch_window_recovers() {
        let grid = standard_grid();
        let s = grid
            .iter()
            .find(|s| s.name == "bft/patch-window/rr-n4")
            .unwrap();
        let report = run_scenario(s);
        assert!(report.safe, "{report:?}");
        assert_eq!(report.entropy_trajectory.len(), 3);
        // Recovery restores the original entropy exactly (integer weights).
        assert_eq!(
            report.entropy_trajectory[0].to_bits(),
            report.entropy_trajectory[2].to_bits()
        );
    }

    #[test]
    fn bft_churn_rotation_preserves_entropy() {
        let grid = standard_grid();
        let s = grid
            .iter()
            .find(|s| s.name == "bft/churn-rotation/rr-n8")
            .unwrap();
        let report = run_scenario(s);
        assert!(report.safe, "{report:?}");
        assert_eq!(report.entropy_trajectory.len(), 4, "initial + 3 rounds");
        let h0 = report.entropy_trajectory[0];
        for h in &report.entropy_trajectory {
            assert!((h - h0).abs() < 1e-9, "rotation must preserve entropy");
        }
    }

    #[test]
    fn nakamoto_majority_capture_is_violated() {
        let grid = standard_grid();
        let s = grid
            .iter()
            .find(|s| s.name == "nakamoto/pool-top2")
            .unwrap();
        let report = run_scenario(s);
        assert!(!report.safe, "{report:?}");
        assert!(report.compromised_permille > 500);
        let s = grid
            .iter()
            .find(|s| s.name == "nakamoto/pool-top1")
            .unwrap();
        let report = run_scenario(s);
        assert!(report.safe, "{report:?}");
        assert!(report.compromised_permille < 500);
        // Merging pools can only lower pool-level entropy.
        assert!(report.entropy_trajectory[1] <= report.entropy_trajectory[0]);
    }

    #[test]
    fn committee_greedy_beats_top_stake_under_zipf_skew() {
        let grid = standard_grid();
        let greedy = grid
            .iter()
            .find(|s| s.name == "committee/zeroday-os/greedy-zipf-n32-k8")
            .unwrap();
        let top = grid
            .iter()
            .find(|s| s.name == "committee/zeroday-os/topstake-zipf-n32-k8")
            .unwrap();
        let greedy_report = run_scenario(greedy);
        let top_report = run_scenario(top);
        assert!(greedy_report.safe, "{greedy_report:?}");
        assert!(!top_report.safe, "{top_report:?}");
        assert!(
            greedy_report.compromised_permille < top_report.compromised_permille,
            "greedy {} vs top-stake {}",
            greedy_report.compromised_permille,
            top_report.compromised_permille
        );
        assert_eq!(greedy_report.entropy_trajectory.len(), 8);
    }

    #[test]
    fn committee_monoculture_cannot_be_saved_by_selection() {
        let grid = standard_grid();
        let s = grid
            .iter()
            .find(|s| s.name == "committee/zeroday-os/greedy-mono-n16-k4")
            .unwrap();
        let report = run_scenario(s);
        assert!(!report.safe);
        assert_eq!(report.compromised_permille, 1_000);
        assert_eq!(report.violations, 4, "every member is compromised");
    }
}
