//! # `fi-bench` — experiment runners for every table and figure
//!
//! Each public `run_*` function regenerates one of the paper's experiments
//! (E1–E11; `src/bin/experiments.rs` indexes them, the README's workspace
//! layout names the binary) and returns a [`Table`] that the `experiments`
//! binary prints (and can dump as CSV). Criterion benches in `benches/` measure
//! the *costs* (entropy computation, attestation, consensus messages,
//! selection) on the same code paths.
//!
//! Everything is seeded and deterministic; tables carry their parameters in
//! their titles, so a table quoted anywhere says what produced it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

use fault_independence::prelude::*;
use fi_attest::TwoTierWeights;
use fi_bft::harness::{faults_from_vulnerability, run_cluster, ClusterConfig, ScheduledFault};
use fi_bft::Behavior;
use fi_committee::prelude::*;
use fi_config::window::PatchRollout;
use fi_entropy::propositions::{check_proposition1, check_proposition2, proposition3_tradeoff};
use fi_entropy::renyi::min_entropy_bits;
use fi_entropy::shannon::effective_configurations;
use fi_entropy::{bitcoin, AbundanceVector};
use fi_nakamoto::attack::{
    confirmations_for_security, double_spend_success_probability, monte_carlo_double_spend,
    selfish_mining,
};
use fi_nakamoto::pool::{bitcoin_pools_2023, compromised_share, dedelegate};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A printable experiment result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Experiment id and parameters.
    pub title: String,
    /// Column names.
    pub header: Vec<String>,
    /// Data rows (stringified).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    fn new(title: impl Into<String>, header: &[&str]) -> Table {
        Table {
            title: title.into(),
            header: header.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    fn push(&mut self, row: Vec<String>) {
        debug_assert_eq!(row.len(), self.header.len());
        self.rows.push(row);
    }

    /// Renders as an aligned text table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {}", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Renders as CSV.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| {
            if cell.contains(',') || cell.contains('"') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.header
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

fn f3(x: f64) -> String {
    format!("{x:.3}")
}

fn f6(x: f64) -> String {
    format!("{x:.6}")
}

// ---------------------------------------------------------------------
// E1: Figure 1
// ---------------------------------------------------------------------

/// E1 / Figure 1: best-case entropy of Bitcoin replica diversity as the
/// residual power spreads over `1..=max_x` miners, with the BFT comparison
/// line.
///
/// # Panics
///
/// Panics only if `max_x == 0`.
#[must_use]
pub fn run_fig1(max_x: usize) -> Table {
    let curve = bitcoin::figure1_curve(max_x).expect("max_x >= 1");
    let mut t = Table::new(
        format!(
            "E1 / Figure 1: Bitcoin best-case entropy, x = 1..={max_x} (BFT-8 line = 3.000 bits)"
        ),
        &["x", "total_miners", "entropy_bits", "below_bft8"],
    );
    let samples = [1, 2, 5, 10, 20, 50, 101, 200, 300, 500, 700, 1000];
    for pt in curve
        .iter()
        .filter(|p| samples.contains(&p.x) && p.x <= max_x)
    {
        t.push(vec![
            pt.x.to_string(),
            pt.total_miners.to_string(),
            f3(pt.entropy_bits),
            (pt.entropy_bits < 3.0).to_string(),
        ]);
    }
    t
}

/// The full Figure-1 curve (all points), for CSV export / plotting.
#[must_use]
pub fn run_fig1_full(max_x: usize) -> Table {
    let curve = bitcoin::figure1_curve(max_x).expect("max_x >= 1");
    let mut t = Table::new(
        format!("E1 / Figure 1 (full resolution), x = 1..={max_x}"),
        &["x", "total_miners", "entropy_bits"],
    );
    for pt in curve {
        t.push(vec![
            pt.x.to_string(),
            pt.total_miners.to_string(),
            f6(pt.entropy_bits),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E2: Example 1
// ---------------------------------------------------------------------

/// E2 / Example 1: diversity metrics of the 2023-02-02 pool distribution
/// against uniform BFT systems of various sizes, including the
/// decentralization metrics practitioners quote (Nakamoto coefficient,
/// Gini).
#[must_use]
pub fn run_example1() -> Table {
    use fi_entropy::metrics::{gini_coefficient, nakamoto_coefficient};
    let mut t = Table::new(
        "E2 / Example 1: 17-pool oligopoly vs uniform BFT",
        &[
            "system",
            "replicas",
            "entropy",
            "min_entropy",
            "effective_configs",
            "nakamoto@50%",
            "gini",
        ],
    );
    let mut row = |name: String, n: usize, d: &fi_entropy::Distribution| {
        t.push(vec![
            name,
            n.to_string(),
            f3(d.shannon_entropy()),
            f3(min_entropy_bits(d)),
            f3(effective_configurations(d)),
            nakamoto_coefficient(d, 0.5)
                .expect("valid threshold")
                .map_or("-".into(), |k| k.to_string()),
            f3(gini_coefficient(d)),
        ]);
    };
    let pools = bitcoin::example1_distribution();
    row("bitcoin top-17 pools".into(), 17, &pools);
    for n in [4usize, 8, 16, 32, 64] {
        let u = fi_entropy::Distribution::uniform(n).expect("n > 0");
        row(format!("uniform BFT n={n}"), n, &u);
    }
    t
}

// ---------------------------------------------------------------------
// E3: Proposition 1
// ---------------------------------------------------------------------

/// E3 / Proposition 1: entropy after abundance increases on κ-optimal
/// systems — skewed increases decrease entropy, proportional ones do not.
#[must_use]
pub fn run_prop1() -> Table {
    let mut t = Table::new(
        "E3 / Proposition 1: abundance increase on kappa-optimal systems",
        &[
            "kappa",
            "omega",
            "increase",
            "H_before",
            "H_after",
            "relative_unchanged",
            "holds",
        ],
    );
    for &(kappa, omega) in &[(4usize, 1u64), (8, 2), (17, 4)] {
        let base = AbundanceVector::uniform(kappa, omega).expect("kappa > 0");
        // Skewed: all growth on configuration 0.
        let mut skew = vec![0u64; kappa];
        skew[0] = 5 * omega;
        let out = check_proposition1(&base, &skew).expect("premise holds");
        t.push(vec![
            kappa.to_string(),
            omega.to_string(),
            "skewed(+5w@c0)".into(),
            f3(out.entropy_before),
            f3(out.entropy_after),
            out.relative_unchanged.to_string(),
            out.holds.to_string(),
        ]);
        // Proportional: double everything.
        let prop = vec![omega; kappa];
        let out = check_proposition1(&base, &prop).expect("premise holds");
        t.push(vec![
            kappa.to_string(),
            omega.to_string(),
            "proportional(x2)".into(),
            f3(out.entropy_before),
            f3(out.entropy_after),
            out.relative_unchanged.to_string(),
            out.holds.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E4: Proposition 2
// ---------------------------------------------------------------------

/// E4 / Proposition 2: adding unique-configuration replicas to the Bitcoin
/// head — entropy gain vs the uniform bound.
#[must_use]
pub fn run_prop2() -> Table {
    let base: Vec<f64> = bitcoin::top17_units().iter().map(|&u| u as f64).collect();
    let mut t = Table::new(
        "E4 / Proposition 2: more unique-config replicas on the Bitcoin head",
        &[
            "added",
            "H_after",
            "log2(n)",
            "gain",
            "head_limited_bound",
            "holds",
        ],
    );
    for &x in &[0usize, 1, 10, 100, 1000] {
        let dust: Vec<f64> = if x == 0 {
            vec![]
        } else {
            fi_types::VotingPower::new(bitcoin::residual_units())
                .split_even(x)
                .iter()
                .map(|p| p.as_units() as f64)
                .collect()
        };
        let out = check_proposition2(&base, &dust).expect("valid weights");
        t.push(vec![
            x.to_string(),
            f3(out.entropy_after),
            f3(out.uniform_bound),
            f3(out.entropy_gain),
            f3(out.head_limited_bound),
            out.holds.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E5: Proposition 3
// ---------------------------------------------------------------------

/// E5 / Proposition 3 (analytic side): abundance ω vs malicious-operator
/// share, vulnerability share, and message cost.
#[must_use]
pub fn run_prop3_analytic(kappa: usize, max_omega: u64) -> Table {
    let rows = proposition3_tradeoff(kappa, max_omega).expect("valid parameters");
    let mut t = Table::new(
        format!("E5a / Proposition 3 (analytic): kappa = {kappa}"),
        &[
            "omega",
            "replicas",
            "operator_share",
            "vuln_share",
            "msgs_per_round",
        ],
    );
    for r in rows {
        t.push(vec![
            r.omega.to_string(),
            r.replicas.to_string(),
            f6(r.operator_share),
            f6(r.vulnerability_share),
            r.messages_per_round.to_string(),
        ]);
    }
    t
}

/// E5 / Proposition 3 (operational side): PBFT clusters at κ = 4 and
/// ω ∈ 1..=max_omega — a single malicious operator is always absorbed,
/// while measured messages grow quadratically.
#[must_use]
pub fn run_prop3_operational(max_omega: u64, seed: u64) -> Table {
    let mut t = Table::new(
        "E5b / Proposition 3 (operational, kappa = 4): one malicious operator vs omega",
        &[
            "omega",
            "n",
            "f",
            "safety",
            "liveness",
            "messages",
            "msgs_per_request",
        ],
    );
    for omega in 1..=max_omega {
        let n = 4 * omega as usize;
        let requests = 6u64;
        let config = ClusterConfig::new(n)
            .requests(requests)
            .max_time(SimTime::from_secs(30));
        let faults = vec![ScheduledFault {
            at: SimTime::from_millis(1),
            replica: 1 % n,
            behavior: Behavior::Equivocate,
        }];
        let report = run_cluster(&config, seed + omega, &faults);
        t.push(vec![
            omega.to_string(),
            n.to_string(),
            config.quorum().f_power().as_units().to_string(),
            if report.safety.holds() {
                "held"
            } else {
                "VIOLATED"
            }
            .into(),
            format!(
                "{}/{}",
                report.liveness.executed_requests, report.liveness.expected_requests
            ),
            report.messages_sent.to_string(),
            f3(report.messages_sent as f64 / requests as f64),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E6: correlated fault injection into PBFT
// ---------------------------------------------------------------------

/// E6 / §II-C: the safety condition `f ≥ Σ f^i_t`, predicted by the
/// analyzer and observed on the running cluster, as the number of replicas
/// sharing the vulnerable OS grows.
#[must_use]
pub fn run_faultinj(seed: u64) -> Table {
    let n = 8usize;
    let (space, vuln) = faultinj_catalogue();

    let mut t = Table::new(
        format!("E6 / fault injection: n = {n}, one OS vulnerability, sharing swept"),
        &[
            "sharing",
            "compromised",
            "f",
            "predicted_safe",
            "observed_safety",
            "observed_liveness",
            "max_view",
        ],
    );
    for sharing in 1..=5usize {
        let assignment = faultinj_population(&space, n, sharing);
        let mut db = VulnerabilityDb::new();
        db.add(vuln.clone());
        let prediction =
            ResilienceAnalyzer::new(assignment.clone(), db).analyze_at(SimTime::from_secs(1));

        let faults = faults_from_vulnerability(&assignment, &vuln, Behavior::Equivocate);
        let config = ClusterConfig::for_assignment(&assignment)
            .requests(6)
            .max_time(SimTime::from_secs(20));
        let report = run_cluster(&config, seed + sharing as u64, &faults);
        t.push(vec![
            format!("{sharing}/{n}"),
            prediction.sum_compromised.to_string(),
            prediction.f_bound.to_string(),
            prediction.safety_condition_holds.to_string(),
            if report.safety.holds() {
                "held"
            } else {
                "VIOLATED"
            }
            .into(),
            format!(
                "{}/{}",
                report.liveness.executed_requests, report.liveness.expected_requests
            ),
            report.max_view.to_string(),
        ]);
    }
    t
}

/// E6's catalogue, the eight OSes, and its one OS zero-day.
fn faultinj_catalogue() -> (ConfigurationSpace, Vulnerability) {
    let space =
        ConfigurationSpace::cartesian(&[catalog::operating_systems()]).expect("catalog space");
    let os = &catalog::operating_systems()[0];
    let vuln = Vulnerability::new(
        VulnId::new(0),
        "os-zero-day",
        ComponentSelector::product(os.kind(), os.name()),
    )
    .with_window(SimTime::from_millis(1), SimTime::from_secs(3600));
    (space, vuln)
}

/// E6's population for one row: `n` replicas of 100 units, `sharing` of
/// them on the vulnerable OS, the rest diversified.
fn faultinj_population(space: &ConfigurationSpace, n: usize, sharing: usize) -> Assignment {
    let entries = (0..n)
        .map(|i| fi_config::generator::AssignmentEntry {
            replica: ReplicaId::new(i as u64),
            config: if i < sharing { 0 } else { 1 + (i % 7) },
            power: VotingPower::new(100),
        })
        .collect();
    Assignment::new(space.clone(), entries).expect("valid assignment")
}

// ---------------------------------------------------------------------
// E7: pool compromise and double spends
// ---------------------------------------------------------------------

/// E7 / §III delegation: double-spend success when one vulnerability hits
/// pool software, with the Monte-Carlo cross-check and the de-delegated
/// counterfactual.
#[must_use]
pub fn run_pools(seed: u64) -> Table {
    let pools = bitcoin_pools_2023();
    let network = VotingPower::new(100_000);
    let mut t = Table::new(
        "E7 / pool compromise: double-spend success at z = 6 (network share from Example 1)",
        &[
            "scenario",
            "share",
            "P_analytic",
            "P_monte_carlo",
            "z_for_0.1%",
        ],
    );
    let scenarios: Vec<(String, Vec<usize>)> = vec![
        ("pool #17 (smallest)".into(), vec![16]),
        ("pool #5 (viabtc)".into(), vec![4]),
        ("pool #1 (foundry)".into(), vec![0]),
        ("top-2 pools".into(), vec![0, 1]),
        ("top-3 pools".into(), vec![0, 1, 2]),
    ];
    for (name, configs) in scenarios {
        let q = compromised_share(&pools, &configs, network);
        let analytic = double_spend_success_probability(q, 6);
        let mc = monte_carlo_double_spend(q, 6, 20_000, seed);
        let z = confirmations_for_security(q, 1e-3).map_or("never".to_string(), |z| z.to_string());
        t.push(vec![name, f6(q), f6(analytic), f6(mc), z]);
    }
    // De-delegated counterfactual.
    let solo = dedelegate(&pools, 10, 1_000);
    let worst = solo
        .iter()
        .map(|p| compromised_share(&solo, &[p.config()], network))
        .fold(0.0, f64::max);
    t.push(vec![
        "de-delegated (10 members/pool), worst stack".into(),
        f6(worst),
        f6(double_spend_success_probability(worst, 6)),
        f6(monte_carlo_double_spend(worst, 6, 20_000, seed)),
        confirmations_for_security(worst, 1e-3).map_or("never".to_string(), |z| z.to_string()),
    ]);
    t
}

/// E7b / selfish-mining baseline (Eyal–Sirer): relative revenue vs α.
#[must_use]
pub fn run_selfish(seed: u64) -> Table {
    let mut t = Table::new(
        "E7b / selfish mining baseline (gamma = 0, 200k blocks)",
        &["alpha", "relative_revenue", "fair_share", "profitable"],
    );
    for &alpha in &[0.10, 0.20, 0.30, 1.0 / 3.0, 0.40, 0.45] {
        let out = selfish_mining(alpha, 0.0, 200_000, seed);
        t.push(vec![
            f3(alpha),
            f3(out.relative_revenue()),
            f3(alpha),
            out.profitable().to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E8: committee selection
// ---------------------------------------------------------------------

/// E8 / §V: committee policies compared on entropy, worst-configuration
/// share (tier-blind), the share one configuration's fault reaches
/// (unattested power counted against every configuration), attested share,
/// and whether the committee survives a fault in any one configuration by
/// the quorum rule's `f`.
#[must_use]
pub fn run_committee(seed: u64) -> Table {
    let candidates = e8_pool();
    let k = 16;
    let mut t = Table::new(
        format!("E8 / committee selection: k = {k} of 60 power-law candidates"),
        &[
            "policy",
            "entropy_bits",
            "worst_config_share",
            "worst_fault_share",
            "attested_share",
            "total_power",
            "tolerates_one_config",
        ],
    );
    let mut describe = |name: &str, committee: &Committee| {
        t.push(vec![
            name.into(),
            f3(committee.entropy_bits()),
            f3(committee.worst_config_share()),
            f3(committee.worst_fault_share()),
            f3(committee.attested_share()),
            committee.total_power().to_string(),
            committee.tolerates_one_config().to_string(),
        ]);
    };
    describe("top-stake", &top_stake(&candidates, k));
    let mut rng = StdRng::seed_from_u64(seed);
    describe(
        "stake sortition",
        &two_tier_weighted(&candidates, k, TwoTierWeights::flat(), &mut rng),
    );
    describe("greedy diverse", &greedy_diverse(&candidates, k));
    // The pool's configurations 0..=7 are already a roster's dense slots.
    let tolerant = PrunedRoster::from_dense(8, &candidates).select_tolerant(k);
    describe("greedy tolerant", &tolerant.expect("E8's pool holds one"));
    let mut rng = StdRng::seed_from_u64(seed);
    describe(
        "two-tier 1.0/0.3",
        &two_tier_weighted(&candidates, k, TwoTierWeights::new(1.0, 0.3), &mut rng),
    );
    t
}

/// E8's pool: 60 candidates, power-law stake, half of it on configurations
/// 0 and 1, a third unattested.
fn e8_pool() -> Vec<Candidate> {
    (0..60u64)
        .map(|i| {
            let power = VotingPower::new(5_000 / (i + 1));
            let config = match i {
                0..=14 => 0,
                15..=29 => 1,
                _ => 2 + (i as usize % 6),
            };
            Candidate::new(ReplicaId::new(i), power, config, i % 3 != 0)
        })
        .collect()
}

// ---------------------------------------------------------------------
// E9: vulnerability windows
// ---------------------------------------------------------------------

/// E9 / §I vulnerability windows: peak exposed power vs patch-adoption
/// latency for a diversified 12-replica fleet with three staggered CVEs.
#[must_use]
pub fn run_window(seed: u64) -> Table {
    let space = ConfigurationSpace::cartesian(&[
        catalog::operating_systems()[..4].to_vec(),
        catalog::crypto_libraries()[..3].to_vec(),
    ])
    .expect("catalog space");
    let assignment =
        Assignment::round_robin(&space, 12, VotingPower::new(100)).expect("valid assignment");
    let os = &catalog::operating_systems()[0];
    let crypto = &catalog::crypto_libraries()[1];
    let mut db = VulnerabilityDb::new();
    db.add(
        Vulnerability::new(
            VulnId::new(0),
            "os-cve",
            ComponentSelector::product(os.kind(), os.name()),
        )
        .with_window(SimTime::from_secs(100), SimTime::from_secs(400)),
    )
    .add(
        Vulnerability::new(
            VulnId::new(1),
            "crypto-cve",
            ComponentSelector::product(crypto.kind(), crypto.name()),
        )
        .with_window(SimTime::from_secs(250), SimTime::from_secs(600)),
    )
    .add(
        Vulnerability::new(
            VulnId::new(2),
            "wallet-cve",
            ComponentSelector::layer(fi_config::ComponentKind::KeyManagement),
        )
        .with_window(SimTime::from_secs(500), SimTime::from_secs(700)),
    );
    let analyzer = ResilienceAnalyzer::new(assignment.clone(), db.clone());
    const STEP_SECS: u64 = 10;
    let times: Vec<SimTime> = (0..600)
        .map(|i| SimTime::from_secs(i * STEP_SECS))
        .collect();

    let mut t = Table::new(
        "E9 / vulnerability windows: exposure vs patch-adoption latency (total power 1200u)",
        &[
            "adoption_latency_s",
            "jitter_s",
            "peak_exposed_power",
            "peak_share",
            "exposed_seconds",
            "power_seconds",
        ],
    );
    for &(latency, jitter) in &[(0u64, 0u64), (60, 0), (300, 120), (900, 300), (3600, 1800)] {
        let rollout = PatchRollout::new(
            SimTime::from_secs(latency),
            SimTime::from_secs(jitter),
            seed,
        );
        let curve = analyzer.exposure_curve(&rollout, &times);
        let peak = curve.iter().copied().max().unwrap_or(VotingPower::ZERO);
        let exposed_seconds: u64 = curve.iter().filter(|p| !p.is_zero()).count() as u64 * STEP_SECS;
        let power_seconds: u64 = curve.iter().map(|p| p.as_units() * STEP_SECS).sum();
        t.push(vec![
            latency.to_string(),
            jitter.to_string(),
            peak.to_string(),
            f3(peak.share_of(assignment.total_power())),
            exposed_seconds.to_string(),
            power_seconds.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E10: behaviour ablation
// ---------------------------------------------------------------------

/// E10 / ablation: the same fault *mass* (2 of 4 replicas, > f = 1) under
/// each Byzantine behaviour — which repertoires cost safety, which cost
/// liveness.
#[must_use]
pub fn run_ablation(seed: u64) -> Table {
    let mut t = Table::new(
        "E10 / behaviour ablation: 2 of 4 replicas compromised (f = 1), per behaviour",
        &["behavior", "safety", "liveness", "max_view", "messages"],
    );
    let behaviors = [
        ("crashed", Behavior::Crashed),
        ("silent", Behavior::Silent),
        ("equivocate", Behavior::Equivocate),
        ("withhold-commit", Behavior::WithholdCommit),
    ];
    for (name, behavior) in behaviors {
        let faults: Vec<ScheduledFault> = (0..2)
            .map(|i| ScheduledFault {
                at: SimTime::ZERO,
                replica: i,
                behavior,
            })
            .collect();
        let config = ClusterConfig::new(4)
            .requests(5)
            .max_time(SimTime::from_secs(10));
        let report = run_cluster(&config, seed, &faults);
        t.push(vec![
            name.into(),
            if report.safety.holds() {
                "held"
            } else {
                "VIOLATED"
            }
            .into(),
            format!(
                "{}/{}",
                report.liveness.executed_requests, report.liveness.expected_requests
            ),
            report.max_view.to_string(),
            report.messages_sent.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E11: proactive recovery
// ---------------------------------------------------------------------

/// E11 / §III-A proactive recovery: 2 of 4 replicas (> f) go silent; they
/// are recovered after a sweep of delays. Recovery inside the workload
/// horizon restores liveness — the mitigation the paper points at for
/// limited trusted-hardware diversity.
#[must_use]
pub fn run_recovery(seed: u64) -> Table {
    let mut t = Table::new(
        "E11 / proactive recovery: 2 of 4 silent (> f = 1), recovered after a delay",
        &["recovery_delay_s", "requests_done", "safety"],
    );
    let config = ClusterConfig::new(4)
        .requests(6)
        .max_time(SimTime::from_secs(15));
    for &delay_s in &[1u64, 3, 8, 1_000] {
        // Both compromises, then both recoveries.
        let faults: Vec<ScheduledFault> = [
            (SimTime::from_millis(1), Behavior::Silent),
            (SimTime::from_secs(delay_s), Behavior::Honest),
        ]
        .iter()
        .flat_map(|&(at, behavior)| {
            [1usize, 2].map(|replica| ScheduledFault {
                at,
                replica,
                behavior,
            })
        })
        .collect();
        let report = run_cluster(&config, seed + delay_s, &faults);
        t.push(vec![
            delay_s.to_string(),
            format!(
                "{}/{}",
                report.liveness.executed_requests, report.liveness.expected_requests
            ),
            if report.safety.holds() {
                "held"
            } else {
                "VIOLATED"
            }
            .into(),
        ]);
    }
    t
}

/// Runs every experiment in order (the `all` subcommand).
#[must_use]
pub fn run_all(seed: u64) -> Vec<Table> {
    vec![
        run_fig1(1000),
        run_example1(),
        run_prop1(),
        run_prop2(),
        run_prop3_analytic(4, 8),
        run_prop3_operational(3, seed),
        run_faultinj(seed),
        run_pools(seed),
        run_selfish(seed),
        run_committee(seed),
        run_window(seed),
        run_ablation(seed),
        run_recovery(seed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_table_shape_matches_paper() {
        let t = run_fig1(1000);
        assert_eq!(t.header.len(), 4);
        assert!(t.rows.len() >= 10);
        // Every sampled point is below the BFT-8 line.
        assert!(t.rows.iter().all(|r| r[3] == "true"));
    }

    #[test]
    fn example1_table_orders_systems() {
        let t = run_example1();
        assert_eq!(t.rows.len(), 6);
        // Bitcoin's entropy below the 8-replica BFT row.
        let bitcoin_h: f64 = t.rows[0][2].parse().unwrap();
        let bft8_h: f64 = t.rows[2][2].parse().unwrap();
        assert!(bitcoin_h < bft8_h);
    }

    #[test]
    fn prop_tables_hold() {
        assert!(run_prop1().rows.iter().all(|r| r.last().unwrap() == "true"));
        assert!(run_prop2().rows.iter().all(|r| r.last().unwrap() == "true"));
    }

    // Each table's claim as a property over its rendered cells, so a
    // change that keeps the bytes of one seed but breaks the claim at
    // another, or edits a cell the claim rests on, fails by name.

    /// Seeds every seeded table is checked at: the golden's (7), the
    /// binary's default (42), and two more.
    const SEEDS: [u64; 4] = [7, 42, 1, 2];

    /// Monte Carlo trials behind E7's `P_monte_carlo` column.
    const E7_TRIALS: f64 = 20_000.0;

    type Claim = Result<(), String>;

    fn column(t: &Table, name: &str) -> usize {
        t.header
            .iter()
            .position(|h| h == name)
            .unwrap_or_else(|| panic!("{}: no column {name}", t.title))
    }

    /// A numeric cell: `0.272304`, `600u` (power units) or `6/6` (the
    /// numerator of a done/expected pair).
    fn num(cell: &str) -> f64 {
        let cell = cell.split('/').next().unwrap_or(cell);
        cell.trim_end_matches('u')
            .parse()
            .unwrap_or_else(|e| panic!("cell {cell:?}: {e}"))
    }

    fn check(ok: bool, t: &Table, row: &[String], claim: &str) -> Claim {
        if ok {
            Ok(())
        } else {
            Err(format!("{}: row {row:?} breaks {claim:?}", t.title))
        }
    }

    fn row<'t>(t: &'t Table, key: &str) -> &'t [String] {
        t.rows
            .iter()
            .find(|r| r[0] == key)
            .unwrap_or_else(|| panic!("{}: no row {key:?}", t.title))
    }

    /// `t` with one cell, in the row keyed `key` and column `name`, set to
    /// `value`.
    fn edited(t: &Table, key: &str, name: &str, value: &str) -> Table {
        let mut t = t.clone();
        let col = column(&t, name);
        let row = t.rows.iter_mut().find(|r| r[0] == key).unwrap();
        row[col] = value.into();
        t
    }

    /// E4: unique-configuration replicas never gain more entropy than the
    /// head-limited bound of Proposition 2.
    fn e4_gain_within_head_limited_bound(t: &Table) -> Claim {
        let (gain, bound) = (column(t, "gain"), column(t, "head_limited_bound"));
        t.rows
            .iter()
            .try_for_each(|r| check(num(&r[gain]) <= num(&r[bound]), t, r, "gain <= bound"))
    }

    /// E6: `f ≥ Σ_i f^i_t` is sufficient for safety — a predicted-safe
    /// row never forks — but not necessary: 3 of 8 exceed `f` and hold.
    fn e6_prediction_is_sufficient(t: &Table) -> Claim {
        let (predicted, observed) = (column(t, "predicted_safe"), column(t, "observed_safety"));
        for r in &t.rows {
            let safe = r[predicted] == "true";
            check(
                !safe || r[observed] == "held",
                t,
                r,
                "predicted_safe => held",
            )?;
        }
        let r = row(t, "3/8");
        check(
            r[predicted] == "false" && r[observed] == "held",
            t,
            r,
            "3/8: predicted unsafe, held",
        )
    }

    /// E6 through the sealed path: each row's population, sealed in a
    /// fleet, gives the row's `compromised`, `f` and `predicted_safe`
    /// cells as `ResilienceReport::from_snapshot`.
    fn e6_sealed_verdict_gives_the_cells(t: &Table) -> Claim {
        let (space, vuln) = faultinj_catalogue();
        let db = VulnerabilityDb::from_iter([vuln]);
        let cols = ["compromised", "f", "predicted_safe"].map(|name| column(t, name));
        for r in &t.rows {
            let (sharing, n) = r[0].split_once('/').expect("sharing/n");
            let population = faultinj_population(&space, num(n) as usize, num(sharing) as usize);
            let ops: Vec<ChurnOp> = population
                .entries()
                .iter()
                .map(|e| {
                    let m = space.get(e.config).unwrap().measurement();
                    ChurnOp::attest(e.replica, m, e.power)
                })
                .collect();
            let fleet = ShardedFleet::new(2, TwoTierWeights::new(1.0, 0.5));
            fleet.try_ingest_batch(&ops).unwrap();
            let snapshot = fleet.try_seal_epoch().unwrap();
            let v = ResilienceReport::from_snapshot(&snapshot, &space, &db, SimTime::from_secs(1));
            let sealed = [
                v.sum_compromised.to_string(),
                v.f_bound.to_string(),
                v.safety_condition_holds.to_string(),
            ];
            let same = cols.iter().zip(&sealed).all(|(&c, cell)| r[c] == *cell);
            check(
                same,
                t,
                r,
                "sealed verdict = compromised, f, predicted_safe",
            )?;
        }
        Ok(())
    }

    /// E7: Monte Carlo lands within four binomial standard errors of the
    /// analytic probability (plus 1e-6 for the six-decimal rendering); a
    /// share above ½ always wins, so no depth suffices.
    fn e7_monte_carlo_matches_analytic(t: &Table) -> Claim {
        let (share, analytic, mc, depth) = (
            column(t, "share"),
            column(t, "P_analytic"),
            column(t, "P_monte_carlo"),
            column(t, "z_for_0.1%"),
        );
        for r in &t.rows {
            let p = num(&r[analytic]);
            let tolerance = 4.0 * (p * (1.0 - p) / E7_TRIALS).sqrt() + 1e-6;
            check((num(&r[mc]) - p).abs() <= tolerance, t, r, "MC within 4σ")?;
            let majority = num(&r[share]) > 0.5;
            let never = p == 1.0 && r[depth] == "never";
            let finite = r[depth].parse::<u32>().is_ok();
            check(
                if majority { never } else { finite },
                t,
                r,
                "share > 1/2 <=> P = 1, never",
            )?;
        }
        Ok(())
    }

    /// E8: greedy diverse selection has the highest entropy and the lowest
    /// worst-configuration share of every policy that does not repair its
    /// committee for tolerance.
    fn e8_greedy_is_most_diverse(t: &Table) -> Claim {
        let (h, worst) = (column(t, "entropy_bits"), column(t, "worst_config_share"));
        let greedy = row(t, "greedy diverse");
        t.rows
            .iter()
            .filter(|r| r[0] != greedy[0] && r[0] != "greedy tolerant")
            .try_for_each(|r| {
                check(
                    num(&greedy[h]) > num(&r[h]) && num(&greedy[worst]) < num(&r[worst]),
                    t,
                    r,
                    "below greedy diverse",
                )
            })
    }

    /// E8: the tolerant committee tolerates, and every row's verdict is
    /// its fault share's: a committee tolerates exactly when the power one
    /// configuration's fault reaches is within the quorum rule's `f` of its
    /// total. The share is rendered at three decimals, and rendering is
    /// monotone, so a correct verdict reads `true` only at or below
    /// `f/total` rendered alike, and `false` only at or above
    /// `(f + 1)/total`.
    fn e8_tolerant_row_tolerates(t: &Table) -> Claim {
        let (fault, total, verdict) = (
            column(t, "worst_fault_share"),
            column(t, "total_power"),
            column(t, "tolerates_one_config"),
        );
        let tolerant = row(t, "greedy tolerant");
        check(tolerant[verdict] == "true", t, tolerant, "tolerates")?;
        t.rows.iter().try_for_each(|r| {
            let units = num(&r[total]);
            let f = fi_types::WeightedQuorum::for_total(VotingPower::new(units as u64))
                .map_or(0.0, |q| q.f_power().as_units() as f64);
            let share = num(&r[fault]);
            let agrees = if r[verdict] == "true" {
                share <= num(&f3(f / units))
            } else {
                share >= num(&f3((f + 1.0) / units))
            };
            check(agrees, t, r, "tolerates iff the fault is within f")
        })
    }

    /// E9: exposure never falls as patch adoption slows.
    fn e9_exposure_grows_with_latency(t: &Table) -> Claim {
        let cols = [
            column(t, "adoption_latency_s"),
            column(t, "exposed_seconds"),
            column(t, "power_seconds"),
        ];
        t.rows.windows(2).try_for_each(|w| {
            let rising = cols.iter().all(|&c| num(&w[0][c]) <= num(&w[1][c]));
            check(rising, t, &w[1], "latency and exposure never fall")
        })
    }

    /// E10: of the four behaviours, equivocation alone costs safety.
    fn e10_only_equivocation_violates(t: &Table) -> Claim {
        let safety = column(t, "safety");
        let violating: Vec<&str> = t
            .rows
            .iter()
            .filter(|r| r[safety] == "VIOLATED")
            .map(|r| r[0].as_str())
            .collect();
        if violating == ["equivocate"] {
            Ok(())
        } else {
            Err(format!("{}: VIOLATED by {violating:?}", t.title))
        }
    }

    /// E11: silence never costs safety, and a later recovery never gets
    /// more requests done.
    fn e11_recovery_is_safe_and_late_costs_liveness(t: &Table) -> Claim {
        let (done, safety) = (column(t, "requests_done"), column(t, "safety"));
        t.rows
            .iter()
            .try_for_each(|r| check(r[safety] == "held", t, r, "held"))?;
        t.rows.windows(2).try_for_each(|w| {
            check(
                num(&w[1][done]) <= num(&w[0][done]),
                t,
                &w[1],
                "done never rises",
            )
        })
    }

    #[test]
    fn table_claims_hold_at_every_seed() {
        e4_gain_within_head_limited_bound(&run_prop2()).unwrap();
        for seed in SEEDS {
            e6_prediction_is_sufficient(&run_faultinj(seed)).unwrap();
            e7_monte_carlo_matches_analytic(&run_pools(seed)).unwrap();
            e8_greedy_is_most_diverse(&run_committee(seed)).unwrap();
            e8_tolerant_row_tolerates(&run_committee(seed)).unwrap();
            e9_exposure_grows_with_latency(&run_window(seed)).unwrap();
            e10_only_equivocation_violates(&run_ablation(seed)).unwrap();
            e11_recovery_is_safe_and_late_costs_liveness(&run_recovery(seed)).unwrap();
        }
    }

    #[test]
    fn e4_rejects_a_gain_above_its_bound() {
        let t = run_prop2();
        assert!(e4_gain_within_head_limited_bound(&edited(&t, "1000", "gain", "0.133")).is_err());
    }

    #[test]
    fn e6_rejects_a_predicted_safe_fork_and_a_3_of_8_fork() {
        let t = run_faultinj(7);
        let forked = edited(&t, "2/8", "observed_safety", "VIOLATED");
        assert!(e6_prediction_is_sufficient(&forked).is_err());
        let forked = edited(&t, "3/8", "observed_safety", "VIOLATED");
        assert!(e6_prediction_is_sufficient(&forked).is_err());
    }

    #[test]
    fn e6_sealed_verdict_gives_each_row_at_every_seed() {
        for seed in SEEDS {
            e6_sealed_verdict_gives_the_cells(&run_faultinj(seed)).unwrap();
        }
    }

    #[test]
    fn e6_sealed_verdict_rejects_an_edited_cell() {
        let t = run_faultinj(7);
        for (name, value) in [
            ("compromised", "300u"),
            ("f", "267u"),
            ("predicted_safe", "false"),
        ] {
            let edited = edited(&t, "2/8", name, value);
            assert!(
                e6_sealed_verdict_gives_the_cells(&edited).is_err(),
                "{name}"
            );
        }
    }

    #[test]
    fn e7_rejects_a_drifted_estimate_and_a_finite_majority_depth() {
        let t = run_pools(7);
        let drifted = edited(&t, "pool #1 (foundry)", "P_monte_carlo", "0.300000");
        assert!(e7_monte_carlo_matches_analytic(&drifted).is_err());
        let finite = edited(&t, "top-2 pools", "z_for_0.1%", "52");
        assert!(e7_monte_carlo_matches_analytic(&finite).is_err());
    }

    #[test]
    fn e8_rejects_a_policy_more_diverse_than_greedy() {
        let t = edited(
            &run_committee(7),
            "stake sortition",
            "entropy_bits",
            "1.900",
        );
        assert!(e8_greedy_is_most_diverse(&t).is_err());
    }

    #[test]
    fn e8_rejects_an_intolerant_tolerant_row_and_a_verdict_off_its_share() {
        let t = run_committee(7);
        let edited_verdict = edited(&t, "greedy tolerant", "tolerates_one_config", "false");
        assert!(e8_tolerant_row_tolerates(&edited_verdict).is_err());
        let edited_share = edited(&t, "greedy tolerant", "worst_fault_share", "0.400");
        assert!(e8_tolerant_row_tolerates(&edited_share).is_err());
        let intolerant = edited(&t, "greedy diverse", "tolerates_one_config", "true");
        assert!(e8_tolerant_row_tolerates(&intolerant).is_err());
    }

    /// E8's tolerant committee, run as a PBFT cluster at its members'
    /// powers (renumbered in selection order), keeps its safety when each
    /// attested configuration in turn equivocates together with every
    /// unattested member, whose claimed configuration no catalogue checks:
    /// the faults the tolerance rule counts, at six seeds. The converse is
    /// not claimed.
    #[test]
    fn e8_tolerant_committee_survives_each_configuration_with_the_unattested() {
        let committee = PrunedRoster::from_dense(8, e8_pool().iter())
            .select_tolerant(16)
            .unwrap();
        let members = committee.members();
        let space =
            ConfigurationSpace::cartesian(&[catalog::operating_systems()]).expect("catalog space");
        let entries = members
            .iter()
            .enumerate()
            .map(|(i, m)| fi_config::generator::AssignmentEntry {
                replica: ReplicaId::new(i as u64),
                config: m.config(),
                power: m.power(),
            })
            .collect();
        let assignment = Assignment::new(space, entries).expect("valid assignment");
        let config = ClusterConfig::for_assignment(&assignment)
            .requests(6)
            .max_time(SimTime::from_secs(20));
        let f = fi_types::WeightedQuorum::for_total(committee.total_power())
            .expect("a quorum")
            .f_power();
        let mut attested: Vec<usize> = members
            .iter()
            .filter(|m| m.attested())
            .map(Candidate::config)
            .collect();
        attested.sort_unstable();
        attested.dedup();
        assert!(members.iter().any(|m| !m.attested()), "{members:?}");
        for c in attested {
            let faulty = |m: &Candidate| !m.attested() || m.config() == c;
            let hit: VotingPower = members
                .iter()
                .filter(|m| faulty(m))
                .map(|m| m.power())
                .sum();
            assert!(
                hit <= f,
                "config {c} and the unattested hold {hit} > f = {f}"
            );
            let faults: Vec<ScheduledFault> = (0..members.len())
                .filter(|&i| faulty(&members[i]))
                .map(|replica| ScheduledFault {
                    at: SimTime::from_millis(1),
                    replica,
                    behavior: Behavior::Equivocate,
                })
                .collect();
            for seed in [1, 2, 3, 4, 5, 7] {
                let report = run_cluster(&config, seed, &faults);
                assert!(
                    report.safety.holds(),
                    "config {c}, seed {seed}: {:?}",
                    report.safety
                );
            }
        }
    }

    #[test]
    fn e9_rejects_exposure_that_falls_with_latency() {
        let t = edited(&run_window(7), "300", "power_seconds", "200000");
        assert!(e9_exposure_grows_with_latency(&t).is_err());
    }

    #[test]
    fn e10_rejects_a_second_violating_behaviour() {
        let t = edited(&run_ablation(7), "withhold-commit", "safety", "VIOLATED");
        assert!(e10_only_equivocation_violates(&t).is_err());
    }

    #[test]
    fn e11_rejects_liveness_that_rises_with_the_delay() {
        let t = edited(&run_recovery(7), "1", "requests_done", "0/6");
        assert!(e11_recovery_is_safe_and_late_costs_liveness(&t).is_err());
    }

    #[test]
    fn prop3_analytic_monotone() {
        let t = run_prop3_analytic(4, 4);
        let shares: Vec<f64> = t.rows.iter().map(|r| r[2].parse().unwrap()).collect();
        assert!(shares.windows(2).all(|w| w[1] < w[0]));
    }

    #[test]
    fn render_and_csv_are_nonempty() {
        let t = run_example1();
        assert!(t.render().contains("E2"));
        let csv = t.to_csv();
        assert!(csv.lines().count() == t.rows.len() + 1);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new("x", &["a"]);
        t.push(vec!["hello, world".into()]);
        assert!(t.to_csv().contains("\"hello, world\""));
    }
}
