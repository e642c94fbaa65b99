//! Human-readable rendering of reports.

use core::fmt;

use crate::analyzer::ResilienceReport;
use crate::monitor::DiversityReport;

impl fmt::Display for DiversityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "diversity report")?;
        writeln!(f, "  replicas:                 {}", self.replicas)?;
        writeln!(f, "  configurations (kappa):   {}", self.kappa)?;
        writeln!(
            f,
            "  effective power:          {}",
            self.total_effective_power
        )?;
        writeln!(
            f,
            "  shannon entropy:          {:.4} bits",
            self.entropy_bits
        )?;
        writeln!(
            f,
            "  min-entropy:              {:.4} bits",
            self.min_entropy_bits
        )?;
        writeln!(
            f,
            "  effective configurations: {:.2}",
            self.effective_configurations
        )?;
        writeln!(f, "  evenness:                 {:.4}", self.evenness)?;
        writeln!(
            f,
            "  kappa-optimal (Def. 1):   {}",
            if self.kappa_optimal { "yes" } else { "no" }
        )?;
        writeln!(
            f,
            "  entropy deficit:          {:.4} bits",
            self.entropy_deficit_bits
        )?;
        write!(
            f,
            "  worst config share:       {:.2}%",
            self.worst_configuration_share * 100.0
        )
    }
}

impl fmt::Display for ResilienceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "resilience report at {}", self.at)?;
        writeln!(f, "  total power n_t:          {}", self.total_power)?;
        writeln!(
            f,
            "  active vulnerabilities:   {}",
            self.active_vulnerabilities
        )?;
        writeln!(f, "  sum compromised (Σf^i_t): {}", self.sum_compromised)?;
        writeln!(f, "  union compromised:        {}", self.union_compromised)?;
        writeln!(
            f,
            "  worst single vuln:        {}",
            self.worst_single_vulnerability
        )?;
        writeln!(
            f,
            "  compromised share:        {:.2}%",
            self.compromised_share * 100.0
        )?;
        writeln!(f, "  f bound (⌊(n−1)/3⌋):      {}", self.f_bound)?;
        write!(
            f,
            "  safety f ≥ Σ f^i_t:       {}",
            if self.safety_condition_holds {
                "HOLDS"
            } else {
                "VIOLATED"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fi_types::{SimTime, VotingPower};

    #[test]
    fn diversity_report_renders() {
        let report = DiversityReport {
            replicas: 4,
            total_effective_power: VotingPower::new(400),
            entropy_bits: 2.0,
            min_entropy_bits: 2.0,
            effective_configurations: 4.0,
            evenness: 1.0,
            kappa: 4,
            kappa_optimal: true,
            entropy_deficit_bits: 0.0,
            worst_configuration_share: 0.25,
        };
        let s = report.to_string();
        assert!(s.contains("2.0000 bits"));
        assert!(s.contains("kappa-optimal (Def. 1):   yes"));
        assert!(s.contains("25.00%"));
    }

    #[test]
    fn resilience_report_renders_verdict() {
        let mut report = ResilienceReport {
            at: SimTime::from_secs(5),
            total_power: VotingPower::new(800),
            active_vulnerabilities: 1,
            sum_compromised: VotingPower::new(200),
            union_compromised: VotingPower::new(200),
            worst_single_vulnerability: VotingPower::new(200),
            compromised_share: 0.25,
            f_bound: VotingPower::new(266),
            safety_condition_holds: true,
        };
        assert!(report.to_string().contains("HOLDS"));
        report.safety_condition_holds = false;
        assert!(report.to_string().contains("VIOLATED"));
    }
}
