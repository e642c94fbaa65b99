//! `fibench repeat`: runs every workload several times in sets, prints
//! each end-to-end metric's median, quartiles and relative spread per
//! set, derives the regression bound the spread supports, and fails when
//! a spread is wider than any bound may be or two sets of the same code
//! disagree by more than the bound.
#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::process::Command;

use crate::inputs::Workload;
use crate::report::END_TO_END;
use crate::stats::quartiles;

/// No bound is set tighter than this, however steady the metric.
const MIN_BOUND: f64 = 0.10;
/// No bound may be wider than this. A metric whose spread is wider
/// cannot be an end-to-end metric: it is reported per layer instead.
const MAX_BOUND: f64 = 0.25;

#[derive(Debug, Clone)]
pub struct Plan {
    pub workloads: Vec<Workload>,
    pub sets: usize,
    pub runs: usize,
    pub seconds: u64,
    pub seed: u64,
}

/// The `metric <name> <value> <unit>` lines of one run's output.
fn parse_metrics(stdout: &str) -> BTreeMap<String, f64> {
    stdout
        .lines()
        .filter_map(|line| {
            let mut fields = line.strip_prefix("metric ")?.split_whitespace();
            Some((fields.next()?.to_string(), fields.next()?.parse().ok()?))
        })
        .collect()
}

fn one_run(workload: Workload, seed: u64, seconds: u64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating fibench: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload.name(), "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| format!("starting a {} run: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{} seed {seed} exited with {}:\n{stdout}",
            workload.name(),
            out.status
        ));
    }
    Ok(parse_metrics(&stdout))
}

/// Quartiles and spread of one set of values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetStats {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl SetStats {
    pub fn of(values: &[f64]) -> Option<SetStats> {
        quartiles(values).map(|(q1, median, q3)| SetStats { q1, median, q3 })
    }

    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs().max(f64::MIN_POSITIVE)
    }
}

/// The widest inter-quartile spread among the sets.
pub fn widest_spread(sets: &[SetStats]) -> f64 {
    sets.iter().map(SetStats::spread).fold(0.0, f64::max)
}

/// The bound a metric's sets support: twice the widest spread seen, kept
/// between [`MIN_BOUND`] and [`MAX_BOUND`].
pub fn derived_bound(sets: &[SetStats]) -> f64 {
    (2.0 * widest_spread(sets)).clamp(MIN_BOUND, MAX_BOUND)
}

/// The largest relative distance between any set's median and the first.
pub fn median_drift(sets: &[SetStats]) -> f64 {
    let Some(first) = sets.first() else {
        return 0.0;
    };
    sets.iter()
        .map(|s| (s.median - first.median).abs() / first.median.abs().max(f64::MIN_POSITIVE))
        .fold(0.0, f64::max)
}

/// Runs the plan and prints the table. `Ok(false)` when a metric other
/// than `setup_s` spread wider than [`MAX_BOUND`] (set-up is repeated
/// only three times a run and is held to its medians alone), or two
/// sets' medians differed by more than the derived bound.
pub fn run(plan: &Plan) -> Result<bool, String> {
    let mut agreed = true;
    println!("| workload | metric | set | q1 | median | q3 | spread | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for &workload in &plan.workloads {
        // values[metric][set] = that set's runs.
        let mut values: BTreeMap<String, Vec<Vec<f64>>> = BTreeMap::new();
        for set in 0..plan.sets {
            for run in 0..plan.runs {
                let seed = plan.seed + (set * plan.runs + run) as u64;
                let metrics = one_run(workload, seed, plan.seconds)?;
                eprintln!(
                    "{} set {set} run {run} seed {seed:#x} done",
                    workload.name()
                );
                for (name, value) in metrics {
                    let sets = values
                        .entry(name)
                        .or_insert_with(|| vec![Vec::new(); plan.sets]);
                    sets[set].push(value);
                }
            }
        }
        for &(name, _) in END_TO_END {
            let sets: Vec<SetStats> = values
                .get(name)
                .map(|sets| sets.iter().filter_map(|v| SetStats::of(v)).collect())
                .unwrap_or_default();
            if sets.len() != plan.sets {
                return Err(format!(
                    "{}: {name} was not reported by every run",
                    workload.name()
                ));
            }
            let bound = derived_bound(&sets);
            let drift = median_drift(&sets);
            let verdict = if name != "setup_s" && widest_spread(&sets) > MAX_BOUND {
                agreed = false;
                "DEMOTE: spread above 0.25".to_string()
            } else if drift > bound {
                agreed = false;
                format!("FAIL: medians differ by {drift:.3}")
            } else {
                format!("ok: medians differ by {drift:.3}")
            };
            for (i, s) in sets.iter().enumerate() {
                println!(
                    "| {} | {name} | {i} | {:.4} | {:.4} | {:.4} | {:.4} | {bound:.3} | {verdict} |",
                    workload.name(),
                    s.q1,
                    s.median,
                    s.q3,
                    s.spread()
                );
            }
        }
    }
    Ok(agreed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lines_are_parsed_and_other_lines_ignored() {
        let out = "# note\nmetric setup_s 1.25 s\nmetric a.b 3 count\nFAILED CHECK: x\n{\"correct\": true}\n";
        let parsed = parse_metrics(out);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed["setup_s"], 1.25);
        assert_eq!(parsed["a.b"], 3.0);
    }

    #[test]
    fn the_bound_is_twice_the_widest_spread_but_at_least_a_tenth() {
        let tight = SetStats::of(&[100.0, 101.0, 102.0, 103.0, 104.0]).unwrap();
        assert!(tight.spread() < 0.05);
        assert_eq!(derived_bound(&[tight]), MIN_BOUND);
        let loose = SetStats::of(&[80.0, 90.0, 100.0, 110.0, 120.0]).unwrap();
        assert_eq!(loose.spread(), 0.3);
        assert_eq!(widest_spread(&[tight, loose]), 0.3);
        assert_eq!(derived_bound(&[tight, loose]), MAX_BOUND);
        let middling = SetStats::of(&[94.0, 97.0, 100.0, 103.0, 106.0]).unwrap();
        assert!((derived_bound(&[tight, middling]) - 0.18).abs() < 1e-12);
    }

    #[test]
    fn drift_is_measured_against_the_first_set() {
        let a = SetStats {
            q1: 9.0,
            median: 10.0,
            q3: 11.0,
        };
        let b = SetStats {
            q1: 11.0,
            median: 12.0,
            q3: 13.0,
        };
        assert!((median_drift(&[a, b]) - 0.2).abs() < 1e-12);
        assert_eq!(median_drift(&[a]), 0.0);
    }
}
