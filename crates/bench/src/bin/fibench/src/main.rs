//! `fibench` — the repository's one benchmark. See `README.md` beside
//! this package for the workloads, the metric glossary and the pinned API
//! surface.
//!
//! ```text
//! fibench                                   every workload, untraced, one process each
//! fibench --workload W --seed N --seconds S --trace 0|1
//! fibench trace W [--seed N] [--seconds S]  same as --workload W --trace 1
//! fibench repeat [--sets 2] [--runs 5] [--workload W] [--seconds S] [--seed N]
//! ```
//!
//! A run prints provenance and notes, one `metric <name> <value> <unit>`
//! line per metric, and last a JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Any failed output check makes the exit code
//! non-zero.
//!
//! Every file of this package carries `#![forbid(unsafe_code)]`: the
//! workspace lint treats each file under a `src/bin/` path as a crate root.
#![forbid(unsafe_code)]

mod checks;
mod closed;
mod common;
mod durable;
mod host;
mod inputs;
mod paced;
mod repeat;
mod replay;
mod report;
mod run;
mod span;
mod stats;

use std::process::{Command, ExitCode};

use inputs::{Workload, DEFAULT_SEED};

/// Measured seconds per run when `--seconds` is not given; the value
/// `BENCHMARK.json` passes.
const DEFAULT_SECONDS: u64 = 20;

#[derive(Debug, Default)]
struct Cli {
    command: Option<String>,
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<u64>,
    traced: bool,
    sets: Option<usize>,
    runs: Option<usize>,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let mut value = |what: &str| {
            rest.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .map(String::as_str)
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                cli.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                cli.seed = Some(parse_u64(value("a number")?).ok_or("--seed needs a number")?)
            }
            "--seconds" => {
                let seconds = parse_u64(value("a number")?).filter(|&s| (1..=600).contains(&s));
                cli.seconds = Some(seconds.ok_or("--seconds needs a number from 1 to 600")?);
            }
            "--trace" => {
                cli.traced = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace needs 0 or 1, got {other}")),
                }
            }
            "--sets" => cli.sets = parse_u64(value("a number")?).map(|n| n as usize),
            "--runs" => cli.runs = parse_u64(value("a number")?).map(|n| n as usize),
            "trace" | "repeat" if cli.command.is_none() => cli.command = Some(arg.clone()),
            name if cli.command.as_deref() == Some("trace") && cli.workload.is_none() => {
                cli.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// Every workload in a process of its own, so each starts from a fresh
/// heap and reports its own peak memory.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating fibench: {e}"))?;
    let mut all_correct = true;
    for workload in Workload::ALL {
        println!("== {} ==", workload.name());
        let status = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--trace", if cli.traced { "1" } else { "0" }])
            .args(["--seed", &cli.seed.unwrap_or(DEFAULT_SEED).to_string()])
            .args([
                "--seconds",
                &cli.seconds.unwrap_or(DEFAULT_SECONDS).to_string(),
            ])
            .status()
            .map_err(|e| format!("starting the {} run: {e}", workload.name()))?;
        all_correct &= status.success();
    }
    Ok(all_correct)
}

fn dispatch(cli: &Cli) -> Result<bool, String> {
    let seed = cli.seed.unwrap_or(DEFAULT_SEED);
    let seconds = cli.seconds.unwrap_or(DEFAULT_SECONDS);
    match (cli.command.as_deref(), cli.workload) {
        (Some("repeat"), workload) => repeat::run(&repeat::Plan {
            workloads: workload.map_or(Workload::ALL.to_vec(), |w| vec![w]),
            sets: cli.sets.unwrap_or(2).max(1),
            runs: cli.runs.unwrap_or(5).max(2),
            seconds,
            seed,
        }),
        (Some("trace"), None) => Err("trace needs a workload".to_string()),
        (command, Some(workload)) => {
            let traced = cli.traced || command == Some("trace");
            let result = run::run(&run::Args {
                workload,
                seed,
                seconds,
                traced,
            });
            Ok(report::print(result, traced))
        }
        (_, None) => run_all(cli),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args).and_then(|cli| dispatch(&cli)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("fibench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_form_and_the_trace_subcommand_parse() {
        let c = cli(&[
            "--workload",
            "durable",
            "--seed",
            "0xF1EE7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(c.workload, Some(Workload::Durable));
        assert_eq!(
            (c.seed, c.seconds, c.traced),
            (Some(0xF1EE7), Some(15), true)
        );
        let t = cli(&["trace", "mixed", "--seed", "9"]).unwrap();
        assert_eq!(
            (t.command.as_deref(), t.workload, t.seed),
            (Some("trace"), Some(Workload::Mixed), Some(9))
        );
        let r = cli(&["repeat", "--sets", "2", "--runs", "5"]).unwrap();
        assert_eq!(
            (r.command.as_deref(), r.sets, r.runs),
            (Some("repeat"), Some(2), Some(5))
        );
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(cli(&["--workload", "nope"]).is_err());
        assert!(cli(&["--trace", "2"]).is_err());
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--seed"]).is_err());
        assert!(cli(&["steady"]).is_err());
    }
}
