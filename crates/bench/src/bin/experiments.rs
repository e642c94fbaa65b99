//! The experiment driver: regenerates every table and figure of the paper.
//!
//! ```text
//! experiments [SUBCOMMAND] [--seed N] [--csv]
//!
//! subcommands:
//!   fig1        E1: Figure 1 (sampled points)
//!   fig1-full   E1: Figure 1 at full resolution (CSV-friendly)
//!   example1    E2: Example 1 vs uniform BFT
//!   prop1       E3: Proposition 1 sweep
//!   prop2       E4: Proposition 2 sweep
//!   prop3       E5: Proposition 3 (analytic + operational)
//!   faultinj    E6: correlated faults in PBFT
//!   pools       E7: pool compromise double spends (+ selfish baseline)
//!   committee   E8: committee-selection policies
//!   window      E9: vulnerability-window sweep
//!   ablation    E10: Byzantine-behaviour ablation
//!   recovery    E11: proactive-recovery sweep
//!   all         everything above (default)
//! ```
#![forbid(unsafe_code)]

use std::env;
use std::io::{self, Write};
use std::process::ExitCode;

use fi_bench::{
    run_ablation, run_all, run_committee, run_example1, run_faultinj, run_fig1, run_fig1_full,
    run_pools, run_prop1, run_prop2, run_prop3_analytic, run_prop3_operational, run_recovery,
    run_selfish, run_window, Table,
};

fn print_tables(tables: &[Table], csv: bool) -> io::Result<()> {
    let mut out = io::stdout();
    for t in tables {
        if csv {
            writeln!(out, "# {}", t.title)?;
            write!(out, "{}", t.to_csv())?;
        } else {
            writeln!(out, "{}", t.render())?;
        }
    }
    out.flush()
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut seed = 42u64;
    let mut csv = false;
    let mut command = String::from("all");
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--seed" => {
                let Some(value) = iter.next() else {
                    eprintln!("--seed requires a value");
                    return ExitCode::FAILURE;
                };
                match value.parse() {
                    Ok(s) => seed = s,
                    Err(e) => {
                        eprintln!("invalid seed {value:?}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--csv" => csv = true,
            "--help" | "-h" => {
                println!(
                    "usage: experiments [fig1|fig1-full|example1|prop1|prop2|prop3|faultinj|pools|committee|window|ablation|recovery|all] [--seed N] [--csv]"
                );
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') => command = other.to_string(),
            other => {
                eprintln!("unknown flag {other:?} (try --help)");
                return ExitCode::FAILURE;
            }
        }
    }

    eprintln!("(seed = {seed})");
    let tables: Vec<Table> = match command.as_str() {
        "fig1" => vec![run_fig1(1000)],
        "fig1-full" => vec![run_fig1_full(1000)],
        "example1" => vec![run_example1()],
        "prop1" => vec![run_prop1()],
        "prop2" => vec![run_prop2()],
        "prop3" => vec![run_prop3_analytic(4, 8), run_prop3_operational(3, seed)],
        "faultinj" => vec![run_faultinj(seed)],
        "pools" => vec![run_pools(seed), run_selfish(seed)],
        "committee" => vec![run_committee(seed)],
        "window" => vec![run_window(seed)],
        "ablation" => vec![run_ablation(seed)],
        "recovery" => vec![run_recovery(seed)],
        "all" => run_all(seed),
        other => {
            eprintln!("unknown experiment {other:?} (try --help)");
            return ExitCode::FAILURE;
        }
    };
    match print_tables(&tables, csv) {
        // A reader that stops early (`experiments all | head`) is not a
        // failure of the experiments.
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("writing the tables failed: {e}");
            ExitCode::FAILURE
        }
    }
}
