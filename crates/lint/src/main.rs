//! fi-lint CLI: lint the workspace, print findings, and exit non-zero when
//! the tree is dirty.
//!
//! ```text
//! fi-lint [--root <dir>]
//! ```
//!
//! Exit codes: `0` clean, `1` findings, `2` configuration/IO error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage("--root needs a value"),
            },
            "--help" | "-h" => {
                println!("usage: fi-lint [--root <dir>]");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    // Default root: the workspace this binary was built from, so
    // `cargo run -p fi-lint` just works from anywhere in the tree.
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..")
    });

    let report = match fi_lint::run_lint(&root) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("fi-lint: error: {err}");
            return ExitCode::from(2);
        }
    };
    print!("{}", report.to_text());
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("fi-lint: error: {msg}");
    eprintln!("usage: fi-lint [--root <dir>]");
    ExitCode::from(2)
}
