//! # `fi-scenarios` — an empty package, kept for one lockfile
//!
//! This crate held a second scenario engine beside `fi-bench`'s experiment
//! tables. The tables' claims are now asserted as properties in `fi-bench`,
//! and the cells no table sweeps are ported into the substrate integration
//! suites (`tests/integration_{bft_faults,nakamoto,committee}.rs`), so the
//! engine is gone.
//!
//! The package stays, with its dependencies unchanged, only because the
//! benchmark's own lockfile (`crates/bench/src/bin/fibench/Cargo.lock`)
//! lists it through `fault-independence`'s manifest. Dropping it rewrites
//! that lockfile, which only a change to the benchmark may do; it goes
//! together with the unused `serde` lines.

#![forbid(unsafe_code)]
