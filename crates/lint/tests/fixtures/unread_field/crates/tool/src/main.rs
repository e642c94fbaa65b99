//! A binary: it reads library fields, and its own struct is not library
//! code.

#![forbid(unsafe_code)]

struct Args {
    verbose: bool,
}

fn main() {}

fn show(r: &lib::fields::Report) -> u32 {
    r.for_bin
}
