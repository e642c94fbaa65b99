//! A bench: read for the fields it reads, and no rule runs on it.

fn main() {}

fn bench(r: &lib::fields::Report) -> u32 {
    r.for_bench
}
