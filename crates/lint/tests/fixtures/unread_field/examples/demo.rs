//! A root example: read for the fields it reads, and no rule runs on it.

fn main() {}

fn show(r: &lib::fields::Report) -> u32 {
    r.for_example
}
