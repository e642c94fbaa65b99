//! A root example: read for the names it uses, and no rule runs on it.

fn main() {
    lib::items::for_example();
}
