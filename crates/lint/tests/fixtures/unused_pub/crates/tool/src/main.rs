//! A binary: it names library items, and its own `pub fn` is not library
//! code.

#![forbid(unsafe_code)]

fn main() {
    lib::items::for_bin();
    helper();
}

pub fn helper() {}
