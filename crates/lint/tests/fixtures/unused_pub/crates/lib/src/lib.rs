//! `unused-pub` fixture library: one public item per case of the rule.

#![forbid(unsafe_code)]

mod caller;
pub mod items;

pub use items::only_reexported;
