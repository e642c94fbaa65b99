//! `unread-field` fixture library: one struct field per case of the rule.

#![forbid(unsafe_code)]

mod caller;
pub mod fields;
