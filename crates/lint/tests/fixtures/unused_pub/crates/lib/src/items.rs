//! The library's public items, each named, or not, from somewhere else.

/// Called from `caller.rs`: used.
pub fn used_elsewhere() -> u32 {
    1
}

/// Read by `caller.rs`: used.
pub const USED_CONST: u32 = 2;

/// Named by nothing: a finding.
pub fn never_named() {}

/// Read by nothing: a finding.
pub const UNUSED_CONST: u32 = 3;

/// Called only in this file: a finding, since only other files count.
pub fn self_only() -> u32 {
    4
}

fn local() -> u32 {
    self_only()
}

/// Named only by the crate root's `pub use`: a finding.
pub fn only_reexported() {}

/// Named only by `tests/` and by a test module: a finding.
pub fn only_tested() {}

/// Named only by the root `examples/`: used.
pub const fn for_example() {}

/// Named only by the `tool` binary: used.
pub fn for_bin() {}

/// Named only by `benches/`: used.
pub fn for_bench() {}

// lint: allow(unused-pub) reference oracle the crate's tests compare against
pub fn oracle() {}

// lint: allow(unused-pub) stale: `caller.rs` calls it
pub fn marked_but_used() {}

/// Restricted visibility is out of the rule's scope.
pub(crate) fn crate_only() -> u32 {
    local()
}
