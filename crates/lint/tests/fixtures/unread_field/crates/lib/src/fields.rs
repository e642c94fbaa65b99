//! The library's structs, each field read, or not, from somewhere else.

/// A report whose fields other files read, or not. Its derives read
/// nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Read through `.` in `caller.rs`: not a finding.
    pub read_by_dot: u32,
    /// Bound by a struct pattern in `caller.rs`: not a finding.
    pub read_by_pattern: u32,
    /// Compared with `==` in `caller.rs`: not a finding.
    pub compared: u32,
    /// Only assigned, with `=` and `+=`: a finding.
    pub only_written: u32,
    /// Only set, by the struct literal in `caller.rs`: a finding.
    pub only_built: u32,
    /// Read only by a test module and by `tests/`: a finding.
    pub only_tested: u32,
    /// Read only by the root `examples/`: not a finding.
    pub for_example: u32,
    /// Read only by the `tool` binary: not a finding.
    pub for_bin: u32,
    /// Read only by `benches/`: not a finding.
    pub for_bench: u32,
    /// Read by nothing, and marked: the one suppression.
    // lint: allow(unread-field) a pinned golden reads it through the derived Debug
    pub marked: u32,
    /// Marked, but `caller.rs` reads it: the marker is stale.
    // lint: allow(unread-field) stale: `caller.rs` reads it
    pub marked_but_read: u32,
}

/// A private struct's field counts too; read in this file, so not a
/// finding.
struct Local {
    count: usize,
}

fn local(l: &Local) -> usize {
    l.count
}

/// A `where` clause puts the body on a later line; its field is found.
pub struct Bounded<T>
where
    T: Copy,
{
    /// Read by nothing: a finding.
    pub unread: T,
}

/// A tuple struct has no named field.
pub struct Wrapper(pub u32);
