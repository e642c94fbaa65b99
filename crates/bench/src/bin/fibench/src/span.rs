//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span records a name, start, end, the span that caused it and the
//! epoch it worked towards. Spans stay in memory while the workload runs
//! and are written out when it ends. A layer's *self time* is its span's
//! duration minus the part of that interval its child spans cover.
#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The epoch being built when the span opened.
    pub epoch: u64,
}

/// Handle of an open span; `None` while tracing is off.
pub type Open = Option<usize>;

/// Records spans on one thread. Switching [`enabled`](Self::enabled) off
/// makes [`enter`](Self::enter) and [`exit`](Self::exit) free of any
/// clock read, which is how the traced run interleaves traced and
/// untraced stretches to measure its own overhead.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, epoch: u64) -> Open {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            epoch,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Some(id)
    }

    /// Closes `span`, which must be the innermost open one, and returns
    /// its duration in nanoseconds (zero while tracing is off).
    pub fn exit(&mut self, span: Open) -> u64 {
        let Some(id) = span else { return 0 };
        let end_ns = self.now_ns();
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        self.spans[id].end_ns = end_ns;
        end_ns - self.spans[id].start_ns
    }

    /// Runs `f` inside a leaf span.
    pub fn span<T>(&mut self, name: &'static str, epoch: u64, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, epoch);
        let out = f();
        self.exit(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, each clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.max(p.start_ns);
            let end = span.end_ns.min(p.end_ns);
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layer {
    pub count: u64,
    /// Summed self time, seconds.
    pub self_s: f64,
    /// Every span's full duration, milliseconds.
    pub durations_ms: Vec<f64>,
}

/// Groups spans by name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let selfs = self_times(spans);
    let mut layers: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        let layer = layers.entry(span.name).or_default();
        layer.count += 1;
        layer.self_s += self_ns as f64 / 1e9;
        layer
            .durations_ms
            .push((span.end_ns - span.start_ns) as f64 / 1e6);
    }
    layers
}

/// Writes the spans as tab-separated lines: index, parent, epoch, name,
/// start and end in nanoseconds.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "index\tparent\tepoch\tname\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{i}\t{parent}\t{}\t{}\t{}\t{}",
            s.epoch, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            epoch: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_intervals() {
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            // Overlaps the previous child: the shared 20..30 counts once.
            span(20, 50, Some(0)),
            span(70, 90, Some(0)),
            // A grandchild takes from its parent only, not from the root.
            span(72, 80, Some(3)),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 12, 8]);
    }

    #[test]
    fn a_child_that_outlives_its_parent_is_clipped() {
        let spans = vec![span(10, 50, None), span(40, 90, Some(0))];
        assert_eq!(self_times(&spans), vec![30, 50]);
    }

    #[test]
    fn tracer_nests_and_disabled_stretches_record_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", 7);
        t.span("inner", 7, || ());
        t.exit(outer);
        t.enabled = false;
        let off = t.enter("ghost", 8);
        assert_eq!(off, None);
        t.exit(off);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let layers = by_name(spans);
        assert_eq!(layers["outer"].count, 1);
        assert_eq!(layers["inner"].durations_ms.len(), 1);
    }
}
