//! The traced-run span recorder.
//!
//! Spans are recorded by benchmark code around calls into the program's
//! public functions; the program itself carries no extra instrumentation.
//! Every span has a name, a start and end on one process-wide monotonic
//! clock, an optional parent and an optional batch id. Spans stay in
//! memory until the run ends, when they are written out as JSON lines.
//! A disabled tracer records nothing, so the untraced run pays one branch
//! per call site.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Nanoseconds since the process-wide benchmark epoch. Server and client
/// share the process, so one clock stamps both sides of a request.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Milliseconds between two [`now_ns`] stamps.
pub fn ms(start: u64, end: u64) -> f64 {
    end.saturating_sub(start) as f64 / 1e6
}

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`http.request`, `shard.batch`, …).
    pub name: &'static str,
    /// Start, in [`now_ns`] nanoseconds.
    pub start: u64,
    /// End, in [`now_ns`] nanoseconds.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The ingest batch the span belongs to, if any.
    pub batch: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span sink shared by every thread of a run.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, spans: Mutex::new(Vec::new()) }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a span and returns its index (0 when disabled).
    pub fn record(
        &self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
        batch: Option<u64>,
    ) -> usize {
        if !self.enabled {
            return 0;
        }
        let mut spans = self.spans.lock().expect("span sink poisoned");
        spans.push(Span { name, start, end, parent, batch });
        spans.len() - 1
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span sink poisoned").clone()
    }
}

/// Writes spans as JSON lines to `path`, creating its directory; returns
/// how many were written.
///
/// # Errors
///
/// Returns the I/O error of creating or writing the file.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, span) in spans.iter().enumerate() {
        writeln!(
            out,
            "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"parent\": {}, \"batch\": {}}}",
            span.name,
            span.start,
            span.end,
            span.parent.map_or("null".to_string(), |p| p.to_string()),
            span.batch.map_or("null".to_string(), |b| b.to_string()),
        )?;
    }
    out.flush()?;
    Ok(spans.len())
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children are clipped to the parent and their
/// overlaps merged, so concurrent children are not double-counted).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<usize, Vec<(u64, u64)>> = HashMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let (start, end) = (span.start.max(p.start), span.end.min(p.end));
            if start < end {
                children.entry(parent).or_default().push((start, end));
            }
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, span)| {
            let covered = children.get_mut(&i).map_or(0, |intervals| union_length(intervals));
            span.duration().saturating_sub(covered)
        })
        .collect()
}

/// Total length covered by a set of intervals.
pub fn union_length(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(start, end) in intervals.iter() {
        current = match current {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Length of the overlap between `[a0, a1)` and `[b0, b1)`.
pub fn overlap(a0: u64, a1: u64, b0: u64, b1: u64) -> u64 {
    a1.min(b1).saturating_sub(a0.max(b0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        tracer.record("x", 0, 10, None, None);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_merged_clipped_children() {
        let tracer = Tracer::new(true);
        let root = tracer.record("root", 0, 100, None, Some(1));
        tracer.record("a", 10, 30, Some(root), Some(1));
        tracer.record("b", 20, 40, Some(root), Some(1)); // overlaps a
        tracer.record("c", 90, 120, Some(root), Some(1)); // clipped at 100
        let spans = tracer.spans();
        let own = self_times(&spans);
        assert_eq!(own[root], 100 - 30 - 10);
        assert_eq!(own[1], 20);
        assert_eq!(own[3], 30);
    }

    #[test]
    fn union_and_overlap() {
        assert_eq!(union_length(&mut [(0, 5), (3, 8), (10, 12)]), 10);
        assert_eq!(union_length(&mut []), 0);
        assert_eq!(overlap(0, 10, 5, 20), 5);
        assert_eq!(overlap(0, 10, 10, 20), 0);
    }

    #[test]
    fn spans_round_trip_to_json_lines() {
        let dir = std::env::temp_dir().join(format!("perfbench-trace-{}", std::process::id()));
        let tracer = Tracer::new(true);
        let root = tracer.record("batch", 5, 50, None, Some(7));
        tracer.record("http.request", 6, 20, Some(root), Some(7));
        let path = dir.join("spans.jsonl");
        assert_eq!(write_jsonl(&tracer.spans(), &path).unwrap(), 2);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"name\": \"http.request\""));
        assert!(text.contains("\"parent\": 0, \"batch\": 7"));
        std::fs::remove_dir_all(dir).unwrap();
    }
}
