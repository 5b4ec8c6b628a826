//! Subscriber implementations: the stderr pretty-printer, the JSON-lines
//! writer, an in-memory capturer for tests, and a tee combinator.
//!
//! The *null* subscriber — the default state in which instrumentation is
//! disabled and costs one atomic load per site — is simply the absence of
//! an installed subscriber; [`NullSubscriber`] exists for call sites that
//! need an explicit do-nothing value.

use crate::json;
use crate::trace::{self, EventInfo, Level, SpanInfo, SpanTiming, Subscriber};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// A subscriber that discards everything.
///
/// Installing it is equivalent to calling [`trace::reset`] except that the
/// dispatch machinery still runs; useful for measuring facade overhead.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSubscriber;

impl Subscriber for NullSubscriber {
    fn min_level(&self) -> Level {
        Level::Error
    }

    fn on_span_start(&self, _span: &SpanInfo<'_>) {}
    fn on_span_end(&self, _span: &SpanInfo<'_>, _timing: &SpanTiming) {}
    fn on_event(&self, _event: &EventInfo<'_>) {}
}

/// Human-readable pretty-printer to stderr, indented by span depth.
///
/// One line per span entry/exit and per event:
///
/// ```text
/// [info ] pipeline.run drives=1000
///   [info ] pipeline.categorize
///   [info ] pipeline.categorize done in 12.3ms (8124 allocs)
/// ```
#[derive(Debug)]
pub struct StderrSubscriber {
    min_level: Level,
}

impl StderrSubscriber {
    /// Creates a printer that shows spans/events at `min_level` and above.
    pub fn new(min_level: Level) -> Self {
        StderrSubscriber { min_level }
    }

    fn indent(depth: usize) -> String {
        "  ".repeat(depth)
    }

    fn fields_text(fields: &[crate::trace::Field]) -> String {
        let mut out = String::new();
        for field in fields {
            out.push_str(&format!(" {}={}", field.key, field.value));
        }
        out
    }
}

impl Subscriber for StderrSubscriber {
    fn min_level(&self) -> Level {
        self.min_level
    }

    fn on_span_start(&self, span: &SpanInfo<'_>) {
        // The span is already on this thread's stack, so depth-1 is its
        // nesting depth.
        let depth = trace::current_depth().saturating_sub(1);
        eprintln!(
            "{}[{:5}] {}{}",
            Self::indent(depth),
            span.level,
            span.name,
            Self::fields_text(span.fields)
        );
    }

    fn on_span_end(&self, span: &SpanInfo<'_>, timing: &SpanTiming) {
        // Dispatched after the span is popped, so depth is the parent's.
        let depth = trace::current_depth();
        let allocs = if timing.allocations > 0 {
            format!(" ({} allocs)", timing.allocations)
        } else {
            String::new()
        };
        eprintln!(
            "{}[{:5}] {} done in {:.1?}{}",
            Self::indent(depth),
            span.level,
            span.name,
            timing.elapsed,
            allocs
        );
    }

    fn on_event(&self, event: &EventInfo<'_>) {
        eprintln!(
            "{}[{:5}] {}{}",
            Self::indent(trace::current_depth()),
            event.level,
            event.name,
            Self::fields_text(event.fields)
        );
    }
}

/// Writes one JSON object per line (`span_start`, `span_end`, `event`)
/// to any `Write` sink, typically a file opened with
/// [`JsonLinesSubscriber::create`].
///
/// Lines from concurrent worker threads interleave in arrival order; each
/// line is written and flushed atomically under an internal mutex, so the
/// output is always valid JSON-lines.
pub struct JsonLinesSubscriber {
    writer: Mutex<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for JsonLinesSubscriber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonLinesSubscriber").finish_non_exhaustive()
    }
}

impl JsonLinesSubscriber {
    /// Wraps an arbitrary writer, recording every level.
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        JsonLinesSubscriber { writer: Mutex::new(writer) }
    }

    /// Creates (truncating) `path` and writes JSON lines to it.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the file.
    pub fn create(path: &Path) -> io::Result<Self> {
        Ok(Self::new(Box::new(BufWriter::new(File::create(path)?))))
    }

    fn write_line(&self, line: &str) {
        if let Ok(mut writer) = self.writer.lock() {
            let _ = writeln!(writer, "{line}");
            let _ = writer.flush();
        }
    }

    fn fields_json(fields: &[crate::trace::Field]) -> String {
        use crate::trace::Value;
        let mut out = String::from("{");
        for (i, field) in fields.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('"');
            json::write_escaped(&mut out, field.key);
            out.push_str("\": ");
            match &field.value {
                Value::I64(v) => out.push_str(&v.to_string()),
                Value::U64(v) => out.push_str(&v.to_string()),
                Value::F64(v) => out.push_str(&json::number(*v)),
                Value::Bool(v) => out.push_str(&v.to_string()),
                Value::Str(v) => {
                    out.push('"');
                    json::write_escaped(&mut out, v);
                    out.push('"');
                }
            }
        }
        out.push('}');
        out
    }

    fn opt_id(id: Option<u64>) -> String {
        match id {
            Some(id) => id.to_string(),
            None => "null".to_string(),
        }
    }
}

impl Subscriber for JsonLinesSubscriber {
    fn min_level(&self) -> Level {
        Level::Trace
    }

    fn on_span_start(&self, span: &SpanInfo<'_>) {
        self.write_line(&format!(
            "{{\"type\": \"span_start\", \"id\": {}, \"parent\": {}, \"name\": \"{}\", \
             \"level\": \"{}\", \"fields\": {}}}",
            span.id,
            Self::opt_id(span.parent),
            json::escape(span.name),
            span.level,
            Self::fields_json(span.fields)
        ));
    }

    fn on_span_end(&self, span: &SpanInfo<'_>, timing: &SpanTiming) {
        self.write_line(&format!(
            "{{\"type\": \"span_end\", \"id\": {}, \"name\": \"{}\", \"level\": \"{}\", \
             \"elapsed_seconds\": {}, \"allocations\": {}}}",
            span.id,
            json::escape(span.name),
            span.level,
            json::number(timing.elapsed.as_secs_f64()),
            timing.allocations
        ));
    }

    fn on_event(&self, event: &EventInfo<'_>) {
        self.write_line(&format!(
            "{{\"type\": \"event\", \"span\": {}, \"name\": \"{}\", \"level\": \"{}\", \
             \"fields\": {}}}",
            Self::opt_id(event.span),
            json::escape(event.name),
            event.level,
            Self::fields_json(event.fields)
        ));
    }
}

/// One record captured by [`CapturingSubscriber`].
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// A span was entered.
    SpanStart {
        /// Span id.
        id: u64,
        /// Parent span id, if nested.
        parent: Option<u64>,
        /// Span name.
        name: &'static str,
        /// Severity level.
        level: Level,
        /// Fields captured at entry.
        fields: Vec<crate::trace::Field>,
    },
    /// A span was exited.
    SpanEnd {
        /// Span id.
        id: u64,
        /// Span name.
        name: &'static str,
        /// Wall-clock duration.
        elapsed: std::time::Duration,
        /// Allocation delta while open.
        allocations: u64,
    },
    /// An event fired.
    Event {
        /// Enclosing span id, if any.
        span: Option<u64>,
        /// Event name.
        name: &'static str,
        /// Severity level.
        level: Level,
        /// Event fields.
        fields: Vec<crate::trace::Field>,
    },
}

/// Records everything it receives in memory; the assertion backbone of
/// the observability test suites.
#[derive(Debug)]
pub struct CapturingSubscriber {
    min_level: Level,
    records: Mutex<Vec<TraceRecord>>,
}

impl CapturingSubscriber {
    /// Creates a capturer receiving `min_level` and above.
    pub fn new(min_level: Level) -> Self {
        CapturingSubscriber { min_level, records: Mutex::new(Vec::new()) }
    }

    /// A copy of every record captured so far, in arrival order.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.records.lock().map(|r| r.clone()).unwrap_or_default()
    }

    /// The names of captured span *starts*, in order.
    pub fn span_names(&self) -> Vec<&'static str> {
        self.records()
            .iter()
            .filter_map(|r| match r {
                TraceRecord::SpanStart { name, .. } => Some(*name),
                _ => None,
            })
            .collect()
    }

    fn push(&self, record: TraceRecord) {
        if let Ok(mut records) = self.records.lock() {
            records.push(record);
        }
    }
}

impl Subscriber for CapturingSubscriber {
    fn min_level(&self) -> Level {
        self.min_level
    }

    fn on_span_start(&self, span: &SpanInfo<'_>) {
        self.push(TraceRecord::SpanStart {
            id: span.id,
            parent: span.parent,
            name: span.name,
            level: span.level,
            fields: span.fields.to_vec(),
        });
    }

    fn on_span_end(&self, span: &SpanInfo<'_>, timing: &SpanTiming) {
        self.push(TraceRecord::SpanEnd {
            id: span.id,
            name: span.name,
            elapsed: timing.elapsed,
            allocations: timing.allocations,
        });
    }

    fn on_event(&self, event: &EventInfo<'_>) {
        self.push(TraceRecord::Event {
            span: event.span,
            name: event.name,
            level: event.level,
            fields: event.fields.to_vec(),
        });
    }
}

/// Fans every span/event out to several subscribers (e.g. stderr pretty
/// printing *and* a JSON-lines file at once).
///
/// Its `min_level` is the minimum of its children's, and each child still
/// applies its own filter.
pub struct TeeSubscriber {
    children: Vec<Arc<dyn Subscriber>>,
}

impl std::fmt::Debug for TeeSubscriber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TeeSubscriber").field("children", &self.children.len()).finish()
    }
}

impl TeeSubscriber {
    /// Combines `children` into one subscriber.
    pub fn new(children: Vec<Arc<dyn Subscriber>>) -> Self {
        TeeSubscriber { children }
    }

    fn each(&self, level: Level, f: impl Fn(&Arc<dyn Subscriber>)) {
        for child in &self.children {
            if level >= child.min_level() {
                f(child);
            }
        }
    }
}

impl Subscriber for TeeSubscriber {
    fn min_level(&self) -> Level {
        self.children.iter().map(|c| c.min_level()).min().unwrap_or(Level::Error)
    }

    fn on_span_start(&self, span: &SpanInfo<'_>) {
        self.each(span.level, |c| c.on_span_start(span));
    }

    fn on_span_end(&self, span: &SpanInfo<'_>, timing: &SpanTiming) {
        self.each(span.level, |c| c.on_span_end(span, timing));
    }

    fn on_event(&self, event: &EventInfo<'_>) {
        self.each(event.level, |c| c.on_event(event));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::obs_lock;
    use crate::trace::Field;

    #[test]
    fn json_lines_are_valid_json() {
        let _guard = obs_lock();
        let buffer: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));

        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().write(buf)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        trace::install(Arc::new(JsonLinesSubscriber::new(Box::new(Shared(buffer.clone())))));
        {
            let _outer = crate::span!(Level::Info, "j.outer", note = "quoted \"text\"");
            crate::event!(Level::Trace, "j.event", value = 2.5f64, nan = f64::NAN);
        }
        trace::reset();

        let text = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "start + event + end: {text}");
        for line in &lines {
            json::validate(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        assert!(lines[0].contains("\"type\": \"span_start\""));
        assert!(lines[1].contains("\"nan\": null"));
        assert!(lines[2].contains("\"elapsed_seconds\""));
    }

    #[test]
    fn tee_fans_out_and_respects_child_filters() {
        let _guard = obs_lock();
        let loud = Arc::new(CapturingSubscriber::new(Level::Trace));
        let quiet = Arc::new(CapturingSubscriber::new(Level::Warn));
        let tee = TeeSubscriber::new(vec![loud.clone(), quiet.clone()]);
        assert_eq!(tee.min_level(), Level::Trace);
        trace::install(Arc::new(tee));
        {
            let _info = crate::span!(Level::Info, "tee.info");
            let _warn = crate::span!(Level::Warn, "tee.warn");
        }
        trace::reset();
        assert_eq!(loud.span_names(), vec!["tee.info", "tee.warn"]);
        assert_eq!(quiet.span_names(), vec!["tee.warn"]);
    }

    #[test]
    fn capturing_subscriber_preserves_fields() {
        let _guard = obs_lock();
        let capture = Arc::new(CapturingSubscriber::new(Level::Trace));
        trace::install(capture.clone());
        crate::event!(Level::Info, "cap.event", id = 7u64, label = "x");
        trace::reset();
        let records = capture.records();
        assert_eq!(records.len(), 1);
        match &records[0] {
            TraceRecord::Event { name: "cap.event", fields, .. } => {
                assert_eq!(fields, &vec![Field::new("id", 7u64), Field::new("label", "x")]);
            }
            other => panic!("unexpected record {other:?}"),
        }
    }
}
