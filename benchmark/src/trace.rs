//! In-memory span recorder of the traced run.
//!
//! Spans are recorded from the benchmark's own files around its calls into
//! each layer (`{name, start, end, parent}`, microseconds since the run
//! started) and written out once, when the run ends.  A span's self time is
//! its duration minus the part its children cover.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span, usable as a parent.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_us: f64,
    end_us: f64,
    parent: Option<SpanId>,
}

/// Span recorder; every method is a no-op when tracing is off.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its id (`None` when off).
    pub fn span(
        &mut self,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.push(Span {
            name: name.into(),
            start_us: us(start),
            end_us: us(end),
            parent,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span starting now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: impl Into<String>, parent: Option<SpanId>) -> Option<SpanId> {
        let now = Instant::now();
        self.span(name, now, now, parent)
    }

    /// Closes a span opened by [`Tracer::begin`] at the current instant.
    pub fn end(&mut self, id: Option<SpanId>) {
        self.close_at(id, Instant::now());
    }

    /// Sets the end of an already recorded span.
    pub fn close_at(&mut self, id: Option<SpanId>, end: Instant) {
        if let Some(span) = id.and_then(|i| self.spans.get_mut(i)) {
            span.end_us = end.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        }
    }

    /// Records `children` (name, duration) laid end to end from `start`
    /// under `parent`: used for stages that report only their durations.
    pub fn stages(
        &mut self,
        parent: Option<SpanId>,
        start: Instant,
        children: &[(&str, std::time::Duration)],
    ) {
        let mut at = start;
        for (name, took) in children {
            self.span(*name, at, at + *took, parent);
            at += *took;
        }
    }

    /// Renders every span as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {parent}}}",
                s.name, s.start_us, s.end_us
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}
