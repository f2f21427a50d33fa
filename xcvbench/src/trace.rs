//! In-memory span recorder.
//!
//! A span is one call into a layer's public API: a name (`layer.call`),
//! the span that caused it, and start/end offsets from the recorder's
//! epoch. Spans are kept in memory and written out once, when the run
//! ends. A disabled recorder takes no timestamps at all, so the untraced
//! run pays nothing for it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span; `ROOT` (0) is the run itself.
pub type SpanId = u64;
pub const ROOT: SpanId = 0;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; records itself when dropped.
pub struct Open<'a> {
    tracer: &'a Tracer,
    pub id: SpanId,
    parent: SpanId,
    name: &'static str,
    start_ns: u64,
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        if self.tracer.on {
            let end_ns = self.tracer.now_ns();
            self.tracer.push(Span {
                id: self.id,
                parent: self.parent,
                name: self.name,
                start_ns: self.start_ns,
                end_ns,
            });
        }
    }
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the epoch (0 when disabled: nothing is timed).
    pub fn now_ns(&self) -> u64 {
        if self.on {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("a benchmark thread panicked")
            .push(span);
    }

    /// Open a span around a call; it closes when the guard drops.
    pub fn span(&self, name: &'static str, parent: SpanId) -> Open<'_> {
        let id = if self.on {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Open {
            tracer: self,
            id,
            parent,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Record a span whose ends were observed elsewhere (for example the
    /// start and finish events of one campaign pair).
    pub fn record(&self, name: &'static str, parent: SpanId, start_ns: u64, end_ns: u64) {
        if self.on {
            let id = self.next.fetch_add(1, Ordering::Relaxed);
            self.push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a benchmark thread panicked")
            .clone()
    }

    /// The spans as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans()
            .iter()
            .map(|s| {
                format!(
                    "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                    s.id, s.parent, s.name, s.start_ns, s.end_ns
                )
            })
            .collect();
        format!("[\n{}\n]", rows.join(",\n"))
    }
}
