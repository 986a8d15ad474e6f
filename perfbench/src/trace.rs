//! In-memory spans for the traced run, written out when it ends.
//!
//! Every request gets an id; each span records the layer boundary it
//! covers, its parent span and its start and end. Spans cost two clock
//! reads and a push each and are never flushed mid-run.

use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static NEXT_REQ: AtomicU64 = AtomicU64::new(1);

/// A fresh request id, unique across the run's threads.
pub fn next_id() -> u64 {
    NEXT_REQ.fetch_add(1, Ordering::Relaxed)
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub req: u64,
    pub name: &'static str,
    pub parent: &'static str,
    pub start: Instant,
    pub end: Instant,
}

pub struct Spans {
    base: Instant,
    rows: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans { base: Instant::now(), rows: Vec::new() }
    }

    pub fn push(
        &mut self,
        req: u64,
        name: &'static str,
        parent: &'static str,
        start: Instant,
        end: Instant,
    ) {
        self.rows.push(Span { req, name, parent, start, end });
    }

    /// Moves another recorder's spans (e.g. a worker thread's) in.
    pub fn absorb(&mut self, other: Spans) {
        self.rows.extend(other.rows);
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.rows
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end.saturating_duration_since(s.start).as_secs_f64() * 1e6)
            .collect()
    }

    /// Writes `req span parent start_ns end_ns` rows, relative to the
    /// moment tracing started.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "req\tspan\tparent\tstart_ns\tend_ns")?;
        for s in &self.rows {
            let at = |t: Instant| t.saturating_duration_since(self.base).as_nanos();
            writeln!(out, "{}\t{}\t{}\t{}\t{}", s.req, s.name, s.parent, at(s.start), at(s.end))?;
        }
        out.flush()
    }
}
