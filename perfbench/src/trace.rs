//! In-memory spans around every call the benchmark makes into a layer.
//!
//! A span records its name, start and end (ns since the tracer was made),
//! its parent span, the request it belongs to, and the `IoStats` and
//! `NodeCacheStats` deltas observed across it. Spans stay in memory and
//! are written as JSON lines when the run ends. With tracing off,
//! [`Tracer::begin`] and [`Tracer::end`] do nothing.

use hyt_page::{IoStats, NodeCacheStats};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Counters observed across a span.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub logical_reads: u64,
    pub physical_reads: u64,
    pub physical_writes: u64,
    pub pool_hits: u64,
    pub cache_hits: u64,
    pub decodes: u64,
    pub invalidations: u64,
}

impl Counters {
    /// Counters from a per-call `IoStats` and the cache-counter delta.
    pub fn from_stats(io: &IoStats, before: &NodeCacheStats, after: &NodeCacheStats) -> Self {
        Self {
            logical_reads: io.logical_reads + io.seq_reads,
            physical_reads: io.physical_reads,
            physical_writes: io.physical_writes,
            pool_hits: io.hits,
            cache_hits: after.hits - before.hits,
            decodes: after.misses - before.misses,
            invalidations: after.invalidations - before.invalidations,
        }
    }
}

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    req: u64,
    counters: Counters,
}

/// Handle of an open span (inert when tracing is off).
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            origin: Instant::now(),
            on,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, req: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            req,
            counters: Counters::default(),
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes a span, recording the counters observed across it.
    pub fn end(&mut self, open: Open, counters: Counters) {
        let Some(id) = open.0 else { return };
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.counters = counters;
        debug_assert_eq!(self.stack.last(), Some(&id), "spans close in order");
        self.stack.pop();
    }

    /// Runs `f` inside a span with no counters.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, req);
        let r = f();
        self.end(open, Counters::default());
        r
    }

    /// Per span name: count, total time and self time (total minus the
    /// time covered by child spans), in ms.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let total = (s.end_ns - s.start_ns) as f64 / 1e6;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total - child as f64 / 1e6;
        }
        out
    }

    /// Sums the counters of every span named `name`, with their count.
    pub fn totals(&self, name: &str) -> (usize, Counters) {
        let mut n = 0;
        let mut c = Counters::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            n += 1;
            c.logical_reads += s.counters.logical_reads;
            c.physical_reads += s.counters.physical_reads;
            c.physical_writes += s.counters.physical_writes;
            c.pool_hits += s.counters.pool_hits;
            c.cache_hits += s.counters.cache_hits;
            c.decodes += s.counters.decodes;
            c.invalidations += s.counters.invalidations;
        }
        (n, c)
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let c = &s.counters;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"req\":{},\"logical_reads\":{},\"physical_reads\":{},\"physical_writes\":{},\
                 \"pool_hits\":{},\"cache_hits\":{},\"decodes\":{},\"invalidations\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.req,
                c.logical_reads,
                c.physical_reads,
                c.physical_writes,
                c.pool_hits,
                c.cache_hits,
                c.decodes,
                c.invalidations
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 1);
        t.span("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(outer, Counters::default());
        let s = t.summary();
        let (n, total, own) = s["outer"];
        assert_eq!(n, 1);
        assert!(total >= s["inner"].1 && own < total);
        assert_eq!(t.spans[1].parent, Some(0));

        let mut off = Tracer::new(false);
        let o = off.begin("x", 0);
        off.end(o, Counters::default());
        assert!(off.summary().is_empty());
    }
}
