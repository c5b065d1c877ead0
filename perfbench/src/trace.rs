//! Spans recorded around the calls the benchmark makes into each layer.
//!
//! A span has a name, a start, an end, and the span that caused it;
//! spans of one request share its id. They are kept in memory and
//! written out when the run ends. A layer's self time is its span's
//! duration minus the part of it that its child spans cover. With
//! tracing off, [`Tracer::open`] and [`Tracer::close`] read no clock.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub request: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    request: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Handle of an open span (a no-op handle when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            request: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Starts a new request id for the spans that follow.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            request: self.request,
            parent: self.open.last().copied(),
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `span`, which must be the innermost open one, and returns
    /// its duration in nanoseconds (0 when tracing is off).
    pub fn close(&mut self, span: SpanId) -> u64 {
        let Some(id) = span.0 else { return 0 };
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let s = &mut self.spans[id as usize];
        s.end_ns = self.origin.elapsed().as_nanos() as u64;
        s.end_ns - s.start_ns
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.open(name);
        let out = f();
        self.close(span);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time in nanoseconds of each span, indexed like [`Self::spans`].
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Per span name, the self time of every request that opened it
    /// (summed over the request's spans of that name), in nanoseconds.
    pub fn per_request_self_ns(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let own = self.self_times();
        let mut sums: BTreeMap<(&'static str, u32), u64> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(own) {
            *sums.entry((s.name, s.request)).or_default() += t;
        }
        let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for ((name, _), t) in sums {
            out.entry(name).or_default().push(t);
        }
        out
    }

    /// Per request, the duration of its root span named `root`.
    pub fn root_ns(&self, root: &'static str) -> BTreeMap<u32, u64> {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root)
            .map(|s| (s.request, s.end_ns - s.start_ns))
            .collect()
    }

    /// Writes the spans as tab-separated rows.
    pub fn write_tsv(&self, mut w: impl Write) -> io::Result<()> {
        writeln!(w, "span\trequest\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{i}\t{}\t{parent}\t{}\t{}\t{}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.next_request();
        let root = t.open("request");
        t.time("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(root);
        let own = t.self_times();
        let whole = t.spans()[0].end_ns - t.spans()[0].start_ns;
        assert!(own[1] >= 2_000_000);
        assert_eq!(own[0], whole - own[1]);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn tracing_off_records_nothing() {
        let mut t = Tracer::new(false);
        t.next_request();
        let root = t.open("request");
        t.close(root);
        assert!(t.spans().is_empty());
    }
}
