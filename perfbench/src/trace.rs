//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer's
//! public functions: name, start, end, parent span and request id. They
//! stay in memory until the run ends and are then written out as TSV.
//! A layer's self time is its span minus the spans nested in it.

use std::collections::BTreeMap;
use std::fs;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use crate::util::{metric, Metric};

const NO_PARENT: u32 = u32::MAX;

/// Self time per span name, in nanoseconds.
pub type SelfNs = BTreeMap<&'static str, u64>;

/// The metric `<span>.busy_ms`: the self time of every span named `span`,
/// in milliseconds (0 when never recorded).
pub fn busy_ms(self_ns: &SelfNs, span: &str) -> Metric {
    let ns = self_ns.get(span).copied().unwrap_or(0);
    metric(format!("{span}.busy_ms"), ns as f64 / 1e6, "ms")
}

#[derive(Clone, Copy, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    req: u64,
}

#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, req: u64) {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.open.push(id);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        let id = self.open.pop().expect("end without begin");
        let end_ns = self.now();
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Time `f` as a span named `name` in request `req`.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        self.begin(name, req);
        let r = f();
        self.end();
        r
    }

    /// Self time per span name, in nanoseconds.
    pub fn self_ns(&self) -> SelfNs {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(c);
        }
        out
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Wall time of `wall_ns` not covered by any layer span — a layer span
    /// being any span nested directly in a top-level request span.
    pub fn unattributed_ns(&self, wall_ns: u64) -> u64 {
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent != NO_PARENT && self.spans[s.parent as usize].parent == NO_PARENT)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        wall_ns.saturating_sub(covered)
    }

    /// Write every span as `id name req parent start_ns end_ns` TSV lines.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(fs::File::create(path)?);
        writeln!(w, "id\tname\treq\tparent\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{id}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.req, s.start_ns, s.end_ns
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
        let mut t = Tracer::new();
        t.begin("request", 0);
        t.begin("outer", 0);
        t.span("inner", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end();
        t.end();
        let selfs = t.self_ns();
        assert!(selfs["inner"] >= 2_000_000);
        assert!(selfs["outer"] < selfs["inner"]);
        assert_eq!(t.calls("inner"), 1);
        assert!(t.unattributed_ns(selfs.values().sum()) <= selfs["request"]);
    }
}
