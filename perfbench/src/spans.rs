//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a layer's public functions is
//! wrapped in a span (name, start, end, parent). Spans stay in memory
//! while the run executes and are written out when it ends. A span's
//! self time is its duration minus the time its child spans cover, so
//! the self times of one root span's subtree add up to the root's
//! duration.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `cluster.step`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Per-name totals over all spans of that name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Agg {
    /// Spans recorded.
    pub calls: u64,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed self time (duration minus child spans), seconds.
    pub self_s: f64,
}

/// The recorder: spans plus named counters taken at the same
/// boundaries.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

/// A tracer shared between the benchmark driver and the wrappers it
/// hands to the library.
pub type SharedTracer = Rc<RefCell<Tracer>>;

/// `Some` in the traced run, `None` with tracing off.
pub type Probe = Option<SharedTracer>;

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }
}

impl Tracer {
    /// A fresh tracer behind the shared handle the wrappers take.
    pub fn shared() -> SharedTracer {
        Rc::new(RefCell::new(Tracer::default()))
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        idx
    }

    /// Close span `idx`, which must be the innermost open span.
    pub fn exit(&mut self, idx: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Add `n` to counter `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Counter value (0 if never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// All spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Calls, total and self time per span name.
    pub fn summary(&self) -> BTreeMap<&'static str, Agg> {
        let mut child_s = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += s.secs();
            }
        }
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_s) {
            let a = out.entry(s.name).or_default();
            a.calls += 1;
            a.total_s += s.secs();
            a.self_s += s.secs() - child;
        }
        out
    }

    /// Durations of every span named `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.secs() * 1e6)
            .collect()
    }

    /// Write every span as a tab-separated line:
    /// `index name start_ns end_ns parent` (parent `-` for roots).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Run `f` inside a span named `name` when tracing, or just run it.
pub fn timed<R>(probe: &Probe, name: &'static str, f: impl FnOnce() -> R) -> R {
    match probe {
        Some(tr) => traced(tr, name, f),
        None => f(),
    }
}

/// Run `f` inside a span named `name`.
pub fn traced<R>(tr: &SharedTracer, name: &'static str, f: impl FnOnce() -> R) -> R {
    let idx = tr.borrow_mut().enter(name);
    let r = f();
    tr.borrow_mut().exit(idx);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let tr = Tracer::shared();
        traced(&tr, "outer", || {
            traced(&tr, "inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let s = tr.borrow().summary();
        let (outer, inner) = (s["outer"], s["inner"]);
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!((outer.self_s + inner.total_s - outer.total_s).abs() < 1e-9);
        assert!(outer.self_s >= 0.004 && inner.self_s >= 0.004);
        assert_eq!(tr.borrow().spans()[1].parent, Some(0));
    }
}
