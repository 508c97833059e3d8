//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into each
//! layer of the program. A span has a name, a start, an end, the span that
//! was open when it began (its parent) and an operation id shared by every
//! span of one block, PUT, GET or record batch. Spans stay in memory until
//! the run ends; then they are written out and folded into per-name totals
//! and self times (a span's duration minus the part its children cover).
//!
//! A disabled tracer records nothing: `begin` and `end` return at once, so
//! untraced runs pay one branch per boundary.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// Handle returned by [`Tracer::begin`]; pass it to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Totals of all spans sharing one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub total_s: f64,
    pub self_s: f64,
}

impl Tracer {
    pub fn new(enabled: bool, t0: Instant) -> Tracer {
        Tracer {
            enabled,
            t0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now_ns();
        let parent = self.stack.last().copied();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        let idx = self.spans.len() - 1;
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end_ns = self.now_ns();
        self.spans[idx].end_ns = end_ns;
        // Spans close in LIFO order; tolerate a missed end by unwinding to
        // the span being closed.
        while let Some(top) = self.stack.pop() {
            if top == idx {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let o = self.begin(name, op);
        let r = f();
        self.end(o);
        r
    }

    /// Runs `f` inside a span and returns its wall time too, measured
    /// whether or not the tracer records.
    pub fn time_s<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let o = self.begin(name, op);
        let start = Instant::now();
        let r = f();
        let secs = start.elapsed().as_secs_f64();
        self.end(o);
        (r, secs)
    }

    /// Moves the spans of another (per-thread) tracer into this one,
    /// keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + base);
            self.spans.push(s);
        }
    }

    /// Per-name count, total and self time.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_s = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += s.secs();
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = out.entry(s.name).or_default();
            t.total_s += s.secs();
            t.self_s += (s.secs() - child_s[i]).max(0.0);
        }
        out
    }

    /// Writes every span as one tab-separated line:
    /// `index parent op name start_ns end_ns`.
    pub fn write_tsv(&self, w: &mut impl Write) -> std::io::Result<()> {
        writeln!(w, "index\tparent\top\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now());
        let root = t.begin("root", 1);
        t.time("child", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        t.end(root);
        let tot = t.totals();
        let r = tot["root"];
        let c = tot["child"];
        assert!(c.total_s >= 0.019);
        assert!((r.self_s - (r.total_s - c.total_s)).abs() < 1e-9);
        assert!(r.self_s >= 0.009);
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let o = t.begin("x", 0);
        t.end(o);
        assert!(t.spans.is_empty());
    }
}
