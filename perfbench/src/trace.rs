//! In-memory span recorder for the traced run.
//!
//! Spans are taken in the benchmark's own code around each call into a
//! layer's public function (and, where a layer reports a duration it alone
//! can see, such as a GC pause inside `Vm::run`, as a child span of the
//! call that contained it). They stay in memory and are written out as
//! JSON lines when the run ends. A span's self time is its duration minus
//! the time its children cover; whatever no span covers is `unattributed`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The operation (compile, request, execution) the span belongs to.
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans of one load thread. Spans nest strictly (a stack), so a child
/// always lies inside its parent.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn open(&mut self, name: &'static str, req: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            req,
        });
        self.stack.push(id);
        id
    }

    pub fn close(&mut self, id: usize) {
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, req);
        let out = f();
        self.close(id);
        out
    }

    /// Adds a child of the closed span `parent` for a duration the layer
    /// itself reported, laid after the previous such child and clipped to
    /// the parent's interval.
    pub fn reported_child(&mut self, parent: usize, name: &'static str, dur_ns: u64) {
        let p = &self.spans[parent];
        let (req, end) = (p.req, p.end_ns);
        let cursor = self.spans[parent + 1..]
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(p.start_ns);
        let start_ns = cursor.min(end);
        let end_ns = (start_ns + dur_ns).min(end);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            req,
        });
    }

    /// Per-name self time: each span's duration minus its children's.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(covered) {
            *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(c);
        }
        out
    }

    /// Per-name inclusive time.
    pub fn total_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0) += s.dur_ns();
        }
        out
    }

    /// The spans as JSON lines (`thread` tells the load threads apart).
    pub fn json_lines(&self, thread: usize, out: &mut String) {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"thread\":{thread},\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            );
        }
    }
}

/// The reconciled per-layer time account of one traced run: every
/// nanosecond of the load threads' measured windows is either some
/// layer's self time or `unattributed`.
#[derive(Default)]
pub struct Ledger {
    /// Sum over load threads of each thread's traced window.
    pub wall_ns: u64,
    /// Traced operations completed.
    pub ops: u64,
    /// Layer name → self time.
    pub self_ns: BTreeMap<&'static str, u64>,
}

impl Ledger {
    pub fn add(&mut self, rec: &Recorder) {
        for (k, v) in rec.self_ns() {
            *self.self_ns.entry(k).or_insert(0) += v;
        }
    }

    /// Moves `ns` of `from`'s self time to `to`, for a split only the
    /// program could see (a daemon-reported service time inside a client
    /// request span).
    pub fn split(&mut self, from: &'static str, to: &'static str, ns: u64) {
        let avail = self.self_ns.get(from).copied().unwrap_or(0);
        let moved = ns.min(avail);
        self.self_ns.insert(from, avail - moved);
        *self.self_ns.entry(to).or_insert(0) += moved;
    }

    pub fn unattributed_ns(&self) -> u64 {
        self.wall_ns.saturating_sub(self.self_ns.values().sum())
    }

    /// A layer's self time per traced operation, in ms.
    pub fn per_op_ms(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6 / self.ops.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_reconciles() {
        let mut r = Recorder::new(Instant::now());
        let root = r.open("root", 1);
        r.span("a", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.span("b", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        r.close(root);
        let selfs = r.self_ns();
        let totals = r.total_ns();
        assert_eq!(selfs.values().sum::<u64>(), totals["root"]);
        assert_eq!(selfs["a"], totals["a"]);
        assert!(selfs["root"] < totals["root"]);
    }

    #[test]
    fn reported_children_stay_inside_the_parent() {
        let mut r = Recorder::new(Instant::now());
        r.span("run", 1, || ());
        let id = r.spans.len() - 1;
        r.reported_child(id, "gc", 10_000_000_000);
        let total = r.total_ns();
        assert!(total["gc"] <= total["run"]);
        let mut led = Ledger {
            wall_ns: total["run"] + 5,
            ops: 1,
            ..Ledger::default()
        };
        led.add(&r);
        assert_eq!(led.unattributed_ns(), 5);
    }
}
