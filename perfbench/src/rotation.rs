//! The closed loop `compile_cold` and `run_mixed` share: load threads walk
//! a seeded rotation of inputs until the window ends, each starting at a
//! different point of it, so different inputs run side by side and the
//! measurement spans both cores. Lane `t` moves its starting point on by
//! `t` inputs every round, so over a run each input runs beside every
//! other one, not beside the one partner the seed's order would fix. In a
//! traced run, rounds alternate between the plain call and the traced one,
//! and the two are compared input by input for `obs.trace_overhead`.

use std::time::Instant;

use crate::check::Tally;
use crate::stats::{geomean, median, quantile};
use crate::trace::{Ledger, Recorder};
use crate::{Metrics, RunCfg};

/// One operation on input `i`. With `Some((recorder, op_id))` it runs
/// traced. Returns a count the caller sums over traced operations, or
/// what was wrong with the output.
pub trait Op: Fn(usize, Option<(&mut Recorder, u64)>) -> Result<u64, String> + Sync {}

impl<F: Fn(usize, Option<(&mut Recorder, u64)>) -> Result<u64, String> + Sync> Op for F {}

/// Everything the window measured, merged over load threads.
pub struct Window {
    /// Per-input latencies (ms) of plain and of traced operations.
    pub lat: Vec<Vec<f64>>,
    pub traced_lat: Vec<Vec<f64>>,
    pub tally: Tally,
    pub spans: Vec<Recorder>,
    pub ledger: Ledger,
    /// Sum of the op's counts over traced operations.
    pub traced_count: u64,
    ops: u64,
    lines: usize,
    elapsed: f64,
}

struct Lane {
    lat: Vec<Vec<f64>>,
    traced_lat: Vec<Vec<f64>>,
    tally: Tally,
    rec: Recorder,
    traced_wall_ns: u64,
    traced_ops: u64,
    traced_count: u64,
    ops: u64,
    lines: usize,
}

fn lane(
    cfg: &RunCfg,
    (t, lanes): (usize, usize),
    order: &[usize],
    lines: &[usize],
    op: &impl Op,
    origin: Instant,
) -> Lane {
    let n = lines.len();
    let mut l = Lane {
        lat: vec![Vec::new(); n],
        traced_lat: vec![Vec::new(); n],
        tally: Tally::default(),
        rec: Recorder::new(origin),
        traced_wall_ns: 0,
        traced_ops: 0,
        traced_count: 0,
        ops: 0,
        lines: 0,
    };
    for round in 0u64.. {
        let traced = cfg.trace && round % 2 == 1;
        let round_start = l.rec.now_ns();
        let mut done = false;
        let mut rotated = order.to_vec();
        let shift = t * (order.len() / lanes + round as usize);
        rotated.rotate_left(shift % order.len().max(1));
        for &i in &rotated {
            if origin.elapsed().as_secs_f64() >= cfg.seconds {
                done = true;
                break;
            }
            let t0 = Instant::now();
            let out = op(i, traced.then_some((&mut l.rec, l.ops)));
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let failure = out.as_ref().err().cloned();
            l.tally
                .record(failure.is_none(), || failure.unwrap_or_default());
            if traced {
                l.traced_lat[i].push(ms);
                l.traced_count += out.unwrap_or(0);
                l.traced_ops += 1;
            } else {
                l.lat[i].push(ms);
            }
            l.lines += lines[i];
            l.ops += 1;
        }
        if traced {
            l.traced_wall_ns += l.rec.now_ns() - round_start;
        }
        if done {
            break;
        }
    }
    l
}

/// Runs the window on `lanes` threads over `order` (indices into
/// `lines`, the source lines of each input).
pub fn run(cfg: &RunCfg, lanes: usize, order: &[usize], lines: &[usize], op: impl Op) -> Window {
    let origin = Instant::now();
    let done: Vec<Lane> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes)
            .map(|t| {
                let op = &op;
                scope.spawn(move || lane(cfg, (t, lanes), order, lines, op, origin))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    let elapsed = origin.elapsed().as_secs_f64();
    let merged = |pick: fn(&Lane) -> &Vec<Vec<f64>>| -> Vec<Vec<f64>> {
        (0..lines.len())
            .map(|i| done.iter().flat_map(|l| &pick(l)[i]).copied().collect())
            .collect()
    };
    let (lat, traced_lat) = (merged(|l| &l.lat), merged(|l| &l.traced_lat));
    let mut w = Window {
        lat,
        traced_lat,
        tally: Tally::default(),
        spans: Vec::new(),
        ledger: Ledger::default(),
        traced_count: 0,
        ops: 0,
        lines: 0,
        elapsed,
    };
    for l in done {
        w.ledger.add(&l.rec);
        w.ledger.wall_ns += l.traced_wall_ns;
        w.ledger.ops += l.traced_ops;
        w.traced_count += l.traced_count;
        w.ops += l.ops;
        w.lines += l.lines;
        w.tally.merge(l.tally);
        w.spans.push(l.rec);
    }
    w
}

impl Window {
    /// The end-to-end latency and throughput metrics of an untraced run.
    pub fn end_to_end(&self, m: &mut Metrics) {
        let all: Vec<f64> = self.lat.iter().flatten().copied().collect();
        m.insert("p50_ms", median(&all));
        m.insert("p90_ms", quantile(&all, 0.9));
        m.insert("ops_per_s", self.ops as f64 / self.elapsed);
        m.insert("kloc_per_s", self.lines as f64 / 1e3 / self.elapsed);
        let per_input: Vec<f64> = self
            .lat
            .iter()
            .filter(|l| !l.is_empty())
            .map(|l| median(l))
            .collect();
        m.insert("geomean_ms", geomean(&per_input));
    }

    /// The ledger and the tracing overhead of a traced run.
    pub fn per_layer(&self, m: &mut Metrics) {
        let ratios: Vec<f64> = self
            .lat
            .iter()
            .zip(&self.traced_lat)
            .filter(|(u, t)| !u.is_empty() && !t.is_empty())
            .map(|(u, t)| median(t) / median(u))
            .collect();
        m.insert("obs.trace_overhead", geomean(&ratios));
        crate::ledger_metrics(&self.ledger, m);
    }

    /// Inclusive time of the spans named `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .map(|r| r.total_ns().get(name).copied().unwrap_or(0))
            .sum();
        ns as f64 / 1e6
    }
}
