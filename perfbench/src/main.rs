//! The virgil-rs benchmark: one seeded command, three workloads, every
//! metric printed by name with its unit, every output checked.
//!
//! ```text
//! perfbench --workload compile_cold|serve_edit|run_mixed --seed N --seconds S --trace 0|1 [--out FILE]
//! perfbench --compare BASE.jsonl NEW.jsonl
//! ```
//!
//! The last line of standard output is the result object the harness
//! reads; the line before it is the full report (provenance, every metric,
//! the per-layer ledger), which `--out` also appends to a file for
//! `--compare`. See `perfbench/README.md`.

mod check;
mod compare;
mod compile_cold;
mod pipeline;
mod programs;
mod rotation;
mod run_mixed;
mod serve_edit;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use vgl_obs::json::Json;

use check::Tally;
use trace::{Ledger, Recorder};

/// Metric name → value.
#[derive(Default)]
pub struct Metrics(pub BTreeMap<String, f64>);

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    pub fn insert(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }
}

/// One invocation's settings.
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload measured.
pub struct Report {
    pub tally: Tally,
    pub metrics: Metrics,
    /// One recorder per load thread (empty spans when untraced).
    pub spans: Vec<Recorder>,
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 15;

/// Runs `f` [`SETUPS`] times and returns the median time (s) and the last
/// result.
pub fn setup_median<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        last = Some(f());
        times.push(t0.elapsed().as_secs_f64());
    }
    (stats::median(&times), last.expect("SETUPS > 0"))
}

pub const WORKLOADS: [&str; 3] = ["compile_cold", "serve_edit", "run_mixed"];

/// End-to-end metrics (untraced run), with units. Every workload reports
/// all of them; "an operation" is a cold compile, a served request or a
/// program execution.
pub const END_TO_END: [(&str, &str); 9] = [
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("kloc_per_s", "kloc/s"),
    ("geomean_ms", "ms"),
    ("code_instrs", "count"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("success_rate", "ratio"),
];

/// Per-layer metrics (traced run). Times are per traced operation; counts
/// are over one fixed pass of the workload's inputs and repeat exactly
/// for a seed. A layer a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("syntax.lex_ms", "ms"),
    ("syntax.parse_ms", "ms"),
    ("syntax.tokens", "count"),
    ("sema.analyze_ms", "ms"),
    ("passes.mono_ms", "ms"),
    ("passes.normalize_ms", "ms"),
    ("passes.optimize_ms", "ms"),
    ("passes.norm_cache_hit_rate", "ratio"),
    ("passes.opt_cache_hit_rate", "ratio"),
    ("vm.lower_ms", "ms"),
    ("vm.fuse_ms", "ms"),
    ("vm.instrs_before_fuse", "count"),
    ("vm.instrs_after_fuse", "count"),
    ("core.unattributed_ms", "ms"),
    ("incr.compile_ms", "ms"),
    ("incr.frontend_ms", "ms"),
    ("incr.reuse_ms", "ms"),
    ("incr.func_hit_rate", "ratio"),
    ("incr.artifact_hit_rate", "ratio"),
    ("incr.splice_rate", "ratio"),
    ("incr.inserts", "count"),
    ("incr.evictions", "count"),
    ("serve.service_ms", "ms"),
    ("serve.wire_queue_ms", "ms"),
    ("serve.execute_ms", "ms"),
    ("vm.run_ms", "ms"),
    ("vm.dispatch_ms", "ms"),
    ("vm.instrs", "count"),
    ("vm.minstrs_per_s", "M/s"),
    ("vm.ic_hit_rate", "ratio"),
    ("vm.closure_calls", "count"),
    ("tier.tier_ups", "count"),
    ("tier.deopts", "count"),
    ("tier.inlined_calls", "count"),
    ("gc.pause_ms", "ms"),
    ("gc.minor", "count"),
    ("gc.major", "count"),
    ("gc.copied_slots", "count"),
    ("gc.promoted_slots", "count"),
    ("heap.allocated_slots", "count"),
    ("heap.closures", "count"),
    ("heap.tuple_boxes", "count"),
    ("obs.trace_overhead", "ratio"),
    ("trace.wall_ms", "ms"),
    ("trace.ops", "count"),
    ("unattributed_ms", "ms"),
    ("error_rate", "ratio"),
];

/// Span names whose self time a per-layer metric reports under another
/// name; every other span `x` reports as `x_ms`.
const SELF_TIME_NAMES: [(&str, &str); 4] = [
    ("core.compile", "core.unattributed_ms"),
    ("vm.run", "vm.dispatch_ms"),
    ("serve.request", "serve.wire_queue_ms"),
    ("serve.service", "serve.execute_ms"),
];

/// The ledger's self times as per-operation metrics, plus the traced wall
/// time per operation and what no span covers.
pub fn ledger_metrics(ledger: &Ledger, metrics: &mut Metrics) {
    for name in ledger.self_ns.keys() {
        let metric = SELF_TIME_NAMES
            .iter()
            .find(|(span, _)| span == name)
            .map_or_else(|| format!("{name}_ms"), |(_, m)| m.to_string());
        metrics.insert(metric, ledger.per_op_ms(name));
    }
    let ops = ledger.ops.max(1) as f64;
    metrics.insert("trace.wall_ms", ledger.wall_ns as f64 / 1e6 / ops);
    metrics.insert("trace.ops", ledger.ops as f64);
    metrics.insert(
        "unattributed_ms",
        ledger.unattributed_ns() as f64 / 1e6 / ops,
    );
}

/// Commit of the checkout, read from `.git` when there is one.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .map(|l| l[..40.min(l.len())].to_string())
            }),
        None if !head.is_empty() => Some(head.to_string()),
        None => None,
    };
    hash.map_or_else(|| "unknown".to_string(), |h| h.trim().to_string())
}

fn provenance(workload: &str, cfg: &RunCfg) -> Json {
    let mut p = Json::object();
    p.set("workload", Json::from(workload));
    p.set("seed", Json::from(cfg.seed));
    p.set("seconds", Json::Num(cfg.seconds));
    p.set("trace", Json::Bool(cfg.trace));
    p.set("commit", Json::from(commit().as_str()));
    p.set(
        "profile",
        Json::from(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    p.set("host_cores", Json::from(cores as u64));
    p.set(
        "jobs",
        Json::from(vgl_passes::sched::resolve_jobs(0) as u64),
    );
    p
}

fn metric(value: f64, unit: &str) -> Json {
    let mut m = Json::object();
    m.set("value", Json::Num(value));
    m.set("unit", Json::from(unit));
    m
}

/// Runs one workload and returns its report with the metric set the run
/// mode prints.
pub fn run_workload(workload: &str, cfg: &RunCfg) -> Option<Report> {
    let mut report = match workload {
        "compile_cold" => compile_cold::run(cfg),
        "serve_edit" => serve_edit::run(cfg),
        "run_mixed" => run_mixed::run(cfg),
        _ => return None,
    };
    let m = &mut report.metrics;
    m.insert("peak_rss_mb", stats::peak_rss_mb());
    m.insert("success_rate", 1.0 - report.tally.error_rate());
    m.insert("error_rate", report.tally.error_rate());
    Some(report)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 [--out FILE]\n       perfbench --compare BASE.jsonl NEW.jsonl",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        return match (args.get(1), args.get(2)) {
            (Some(base), Some(new)) => compare::run(base, new),
            _ => usage(),
        };
    }
    let mut opts: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                opts.insert(&k[2..], v);
            }
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        opts.get("workload").copied(),
        opts.get("seed").and_then(|s| s.parse::<u64>().ok()),
        opts.get("seconds")
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|s| *s > 0.0),
        opts.get("trace").and_then(|t| match *t {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }),
    ) else {
        return usage();
    };
    let cfg = RunCfg {
        seed,
        seconds,
        trace,
    };
    let Some(report) = run_workload(workload, &cfg) else {
        return usage();
    };

    let (names, kind): (&[(&str, &str)], &str) = if trace {
        (&PER_LAYER, "per_layer")
    } else {
        (&END_TO_END, "end_to_end")
    };
    let mut metrics = Json::object();
    for (name, unit) in names {
        let value = report.metrics.0.get(*name).copied();
        if value.is_none() && !trace {
            eprintln!("perfbench: {workload} did not measure {name}");
            return ExitCode::FAILURE;
        }
        metrics.set(name, metric(value.unwrap_or(0.0), unit));
    }
    for note in &report.tally.notes {
        eprintln!("perfbench: failure: {note}");
    }
    if trace {
        let mut spans = String::new();
        for (i, rec) in report.spans.iter().enumerate() {
            rec.json_lines(i, &mut spans);
        }
        let path = format!("{}/spans-{workload}-{seed}.jsonl", serve_edit::SCRATCH);
        let written = std::fs::create_dir_all(serve_edit::SCRATCH)
            .and_then(|()| std::fs::write(&path, spans));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {path}: {e}");
        }
    }
    let mut full = Json::object();
    full.set("provenance", provenance(workload, &cfg));
    full.set("kind", Json::from(kind));
    full.set("attempted", Json::from(report.tally.attempted));
    full.set("failed", Json::from(report.tally.failed));
    full.set("metrics", metrics.clone());
    if trace {
        let mut ledger = Json::object();
        for (k, v) in report.metrics.0.iter().filter(|(k, _)| is_ledger_row(k)) {
            ledger.set(k, Json::Num(*v));
        }
        full.set("ledger_ms", ledger);
    }
    let line = full.render();
    println!("{line}");
    if let Some(out) = opts.get("out") {
        use std::io::Write as _;
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .and_then(|mut f| writeln!(f, "{line}"));
        if let Err(e) = appended {
            eprintln!("perfbench: cannot append to {out}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let mut result = Json::object();
    result.set("correct", Json::Bool(report.tally.failed == 0));
    result.set("attempted", Json::from(report.tally.attempted));
    result.set("failed", Json::from(report.tally.failed));
    result.set("metrics", metrics);
    println!("{}", result.render());
    ExitCode::SUCCESS
}

/// Whether a metric is one of the ledger's self-time rows, which add up
/// (with `unattributed_ms`) to `trace.wall_ms`.
fn is_ledger_row(name: &str) -> bool {
    const TOTALS: [&str; 5] = [
        "vm.run_ms",
        "serve.service_ms",
        "incr.compile_ms",
        "incr.frontend_ms",
        "trace.wall_ms",
    ];
    name.ends_with("_ms") && !TOTALS.contains(&name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(workload: &str, trace: bool) -> Report {
        run_workload(
            workload,
            &RunCfg {
                seed: 1,
                seconds: 0.3,
                trace,
            },
        )
        .expect("known workload")
    }

    #[test]
    fn corrupted_reference_is_counted() {
        // Long enough for the rotation to reach every program.
        let cfg = RunCfg {
            seed: 2,
            seconds: 1.5,
            trace: false,
        };
        let o = run_mixed::options();
        let programs = programs::run_programs(cfg.seed);
        let compiled: Vec<_> = programs
            .iter()
            .map(|p| {
                vgl::Compiler::with_options(o)
                    .compile(&p.text)
                    .expect("compiles")
            })
            .collect();
        let mut expects: Vec<_> = compiled.iter().map(check::reference).collect();
        let clean = run_mixed::measure(&cfg, &o, &programs, &compiled, &expects);
        assert_eq!(clean.tally.error_rate(), 0.0, "{:?}", clean.tally.notes);
        expects[0].output.push('!');
        let bitten = run_mixed::measure(&cfg, &o, &programs, &compiled, &expects);
        assert!(bitten.tally.error_rate() > 0.0);
    }

    /// The counts a later change may cite must repeat exactly for a seed.
    #[test]
    fn counts_repeat_exactly() {
        const EXACT: [&str; 12] = [
            "code_instrs",
            "syntax.tokens",
            "vm.instrs_after_fuse",
            "vm.instrs",
            "gc.minor",
            "gc.major",
            "gc.copied_slots",
            "tier.tier_ups",
            "incr.inserts",
            "incr.evictions",
            "incr.func_hit_rate",
            "incr.artifact_hit_rate",
        ];
        for w in WORKLOADS {
            for trace in [false, true] {
                let a = quick(w, trace).metrics;
                let b = quick(w, trace).metrics;
                for name in EXACT {
                    assert_eq!(a.0.get(name), b.0.get(name), "{w}: {name}");
                }
            }
        }
    }

    #[test]
    fn layers_reconcile_with_the_traced_wall_time() {
        for w in WORKLOADS {
            let r = quick(w, true);
            let rows: f64 = r
                .metrics
                .0
                .iter()
                .filter(|(k, _)| is_ledger_row(k))
                .map(|(_, v)| v)
                .sum();
            let wall = r.metrics.0["trace.wall_ms"];
            assert!(
                (rows - wall).abs() <= 1e-6 * wall.max(1.0),
                "{w}: {rows} vs {wall}"
            );
            assert_eq!(r.tally.failed, 0, "{w}: {:?}", r.tally.notes);
        }
    }
}
