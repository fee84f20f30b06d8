//! `serve_edit`: two clients, each with its own session and connection to
//! an in-process `vgld`, drive seeded editing sessions in a closed loop
//! (each sends its next `run` request when the previous reply arrives).
//! Edits hit the function store, resubmits hit the whole-artifact store,
//! reshapes invalidate context digests and make the store insert and
//! evict, while the other client reads.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use vgl::serve::{Client, Daemon, Json, Request, ServeConfig};
use vgl::{Compiler, Options};

use crate::check::{self, Expect, Tally};
use crate::programs::{base_source, Session, StepKind, BLOCK};
use crate::stats::{geomean, median, quantile};
use crate::trace::{Ledger, Recorder};
use crate::{Metrics, Report, RunCfg, SETUPS};

const CLIENTS: usize = 2;

/// Per-function store capacity: small enough that reshapes evict entries,
/// as they do over a long session with many program versions.
const FUNC_CAPACITY: usize = 128;

/// Steps per client in the lockstep pass the exact store counts come from.
const COUNT_STEPS: usize = 2 * BLOCK;

/// Scratch directory for the daemon sockets, inside the working directory.
pub const SCRATCH: &str = ".perfbench";

fn config() -> ServeConfig {
    ServeConfig {
        options: Options::default(),
        func_capacity: FUNC_CAPACITY,
        ..ServeConfig::default()
    }
}

fn socket(n: usize) -> PathBuf {
    Path::new(SCRATCH).join(format!("vgld-{}-{n}.sock", std::process::id()))
}

/// Starts a daemon and compiles the base program from both sessions.
fn start(n: usize) -> Daemon {
    let daemon = Daemon::start(&socket(n), config()).expect("daemon binds its socket");
    for c in 0..CLIENTS {
        let mut client = Client::connect(daemon.socket_path()).expect("client connects");
        let req = Request::Compile {
            session: format!("client{c}"),
            source: base_source(),
        };
        let resp = client.request(&req).expect("daemon answers");
        assert_eq!(
            resp.get("compiled").and_then(Json::as_bool),
            Some(true),
            "base program compiles"
        );
    }
    daemon
}

/// One answered request, as the client saw it.
struct Served {
    kind: StepKind,
    source: String,
    ms: f64,
    traced: bool,
    resp: Result<Json, String>,
}

impl Served {
    fn num(&self, key: &str) -> u64 {
        self.resp
            .as_ref()
            .ok()
            .and_then(|r| r.get(key))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    }

    fn artifact_hit(&self) -> bool {
        let r = self.resp.as_ref().ok();
        r.and_then(|r| r.get("warm"))
            .and_then(|w| w.get("artifact_hit"))
            .and_then(Json::as_bool)
            == Some(true)
    }
}

/// What a served source must give: the one-shot compile's bytecode size
/// and method count, and `vgl-interp`'s behaviour.
struct Expected {
    code_size: u64,
    methods: u64,
    reference: Expect,
    /// A one-shot VM run of the same source matched `vgl-interp` with no
    /// boxed tuple (the daemon's own runs report no heap counters).
    agrees: bool,
    /// Front-half layer times of a traced replay (traced runs only).
    front: Vec<(&'static str, u64)>,
}

fn expected(source: &str, o: &Options, with_front: bool) -> Option<Expected> {
    let c = Compiler::with_options(*o).compile(source).ok()?;
    let mut front = Vec::new();
    if with_front {
        let mut rec = Recorder::new(Instant::now());
        let cfg = crate::pipeline::backend_config(o);
        let mut backend = vgl::BackendReport {
            jobs: cfg.jobs,
            ..Default::default()
        };
        let root = rec.open("core.compile", 0);
        crate::pipeline::front_half(&mut rec, 0, source, &cfg, &mut backend);
        rec.close(root);
        front = rec.self_ns().into_iter().collect();
    }
    let reference = check::reference(&c);
    let agrees = check::matches(&reference, &c.execute());
    Some(Expected {
        code_size: c.code_size() as u64,
        methods: c.compiled.methods.len() as u64,
        reference,
        agrees,
        front,
    })
}

/// The served VM run must equal `vgl-interp` and the served artifact the
/// one-shot compile.
fn response_ok(s: &Served, e: Option<&Expected>) -> bool {
    let (Ok(r), Some(e)) = (&s.resp, e) else {
        return false;
    };
    let result = match (r.get("result"), r.get("trap")) {
        (Some(v), _) => Ok(v.as_str().unwrap_or_default().to_string()),
        (None, Some(t)) => Err(t.as_str().unwrap_or_default().to_string()),
        (None, None) => return false,
    };
    let output = r.get("output").and_then(Json::as_str).unwrap_or_default();
    r.get("ok").and_then(Json::as_bool) == Some(true)
        && e.agrees
        && s.num("code_size") == e.code_size
        && s.num("methods") == e.methods
        && result == e.reference.result
        && output == e.reference.output
}

/// One-shot compiles, runs and interprets every distinct served source on
/// `CLIENTS` threads and checks each response against them.
fn verify(
    served: &[&Served],
    o: &Options,
    trace: bool,
    tally: &mut Tally,
) -> HashMap<String, Expected> {
    let mut distinct: Vec<(&str, bool)> = Vec::new();
    let mut seen = HashMap::new();
    for s in served {
        let front = trace && s.traced && !s.artifact_hit();
        let slot = *seen.entry(s.source.as_str()).or_insert_with(|| {
            distinct.push((s.source.as_str(), false));
            distinct.len() - 1
        });
        distinct[slot].1 |= front;
    }
    let chunks: Vec<_> = distinct
        .chunks(distinct.len().div_ceil(CLIENTS).max(1))
        .collect();
    let done: Vec<Vec<(String, Option<Expected>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|&(src, front)| (src.to_string(), expected(src, o, front)))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verifier thread"))
            .collect()
    });
    let mut map = HashMap::new();
    for (src, e) in done.into_iter().flatten() {
        if let Some(e) = e {
            map.insert(src, e);
        }
    }
    for s in served {
        tally.record(response_ok(s, map.get(&s.source)), || {
            format!(
                "{:?} request: response differs from a one-shot compile or vgl-interp",
                s.kind
            )
        });
    }
    map
}

/// Sum of the daemon's own per-request service times (`run` requests) in
/// a slice of its JSON-lines trace.
fn service_us(lines: &str) -> u64 {
    lines
        .lines()
        .filter_map(|l| vgl_obs::json::parse(l).ok())
        .filter(|j| j.get("cmd").and_then(Json::as_str) == Some("run"))
        .filter_map(|j| j.get("dur_us").and_then(Json::as_f64))
        .map(|us| us as u64)
        .sum()
}

pub fn run(cfg: &RunCfg) -> Report {
    let o = Options::default();
    std::fs::create_dir_all(SCRATCH).expect("scratch directory");
    let mut times = Vec::new();
    let mut daemon: Option<Daemon> = None;
    for n in 0..SETUPS {
        let t0 = Instant::now();
        let d = start(n);
        times.push(t0.elapsed().as_secs_f64());
        if let Some(old) = daemon.replace(d) {
            old.join();
        }
    }
    let daemon = daemon.expect("at least one set-up");
    let mut report = measure(cfg, &o, &daemon);
    daemon.join();
    report.metrics.insert("setup_s", median(&times));
    if cfg.trace {
        counts(cfg, &o, &mut report);
    }
    report
}

/// The timed window. A traced run splits it into four segments (plain,
/// traced, plain, traced); both clients meet at each boundary, so the
/// daemon's trace between two boundaries holds exactly that segment's
/// requests.
fn measure(cfg: &RunCfg, o: &Options, daemon: &Daemon) -> Report {
    let segments = if cfg.trace { 4 } else { 1 };
    let origin = Instant::now();
    let barrier = Barrier::new(CLIENTS);
    let marks = Mutex::new(vec![daemon.trace_lines().len()]);
    let per_client: Vec<(Vec<Served>, Recorder, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (barrier, marks) = (&barrier, &marks);
                scope.spawn(move || {
                    let mut client =
                        Client::connect(daemon.socket_path()).expect("client connects");
                    let mut session = Session::new(cfg.seed, c);
                    let mut rec = Recorder::new(origin);
                    let (mut served, mut traced_wall) = (Vec::new(), 0u64);
                    for seg in 0..segments {
                        let traced = cfg.trace && seg % 2 == 1;
                        let end = cfg.seconds * (seg + 1) as f64 / segments as f64;
                        let seg_start = rec.now_ns();
                        while origin.elapsed().as_secs_f64() < end {
                            let (kind, source) = session.next();
                            let req = Request::Run {
                                session: format!("client{c}"),
                                source: source.clone(),
                            };
                            let t0 = Instant::now();
                            let id = traced.then(|| {
                                rec.open("serve.request", (c as u64) << 32 | served.len() as u64)
                            });
                            let resp = client.request(&req).map_err(|e| e.to_string());
                            if let Some(id) = id {
                                rec.close(id);
                            }
                            let ms = t0.elapsed().as_secs_f64() * 1e3;
                            served.push(Served {
                                kind,
                                source,
                                ms,
                                traced,
                                resp,
                            });
                        }
                        if traced {
                            traced_wall += rec.now_ns() - seg_start;
                        }
                        if barrier.wait().is_leader() {
                            marks
                                .lock()
                                .expect("marks")
                                .push(daemon.trace_lines().len());
                        }
                        barrier.wait();
                    }
                    (served, rec, traced_wall)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = origin.elapsed().as_secs_f64();
    let served: Vec<&Served> = per_client.iter().flat_map(|p| &p.0).collect();
    let mut tally = Tally::default();
    let expected = verify(&served, o, cfg.trace, &mut tally);
    let mut metrics = Metrics::new();
    if cfg.trace {
        let marks = marks.into_inner().expect("marks");
        let lines = daemon.trace_lines();
        let service: u64 = (1..segments)
            .step_by(2)
            .map(|s| service_us(&lines[marks[s]..marks[s + 1]]))
            .sum();
        let traced: Vec<&&Served> = served.iter().filter(|s| s.traced).collect();
        let compile_ns: u64 = traced.iter().map(|s| s.num("compile_us") * 1000).sum();
        let mut ledger = Ledger {
            ops: traced.len() as u64,
            ..Ledger::default()
        };
        for (_, rec, wall) in &per_client {
            ledger.add(rec);
            ledger.wall_ns += wall;
        }
        ledger.split("serve.request", "serve.service", service * 1000);
        ledger.split("serve.service", "incr.reuse", compile_ns);
        let mut front_ns = 0;
        for s in traced.iter().filter(|s| !s.artifact_hit()) {
            for &(layer, ns) in expected.get(&s.source).map_or(&[][..], |e| &e.front) {
                ledger.split("incr.reuse", layer, ns);
                front_ns += ns;
            }
        }
        crate::ledger_metrics(&ledger, &mut metrics);
        let per_op = |ns: u64| ns as f64 / 1e6 / ledger.ops.max(1) as f64;
        metrics.insert("serve.service_ms", per_op(service * 1000));
        metrics.insert("incr.compile_ms", per_op(compile_ns));
        metrics.insert("incr.frontend_ms", per_op(front_ns));
        let kinds = [StepKind::Edit, StepKind::Resubmit, StepKind::Reshape];
        let ratios: Vec<f64> = kinds
            .iter()
            .filter_map(|&k| {
                let lat = |t: bool| {
                    served
                        .iter()
                        .filter(|s| s.kind == k && s.traced == t)
                        .map(|s| s.ms)
                        .collect::<Vec<_>>()
                };
                let (u, t) = (lat(false), lat(true));
                (!u.is_empty() && !t.is_empty()).then(|| median(&t) / median(&u))
            })
            .collect();
        metrics.insert("obs.trace_overhead", geomean(&ratios));
    } else {
        let all: Vec<f64> = served.iter().map(|s| s.ms).collect();
        metrics.insert("p50_ms", median(&all));
        metrics.insert("p90_ms", quantile(&all, 0.9));
        metrics.insert("ops_per_s", all.len() as f64 / elapsed);
        let lines: usize = served.iter().map(|s| s.source.lines().count()).sum();
        metrics.insert("kloc_per_s", lines as f64 / 1e3 / elapsed);
        let kinds = [StepKind::Edit, StepKind::Resubmit, StepKind::Reshape];
        let per_kind: Vec<f64> = kinds
            .iter()
            .map(|&k| {
                served
                    .iter()
                    .filter(|s| s.kind == k)
                    .map(|s| s.ms)
                    .collect::<Vec<_>>()
            })
            .filter(|l| !l.is_empty())
            .map(|l| median(&l))
            .collect();
        metrics.insert("geomean_ms", geomean(&per_kind));
        metrics.insert("code_instrs", count_code_instrs(cfg.seed, &expected));
    }
    let spans = per_client.into_iter().map(|p| p.1).collect();
    Report {
        tally,
        metrics,
        spans,
    }
}

/// Bytecode size summed over the first [`COUNT_STEPS`] steps of each
/// session: a fixed set of sources, so the count is exact for a seed.
fn count_code_instrs(seed: u64, expected: &HashMap<String, Expected>) -> f64 {
    let o = Options::default();
    (0..CLIENTS)
        .flat_map(|c| {
            let mut s = Session::new(seed, c);
            (0..COUNT_STEPS).map(move |_| s.next().1)
        })
        .map(|src| match expected.get(&src) {
            Some(e) => e.code_size as f64,
            None => Compiler::with_options(o)
                .compile(&src)
                .map_or(0.0, |c| c.code_size() as f64),
        })
        .sum()
}

/// Exact store counters from a fresh daemon driven through the first
/// [`COUNT_STEPS`] steps of both sessions in lockstep (client 0, client 1,
/// client 0, ...), so the store sees the same order every time.
fn counts(cfg: &RunCfg, o: &Options, report: &mut Report) {
    let daemon = start(SETUPS);
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|_| Client::connect(daemon.socket_path()).expect("client connects"))
        .collect();
    let mut sessions: Vec<Session> = (0..CLIENTS).map(|c| Session::new(cfg.seed, c)).collect();
    let mut served = Vec::new();
    for _ in 0..COUNT_STEPS {
        for c in 0..CLIENTS {
            let (kind, source) = sessions[c].next();
            let req = Request::Run {
                session: format!("client{c}"),
                source: source.clone(),
            };
            let resp = clients[c].request(&req).map_err(|e| e.to_string());
            served.push(Served {
                kind,
                source,
                ms: 0.0,
                traced: false,
                resp,
            });
        }
    }
    let stats = daemon.stats_json();
    drop(clients);
    daemon.join();
    let refs: Vec<&Served> = served.iter().collect();
    verify(&refs, o, false, &mut report.tally);
    let cache = stats.get("cache").expect("stats carry cache counters");
    let store = |level: &str, key: &str| {
        cache
            .get(level)
            .and_then(|l| l.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let m = &mut report.metrics;
    m.insert("incr.func_hit_rate", store("funcs", "hit_rate"));
    m.insert("incr.artifact_hit_rate", store("artifacts", "hit_rate"));
    m.insert(
        "incr.splice_rate",
        cache
            .get("splice_rate")
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
    );
    m.insert("incr.inserts", store("funcs", "inserts"));
    m.insert("incr.evictions", store("funcs", "evictions"));
    let tokens: usize = served
        .iter()
        .filter(|s| !s.artifact_hit())
        .map(|s| vgl_syntax::lexer::lex(&s.source, &mut vgl_syntax::Diagnostics::new()).len())
        .sum();
    m.insert("syntax.tokens", tokens as f64);
}
