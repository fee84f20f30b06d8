//! `compile_cold`: every source compiled by a fresh `Compiler` with the
//! default options, as a build tool invokes the compiler once per
//! program. No store, daemon or long VM run is involved.

use std::time::Instant;

use vgl::{Compiler, Options};

use crate::check::{self, Tally};
use crate::programs::{self, Corpus, Source};
use crate::rotation;
use crate::stats::Rng;
use crate::trace::Recorder;
use crate::{setup_median, Metrics, Report, RunCfg};

/// What the untimed reference compile of one source established.
pub struct Reference {
    /// Bytecode size the one-shot compile produced.
    pub code_size: usize,
    /// The compiled program's VM behaviour matched `vgl-interp`.
    pub agrees: bool,
}

/// Interpreter and VM step budgets of the reference run (the fuzz
/// oracle's). A fuzz program that exhausts them is replaced by the next
/// candidate, so every program in the corpus has a definite result.
const INTERP_FUEL: u64 = 4_000_000;
const VM_FUEL: u64 = 40_000_000;

/// Checks one source against `vgl-interp`; `None` when either engine did
/// not finish within its budget (the engines count steps differently, so
/// such a run has no definite result to compare).
pub fn reference(s: &Source, o: &Options) -> Option<Reference> {
    let bounded = Options {
        fuel: Some(INTERP_FUEL),
        ..*o
    };
    let c = match Compiler::with_options(bounded).compile(&s.text) {
        Ok(c) => c,
        Err(_) => {
            return Some(Reference {
                code_size: 0,
                agrees: false,
            })
        }
    };
    let expect = check::reference(&c);
    if expect
        .result
        .as_ref()
        .is_err_and(|e| e.contains("out of fuel"))
    {
        return None;
    }
    let vm_opts = Options {
        fuel: Some(VM_FUEL),
        ..*o
    };
    let run = check::execute_traced(&mut Recorder::new(Instant::now()), 0, &c.program, &vm_opts);
    if run
        .result
        .as_ref()
        .is_err_and(|e| e.contains("out of fuel"))
    {
        return None;
    }
    Some(Reference {
        code_size: c.code_size(),
        agrees: check::matches(&expect, &run),
    })
}

/// Picks the fuzz programs (the first candidates of each length stratum
/// with a definite reference result), orders the corpus, and checks every
/// source once.
pub fn select(seed: u64, corpus: &Corpus, o: &Options) -> (Vec<Source>, Vec<Reference>, Tally) {
    let per_stratum = corpus.large.len() * programs::SMALL_PER_LARGE / programs::FUZZ_STRATA.len();
    let mut filled = [0usize; programs::FUZZ_STRATA.len()];
    let mut small = Vec::new();
    for i in 0..20_000 {
        if filled.iter().all(|&n| n == per_stratum) {
            break;
        }
        let s = corpus.fuzz(i);
        let Some(k) = programs::FUZZ_STRATA
            .iter()
            .position(|&(lo, hi)| (lo..hi).contains(&s.text.len()))
        else {
            continue;
        };
        if filled[k] == per_stratum {
            continue;
        }
        if let Some(r) = reference(&s, o) {
            filled[k] += 1;
            small.push((s, r));
        }
    }
    Rng::new(seed).shuffle(&mut small);
    let large: Vec<(Source, Reference)> = corpus
        .large
        .iter()
        .map(|s| {
            (
                s.clone(),
                reference(s, o).unwrap_or(Reference {
                    code_size: 0,
                    agrees: false,
                }),
            )
        })
        .collect();
    let (sources, refs): (Vec<Source>, Vec<Reference>) =
        programs::interleave(small, large).into_iter().unzip();
    let mut tally = Tally::default();
    for (s, r) in sources.iter().zip(&refs) {
        tally.record(r.agrees, || {
            format!("{}: VM disagrees with vgl-interp", s.name)
        });
    }
    (sources, refs, tally)
}

pub fn run(cfg: &RunCfg) -> Report {
    let o = Options::default();
    let (setup_s, corpus) = setup_median(|| Corpus::new(cfg.seed));
    let (sources, refs, ref_tally) = select(cfg.seed, &corpus, &o);
    let mut report = measure(cfg, &o, &sources, &refs);
    report.tally.merge(ref_tally);
    report.metrics.insert("setup_s", setup_s);
    if cfg.trace {
        counts(&sources, &o, &mut report.metrics);
    }
    report
}

/// One load thread: a small compile overlapping a large one would time
/// the overlap, not the compile (with two threads the median moved by 3x
/// between runs). The compiler's own worker threads use both cores.
const LANES: usize = 1;

/// The timed window: the sources compiled round-robin, each compile
/// checked against the reference compile.
pub fn measure(cfg: &RunCfg, o: &Options, corpus: &[Source], refs: &[Reference]) -> Report {
    let order: Vec<usize> = (0..corpus.len()).collect();
    let lines: Vec<usize> = corpus.iter().map(|s| s.text.lines().count()).collect();
    let w = rotation::run(cfg, LANES, &order, &lines, |i, traced| {
        let size = match traced {
            Some((rec, id)) => {
                crate::pipeline::compile(rec, id, &corpus[i].text, o).map(|r| r.program.code_size())
            }
            None => Compiler::with_options(*o)
                .compile(&corpus[i].text)
                .ok()
                .map(|c| c.code_size()),
        };
        if refs[i].agrees && size == Some(refs[i].code_size) {
            Ok(0)
        } else {
            Err(format!(
                "{}: compile failed or differs from the reference",
                corpus[i].name
            ))
        }
    });
    let mut metrics = Metrics::new();
    if cfg.trace {
        w.per_layer(&mut metrics);
    } else {
        w.end_to_end(&mut metrics);
        metrics.insert("code_instrs", refs.iter().map(|r| r.code_size as f64).sum());
    }
    Report {
        tally: w.tally,
        metrics,
        spans: w.spans,
    }
}

/// Exact per-layer counts over one traced compile of every source.
fn counts(corpus: &[Source], o: &Options, metrics: &mut Metrics) {
    let mut rec = Recorder::new(Instant::now());
    let (mut tokens, mut before, mut after) = (0usize, 0usize, 0usize);
    let (mut norm, mut opt) = (vgl::CacheStats::default(), vgl::CacheStats::default());
    for s in corpus {
        if let Some(r) = crate::pipeline::compile(&mut rec, 0, &s.text, o) {
            tokens += r.tokens;
            before += r.instrs_before_fuse;
            after += r.program.code_size();
            norm.lookups += r.backend.norm_cache.lookups;
            norm.hits += r.backend.norm_cache.hits;
            opt.lookups += r.backend.opt_cache.lookups;
            opt.hits += r.backend.opt_cache.hits;
        }
    }
    metrics.insert("syntax.tokens", tokens as f64);
    metrics.insert("vm.instrs_before_fuse", before as f64);
    metrics.insert("vm.instrs_after_fuse", after as f64);
    metrics.insert("passes.norm_cache_hit_rate", norm.hit_rate());
    metrics.insert("passes.opt_cache_hit_rate", opt.hit_rate());
}
