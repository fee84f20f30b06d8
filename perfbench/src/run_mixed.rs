//! `run_mixed`: programs compiled during set-up with `vglc run`'s default
//! options (tiering on), then executed in a seeded rotation on two
//! threads. VM dispatch, tier-up and the collector do almost all the work.

use vgl::{Compilation, Compiler, Options};

use crate::check::{self, Expect};
use crate::programs::{run_programs, Source};
use crate::rotation;
use crate::stats::Rng;
use crate::{setup_median, Metrics, Report, RunCfg};

pub fn options() -> Options {
    Options {
        tier: true,
        ..Options::default()
    }
}

pub fn run(cfg: &RunCfg) -> Report {
    let o = options();
    let programs = run_programs(cfg.seed);
    let (setup_s, compiled) = setup_median(|| {
        programs
            .iter()
            .map(|p| {
                Compiler::with_options(o)
                    .compile(&p.text)
                    .expect("run_mixed programs compile")
            })
            .collect::<Vec<_>>()
    });
    let expects: Vec<Expect> = compiled.iter().map(check::reference).collect();
    let mut report = measure(cfg, &o, &programs, &compiled, &expects);
    report.metrics.insert("setup_s", setup_s);
    if cfg.trace {
        counts(&compiled, &expects, &mut report);
    }
    report
}

/// Load threads: two programs run side by side (an allocation-heavy one
/// beside a dispatch-heavy one, say) and the measurement spans both cores.
const LANES: usize = 2;

/// The timed window: [`LANES`] threads over the programs in a seeded
/// order, each run checked against `vgl-interp`.
pub fn measure(
    cfg: &RunCfg,
    o: &Options,
    programs: &[Source],
    compiled: &[Compilation],
    expects: &[Expect],
) -> Report {
    let mut order: Vec<usize> = (0..programs.len()).collect();
    Rng::new(cfg.seed).shuffle(&mut order);
    let lines: Vec<usize> = programs.iter().map(|p| p.text.lines().count()).collect();
    let w = rotation::run(cfg, LANES, &order, &lines, |i, traced| {
        let run = match traced {
            Some((rec, id)) => check::execute_traced(rec, id, &compiled[i].program, o),
            None => compiled[i].execute(),
        };
        if check::matches(&expects[i], &run) {
            Ok(run.vm_stats.map_or(0, |s| s.instrs))
        } else {
            Err(format!(
                "{}: {:?} differs from vgl-interp {:?}",
                programs[i].name, run.result, expects[i].result
            ))
        }
    });
    let mut metrics = Metrics::new();
    if cfg.trace {
        w.per_layer(&mut metrics);
        let run_ms = w.total_ms("vm.run");
        metrics.insert("vm.run_ms", run_ms / w.ledger.ops.max(1) as f64);
        metrics.insert(
            "vm.minstrs_per_s",
            w.traced_count as f64 / 1e6 / (run_ms / 1e3).max(1e-9),
        );
    } else {
        w.end_to_end(&mut metrics);
        metrics.insert(
            "code_instrs",
            compiled.iter().map(|c| c.code_size() as f64).sum(),
        );
    }
    Report {
        tally: w.tally,
        metrics,
        spans: w.spans,
    }
}

/// Exact VM, tier, collector and heap counts over one execution of every
/// program. `heap.closures` is the baseline for removing closure cells;
/// `heap.tuple_boxes` must stay 0.
fn counts(compiled: &[Compilation], expects: &[Expect], report: &mut Report) {
    let mut s = vgl::VmStats::default();
    for (c, e) in compiled.iter().zip(expects) {
        let run = c.execute();
        report.tally.record(check::matches(e, &run), || {
            "count pass differs from vgl-interp".into()
        });
        let r = run.vm_stats.unwrap_or_default();
        s.instrs += r.instrs;
        s.closure_calls += r.closure_calls;
        s.ic_hits += r.ic_hits;
        s.ic_misses += r.ic_misses;
        s.tier_ups += r.tier_ups;
        s.deopts += r.deopts;
        s.inlined_calls += r.inlined_calls;
        s.heap.minor_collections += r.heap.minor_collections;
        s.heap.major_collections += r.heap.major_collections;
        s.heap.copied_slots += r.heap.copied_slots;
        s.heap.promoted_slots += r.heap.promoted_slots;
        s.heap.allocated_slots += r.heap.allocated_slots;
        s.heap.closures += r.heap.closures;
        s.heap.tuple_boxes += r.heap.tuple_boxes;
    }
    let m = &mut report.metrics;
    m.insert("vm.instrs", s.instrs as f64);
    m.insert("vm.ic_hit_rate", s.ic_hit_rate());
    m.insert("vm.closure_calls", s.closure_calls as f64);
    m.insert("tier.tier_ups", s.tier_ups as f64);
    m.insert("tier.deopts", s.deopts as f64);
    m.insert("tier.inlined_calls", s.inlined_calls as f64);
    m.insert("gc.minor", s.heap.minor_collections as f64);
    m.insert("gc.major", s.heap.major_collections as f64);
    m.insert("gc.copied_slots", s.heap.copied_slots as f64);
    m.insert("gc.promoted_slots", s.heap.promoted_slots as f64);
    m.insert("heap.allocated_slots", s.heap.allocated_slots as f64);
    m.insert("heap.closures", s.heap.closures as f64);
    m.insert("heap.tuple_boxes", s.heap.tuple_boxes as f64);
}
