//! The unified machine-readable report behind `vglc stats --json`.
//!
//! One JSON object ties together every observability surface of the system:
//! per-phase compile times ([`crate::PhaseTrace`]), the pipeline statistics
//! (E4's code-expansion data), the interpreter's dynamic cost counters
//! (boxed tuples, §4.1 call-site checks, type-environment lookups), and the
//! VM's counters plus, when profiled, the per-opcode histogram and GC event
//! log. `crates/bench` consumes this shape for the paper tables.

use crate::{Compilation, RunOutcome, RuntimeProfile, VmProfile};
use vgl_obs::json::{Json, ToJson};

/// Builds the full report for one compiled program.
///
/// `interp` and `vm` are outcomes from the respective engines (either may be
/// omitted); `profile` and `hotness` are the VM's opcode profile and
/// precise hotness profile (`Vm::enable_profiling` and
/// `Vm::enable_runtime_profiling_precise` on [`Compilation::vm`]).
pub fn stats_json(
    c: &Compilation,
    interp: Option<&RunOutcome>,
    vm: Option<&RunOutcome>,
    profile: Option<&VmProfile>,
    hotness: Option<&RuntimeProfile>,
) -> Json {
    let mut root = Json::object();
    root.set("phases", c.trace.to_json());
    root.set("pipeline", pipeline_json(c));
    root.set("bytecode_instrs", Json::from(c.code_size()));
    root.set("fuse", c.fuse.to_json());
    root.set("backend", backend_json(&c.backend));
    if let Some(run) = interp {
        let mut o = outcome_json(run);
        if let Some(s) = &run.interp_stats {
            o.set("stats", s.to_json());
        }
        root.set("interp", o);
    }
    if let Some(run) = vm {
        let mut o = outcome_json(run);
        if let Some(s) = &run.vm_stats {
            o.set("stats", s.to_json().with("ic_hit_rate", Json::Num(s.ic_hit_rate())));
        }
        if let Some(p) = profile {
            o.set("profile", p.to_json());
        }
        root.set("vm", o);
    }
    root.set("runtime", runtime_json(c, interp, vm, hotness));
    root
}

/// The unified `runtime` object: one schema for every dynamic-cost counter
/// the E-series scripts read, regardless of engine. The paper's headline
/// comparison — the interpreter boxes tuples and pays §4.1 call-site
/// checks, the VM structurally cannot — reads off the two `tuple_boxes`
/// fields, and the VM's inline-cache counters live under `vm.ic` instead of
/// being flattened into the stats bag.
fn runtime_json(
    c: &Compilation,
    interp: Option<&RunOutcome>,
    vm: Option<&RunOutcome>,
    hotness: Option<&RuntimeProfile>,
) -> Json {
    let mut rt = Json::object();
    if let Some(s) = interp.and_then(|r| r.interp_stats.as_ref()) {
        let mut o = Json::object();
        o.set("steps", Json::from(s.steps));
        o.set("tuple_boxes", Json::from(s.allocs.tuples));
        o.set("callsite_checks", Json::from(s.callsite_checks));
        o.set("callsite_adaptations", Json::from(s.callsite_adaptations));
        o.set("type_substitutions", Json::from(s.type_substitutions));
        o.set("env_lookups", Json::from(s.env_lookups));
        rt.set("interp", o);
    }
    if let Some(s) = vm.and_then(|r| r.vm_stats.as_ref()) {
        let mut o = Json::object();
        o.set("instrs", Json::from(s.instrs));
        o.set("tuple_boxes", Json::from(s.heap.tuple_boxes));
        o.set("calls", Json::from(s.calls));
        o.set("virtual_calls", Json::from(s.virtual_calls));
        o.set("closure_calls", Json::from(s.closure_calls));
        let mut ic = Json::object();
        ic.set("hits", Json::from(s.ic_hits));
        ic.set("misses", Json::from(s.ic_misses));
        ic.set("hit_rate", Json::Num(s.ic_hit_rate()));
        o.set("ic", ic);
        let mut tier = Json::object();
        tier.set("tier_ups", Json::from(s.tier_ups));
        tier.set("deopts", Json::from(s.deopts));
        tier.set("guarded_calls", Json::from(s.guarded_calls));
        tier.set("inlined_calls", Json::from(s.inlined_calls));
        o.set("tier", tier);
        o.set("gc_collections", Json::from(s.heap.collections));
        o.set("gc_minor", Json::from(s.heap.minor_collections));
        o.set("gc_major", Json::from(s.heap.major_collections));
        if let Some(h) = hotness {
            o.set("hotness", h.to_json(&c.program));
        }
        rt.set("vm", o);
    }
    rt
}

fn pipeline_json(c: &Compilation) -> Json {
    let s = &c.stats;
    let us = |d: std::time::Duration| Json::Num(d.as_secs_f64() * 1e6);
    let (mono, norm, opt) =
        (c.trace.duration("mono"), c.trace.duration("normalize"), c.trace.duration("optimize"));
    let times = Json::object()
        .with("mono_us", us(mono))
        .with("norm_us", us(norm))
        .with("opt_us", us(opt))
        .with("total_us", us(mono + norm + opt));
    Json::object()
        .with("mono", s.mono.to_json())
        .with("normalize", s.norm.to_json())
        .with("optimize", s.opt.to_json())
        .with("size_before", s.size_before.to_json())
        .with("size_after_mono", s.size_after_mono.to_json())
        .with("size_after", s.size_after.to_json())
        .with("expansion_ratio", Json::Num(c.expansion_ratio()))
        .with("pass_times", times)
}

fn outcome_json(run: &RunOutcome) -> Json {
    let mut o = Json::object();
    match &run.result {
        Ok(v) => o.set("result", Json::Str(v.clone())),
        Err(e) => o.set("error", Json::Str(e.clone())),
    }
    o.set("output_bytes", Json::from(run.output.len()));
    o
}

fn cache_json(c: &crate::CacheStats) -> Json {
    c.to_json().with("hit_rate", Json::Num(c.hit_rate()))
}

/// The parallel/cached back-end report: effective jobs, per-pass instance
/// cache effectiveness, and worker-attributed spans.
fn backend_json(b: &crate::BackendReport) -> Json {
    Json::object()
        .with("jobs", Json::from(b.jobs))
        .with("norm_cache", cache_json(&b.norm_cache))
        .with("opt_cache", cache_json(&b.opt_cache))
        .with("workers", Json::Arr(b.workers.iter().map(ToJson::to_json).collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Compiler;

    #[test]
    fn report_round_trips_through_the_parser() {
        let c = Compiler::new()
            .without_fuse()
            .compile(
                "def pair<T>(x: T) -> (T, T) { return (x, x); }\n\
                 def main() -> int { var p = pair(21); return p.0 + p.1; }",
            )
            .expect("compiles");
        let i = c.interpret();
        let mut vm = c.vm();
        vm.enable_profiling();
        vm.enable_runtime_profiling_precise();
        let v = crate::run_vm(&mut vm);
        let (prof, hot) = (vm.take_profile().unwrap(), vm.take_runtime_profile().unwrap());
        let j = stats_json(&c, Some(&i), Some(&v), Some(&prof), Some(&hot));
        let text = j.render();
        let back = vgl_obs::json::parse(&text).expect("valid json");
        assert_eq!(back.get("vm").and_then(|v| v.get("result")).and_then(Json::as_str), Some("42"));
        assert_eq!(
            back.get("interp").and_then(|v| v.get("result")).and_then(Json::as_str),
            Some("42")
        );
        let phases = back.get("phases").and_then(Json::as_arr).expect("phases array");
        let names: Vec<&str> =
            phases.iter().filter_map(|p| p.get("name").and_then(Json::as_str)).collect();
        assert_eq!(names, ["lex", "parse", "sema", "mono", "normalize", "optimize", "lower"]);
        // The interpreter boxes the tuple; the VM structurally cannot.
        let tuples = back
            .get("interp")
            .and_then(|v| v.get("stats"))
            .and_then(|v| v.get("allocs"))
            .and_then(|v| v.get("tuples"))
            .and_then(Json::as_u64);
        assert!(tuples.unwrap_or(0) > 0, "interp should box tuples: {tuples:?}");
        let backend = back.get("backend").expect("backend object");
        assert!(backend.get("jobs").and_then(Json::as_u64).unwrap_or(0) >= 1);
        assert!(
            backend.get("opt_cache").and_then(|v| v.get("lookups")).and_then(Json::as_u64)
                .unwrap_or(0)
                > 0,
            "optimize should have fingerprinted method instances"
        );
        assert!(backend.get("workers").and_then(Json::as_arr).is_some());
        let opcodes =
            back.get("vm").and_then(|v| v.get("profile")).and_then(|v| v.get("opcodes"));
        let retired: u64 = match opcodes {
            Some(Json::Obj(entries)) => entries.iter().filter_map(|(_, v)| v.as_u64()).sum(),
            _ => 0,
        };
        assert!(retired > 0, "profile should retire instructions");

        // The unified `runtime` object: one schema across both engines,
        // with tuple boxing at the same key on each side.
        let rt = back.get("runtime").expect("runtime object");
        let rt_tuples = |engine: &str| {
            rt.get(engine).and_then(|v| v.get("tuple_boxes")).and_then(Json::as_u64)
        };
        assert!(rt_tuples("interp").unwrap_or(0) > 0, "interp boxes tuples");
        assert_eq!(rt_tuples("vm"), Some(0), "the VM structurally cannot box tuples");
        let ic = rt.get("vm").and_then(|v| v.get("ic")).expect("ic counters");
        assert!(ic.get("hit_rate").and_then(Json::as_f64).is_some());
        let hotness = rt
            .get("vm")
            .and_then(|v| v.get("hotness"))
            .and_then(Json::as_arr)
            .expect("hotness ranking");
        assert!(!hotness.is_empty());
        assert!(hotness[0].get("excl_instrs").and_then(Json::as_u64).is_some());
    }
}
