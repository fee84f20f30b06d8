//! Output checking. The reference for every result is `vgl-interp` run on
//! the same source (untimed, outside set-up): the VM's result, printed
//! output and trap must all equal it. A trap that matches is a correct
//! result, not a failure.

use vgl::{Compilation, Options, RunOutcome};

use crate::trace::Recorder;

/// The reference behaviour of one program.
#[derive(Debug)]
pub struct Expect {
    pub result: Result<String, String>,
    pub output: String,
}

/// Runs the reference interpreter on the typed source module.
pub fn reference(c: &Compilation) -> Expect {
    let run = c.interpret();
    Expect {
        result: run.result,
        output: run.output,
    }
}

/// Whether a VM run matches the reference and kept the paper's
/// no-boxing invariant (`heap.tuple_boxes == 0`).
pub fn matches(e: &Expect, run: &RunOutcome) -> bool {
    let boxed = run.vm_stats.is_some_and(|s| s.heap.tuple_boxes != 0);
    !boxed && run.result == e.result && run.output == e.output
}

/// `Compilation::execute` on a VM built here, inside a `vm.run` span, with
/// each collection's pause (which only the heap can time) recorded as a
/// `gc.pause` child. Like `execute`, the span covers building and dropping
/// the VM.
pub fn execute_traced(
    rec: &mut Recorder,
    req: u64,
    program: &vgl_vm::VmProgram,
    o: &Options,
) -> RunOutcome {
    let id = rec.open("vm.run", req);
    let mut vm = vgl::Vm::with_heap_config(program, o.heap_slots, o.nursery_slots);
    if o.tier {
        vm.enable_tiering(o.tier_threshold);
    }
    if let Some(f) = o.fuel {
        vm.set_fuel(f);
    }
    vm.enable_gc_timeline();
    let result = vm
        .run()
        .map(|w| display_words(&w))
        .map_err(|e| e.to_string());
    let (output, stats) = (vm.output(), vm.stats);
    let pauses: Vec<u64> = vm
        .gc_timeline()
        .iter()
        .map(|g| g.pause.as_nanos() as u64)
        .collect();
    drop(vm);
    rec.close(id);
    for p in pauses {
        rec.reported_child(id, "gc.pause", p);
    }
    RunOutcome {
        result,
        output,
        interp_stats: None,
        vm_stats: Some(stats),
    }
}

/// Display form of a VM result, as `Compilation::execute` renders it.
pub fn display_words(words: &[u64]) -> String {
    use vgl_runtime::heap::{as_i32, is_ref};
    match words {
        [] => "()".to_string(),
        [_] if vgl_vm::ret_is_ref(words) => "<ref>".to_string(),
        [_] => vgl_vm::ret_as_int(words).unwrap_or(0).to_string(),
        _ => {
            let parts: Vec<String> = words
                .iter()
                .map(|&w| {
                    if is_ref(w) {
                        "<ref>".to_string()
                    } else {
                        as_i32(w).to_string()
                    }
                })
                .collect();
            format!("({})", parts.join(", "))
        }
    }
}

/// Operations attempted and failed (refused, errored or mismatched).
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub notes: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(
            other
                .notes
                .into_iter()
                .take(8usize.saturating_sub(self.notes.len())),
        );
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_execution_equals_execute() {
        let o = Options {
            tier: true,
            ..Options::default()
        };
        let c = vgl::Compiler::with_options(o)
            .compile(&vgl_bench::workloads::server_churn(3000))
            .expect("compiles");
        let plain = c.execute();
        let mut rec = Recorder::new(std::time::Instant::now());
        let traced = execute_traced(&mut rec, 0, &c.program, &o);
        assert_eq!(plain.result, traced.result);
        assert_eq!(plain.output, traced.output);
        assert!(matches(&reference(&c), &traced));
        assert!(rec.spans.iter().any(|s| s.name == "gc.pause"));
    }
}
