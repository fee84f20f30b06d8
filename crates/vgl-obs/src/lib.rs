//! # vgl-obs
//!
//! The measurement types shared by the compiler and the VM, and a
//! dependency-free JSON value type (writer *and* parser) in [`json`]:
//!
//! * the **compile driver** times each phase (lex, parse, sema, mono,
//!   normalize, optimize, lower, fuse) into a [`PhaseTrace`] of
//!   [`PhaseSample`]s, and the parallel back-end passes report one
//!   [`WorkerSample`] per worker;
//! * every **stats struct** (pipeline, back-end, VM, heap and interpreter
//!   counters) is declared through [`stats!`], which serializes its fields
//!   under their own names;
//! * [`flight`] holds the fixed-capacity ring behind the VM's flight
//!   recorder and trace log, and [`trace`] builds Chrome trace-event JSON.
//!
//! The paper's evaluation rests on *measured* claims (no boxing after
//! normalization, code expansion under monomorphization, the interpreter's
//! "considerable runtime cost"); these types carry the counters behind
//! them. Hot loops (the VM dispatch loop) accumulate plain counters and
//! report once.
//!
//! ```
//! use vgl_obs::json::ToJson;
//! use vgl_obs::PhaseTrace;
//!
//! vgl_obs::stats! {
//!     /// Lookups against a cache.
//!     #[derive(Default)]
//!     pub struct Lookups {
//!         /// Lookups made.
//!         pub lookups: usize,
//!         /// Lookups that hit.
//!         pub hits: usize,
//!     }
//! }
//!
//! let mut trace = PhaseTrace::new();
//! let s = trace.time("lookup", 4, || Lookups { lookups: 4, hits: 3 }, |s| s.hits);
//! assert_eq!(s.to_json().render(), r#"{"lookups":4,"hits":3}"#);
//! assert_eq!(trace.phases[0].items_out, 3);
//! ```

#![warn(missing_docs)]

pub mod flight;
pub mod json;
pub mod trace;

/// Declares a stats struct and serializes it from that declaration: the
/// struct is emitted unchanged, plus a [`json::ToJson`] impl that writes
/// every field, in declaration order, under its own name. Fields must be
/// counters or other stats structs. Derived rates (`hit_rate` and the
/// like) are not fields; the code rendering a view adds them. See the
/// crate docs for an example.
#[macro_export]
macro_rules! stats {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$field_meta:meta])* $field_vis:vis $field:ident : $ty:ty),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$field_meta])* $field_vis $field: $ty),*
        }

        impl $crate::json::ToJson for $name {
            fn to_json(&self) -> $crate::json::Json {
                let mut o = $crate::json::Json::object();
                $(o.set(stringify!($field), $crate::json::ToJson::to_json(&self.$field));)*
                o
            }
        }
    };
}

use std::time::{Duration, Instant};

use json::{Json, ToJson};

/// One timed compiler phase with item counts in/out (IR nodes, instructions
/// — whatever the phase transforms).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseSample {
    /// Phase name (`"parse"`, `"mono"`, ...).
    pub name: &'static str,
    /// Wall-clock duration.
    pub duration: Duration,
    /// Items entering the phase.
    pub items_in: usize,
    /// Items leaving the phase.
    pub items_out: usize,
}

/// One worker's share of a parallel phase: which phase, which worker, how
/// many items it claimed from the shared queue, and how long its claim loop
/// ran. Worker attribution is telemetry only — it is explicitly *not* part
/// of the determinism contract (the same compile at a different `--jobs`
/// produces identical output but different worker spans).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerSample {
    /// Parallel phase name (`"optimize"`, `"fuse"`, `"hash"`, ...).
    pub phase: &'static str,
    /// Worker index within the pool (0-based; jobs=1 runs inline as worker 0).
    pub worker: usize,
    /// Items this worker claimed and processed.
    pub items: usize,
    /// Offset of this worker's first claim relative to the start of the
    /// parallel phase — places the lane on a shared timeline.
    pub start: Duration,
    /// Busy wall-clock time of this worker's claim loop.
    pub duration: Duration,
}

impl ToJson for WorkerSample {
    fn to_json(&self) -> Json {
        Json::object()
            .with("phase", Json::from(self.phase))
            .with("worker", Json::from(self.worker))
            .with("items", Json::from(self.items))
            .with("start_us", Json::Num(self.start.as_secs_f64() * 1e6))
            .with("dur_us", Json::Num(self.duration.as_secs_f64() * 1e6))
    }
}

/// Renders an aligned per-worker table for the parallel phases; empty
/// string when no parallel phase ran.
pub fn render_workers(workers: &[WorkerSample]) -> String {
    if workers.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:>6} {:>8} {:>12}\n",
        "phase", "worker", "items", "busy (us)"
    ));
    for w in workers {
        out.push_str(&format!(
            "{:<10} {:>6} {:>8} {:>12.1}\n",
            w.phase,
            w.worker,
            w.items,
            w.duration.as_secs_f64() * 1e6
        ));
    }
    out
}

/// An ordered collection of [`PhaseSample`]s for one compilation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseTrace {
    /// Samples in phase order.
    pub phases: Vec<PhaseSample>,
}

impl PhaseTrace {
    /// An empty trace.
    pub fn new() -> PhaseTrace {
        PhaseTrace::default()
    }

    /// Times `f`, recording a sample named `name` with the given in/out item
    /// counts computed from its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        items_in: usize,
        f: impl FnOnce() -> T,
        items_out: impl FnOnce(&T) -> usize,
    ) -> T {
        let start = Instant::now();
        let r = f();
        self.phases.push(PhaseSample {
            name,
            duration: start.elapsed(),
            items_in,
            items_out: items_out(&r),
        });
        r
    }

    /// Total wall-clock time across phases.
    pub fn total(&self) -> Duration {
        self.phases.iter().map(|p| p.duration).sum()
    }

    /// Wall-clock time of the phase named `name`; zero when it did not run.
    pub fn duration(&self, name: &str) -> Duration {
        self.phases.iter().filter(|p| p.name == name).map(|p| p.duration).sum()
    }

    /// Updates `items_out` on the most recent sample *iff* it is named
    /// `name`; a no-op when the trace is empty or the last phase is a
    /// different one (e.g. the phase list was reordered or tracing is
    /// disabled). Replaces the old `phases.last_mut().expect(...)` pattern,
    /// which panicked instead of degrading.
    pub fn set_items_out(&mut self, name: &'static str, items: usize) {
        if let Some(p) = self.phases.last_mut() {
            if p.name == name {
                p.items_out = items;
            }
        }
    }

    /// Renders an aligned per-phase table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<10} {:>12} {:>10} {:>10}\n",
            "phase", "time (us)", "items in", "items out"
        ));
        for p in &self.phases {
            out.push_str(&format!(
                "{:<10} {:>12.1} {:>10} {:>10}\n",
                p.name,
                p.duration.as_secs_f64() * 1e6,
                p.items_in,
                p.items_out
            ));
        }
        out.push_str(&format!(
            "{:<10} {:>12.1}\n",
            "total",
            self.total().as_secs_f64() * 1e6
        ));
        out
    }

    /// JSON: an array of per-phase objects.
    pub fn to_json(&self) -> json::Json {
        json::Json::Arr(
            self.phases
                .iter()
                .map(|p| {
                    let mut o = json::Json::object();
                    o.set("name", json::Json::Str(p.name.to_string()));
                    o.set("dur_us", json::Json::Num(p.duration.as_secs_f64() * 1e6));
                    o.set("items_in", json::Json::from(p.items_in as u64));
                    o.set("items_out", json::Json::from(p.items_out as u64));
                    o
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_trace_times_and_renders() {
        let mut trace = PhaseTrace::new();
        let v = trace.time("parse", 100, || vec![1, 2, 3], |r| r.len());
        assert_eq!(v.len(), 3);
        assert_eq!(trace.phases.len(), 1);
        assert_eq!(trace.phases[0].items_in, 100);
        assert_eq!(trace.phases[0].items_out, 3);
        assert_eq!(trace.duration("parse"), trace.phases[0].duration);
        assert_eq!(trace.duration("mono"), Duration::ZERO);
        let table = trace.render_table();
        assert!(table.contains("parse"));
        assert!(table.contains("total"));
        let j = trace.to_json().render();
        let parsed = json::parse(&j).expect("valid");
        assert_eq!(parsed.as_arr().unwrap().len(), 1);
    }
}
