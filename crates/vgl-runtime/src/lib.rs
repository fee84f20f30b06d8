//! # vgl-runtime
//!
//! Runtime substrates for virgil-rs:
//!
//! * [`value`] — the interpreter's boxed, type-carrying value representation
//!   (the §4.3 type-argument-passing strategy), with allocation counters.
//! * [`heap`] — the VM's tagged-word generational copying collector: a
//!   bump-allocated nursery with promoting minor collections on top of the
//!   "precise semi-space garbage collector" of the paper's native runtime
//!   (§5), which survives as the major collector. Write barriers feed a
//!   remembered set; allocation and collection statistics split minor/major.

#![warn(missing_docs)]

pub mod heap;
pub mod value;

pub use heap::{CellKind, GcEvent, GcKind, Heap, HeapStats, NeedsGc, Word, NULL};
pub use value::{AllocStats, ArrData, Closure, ObjData, Value};
