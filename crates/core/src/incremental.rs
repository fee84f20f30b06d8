//! Cross-request incremental compilation — the daemon's warm path.
//!
//! [`IncrementalCompiler`] wraps a [`Compiler`] with two persistent,
//! content-addressed, bounded-LRU stores (`vgl_passes::ShardedLru`):
//!
//! * **Level 1 — whole artifacts.** Keyed by a 128-bit source fingerprint
//!   plus the codegen-relevant option bits. A byte-identical resubmission
//!   (the same file saved twice, or two clients compiling the same source)
//!   returns the shared [`Compilation`] `Arc` without running anything.
//!
//! * **Level 2 — per-function artifacts.** Keyed by
//!   ([`vgl_passes::context_digest`], [`vgl_passes::reuse_fingerprints`],
//!   option bits), all computed **post-normalize**. The fingerprint covers
//!   the method and every method it can reach through calls, because the
//!   optimizer inlines callees' bodies. On an edit, the front end, mono,
//!   and normalize always run — normalize is cheap and serial, and its
//!   wrapper synthesis and type interning are order-sensitive global
//!   state, so skipping it would change id spaces. Every method whose
//!   fingerprint matches under the same context digest then skips
//!   optimize (its cached *post-optimize* body is spliced into the module
//!   and masked out of rewriting, so the devirtualization and inlining
//!   tables other methods fold against match the cold fixpoint) and skips
//!   lower + fuse (its cached fused bytecode is relocated into the
//!   reserved function slot by [`vgl_vm::lower_incremental`] and masked
//!   out of [`vgl_vm::fuse_cfg_masked`]).
//!
//! Level 2 is not a second pipeline: it is the reuse hook of the one
//! compile driver ([`Compiler::compile`] passes no hook), applied
//! post-normalize (`FuncStore::splice`), at lowering, and after fusion
//! (`FuncStore::publish`).
//!
//! The contract, pinned by the serving determinism suite: warm output is
//! **byte-identical** to a cold one-shot [`Compiler::compile`] of the same
//! source under the same options. A digest or fingerprint miss falls back
//! to exactly the cold path for that method, so the stores can be evicted
//! (or raced) freely without affecting output — only latency.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use vgl_ir::Module;
use vgl_passes::{
    call_graph, context_digest, inline_fingerprint, reuse_fingerprints, ShardedLru, StoreStats,
};
use vgl_vm::{Capture, ReusePlan, SpliceFunc, VmProgram};

use crate::{Compilation, CompileError, Compiler, Options};

/// Default level-1 capacity: whole compilations are big (module + bytecode),
/// and a serving session rarely juggles more than a few dozen live sources.
pub const DEFAULT_ARTIFACT_CAPACITY: usize = 64;

/// Default level-2 capacity: per-function artifacts are small and the whole
/// point is surviving edits, so keep room for many generations of a
/// program's method set.
pub const DEFAULT_FUNC_CAPACITY: usize = 4096;

/// Level-2 store key: an artifact is reusable exactly when the module
/// context, the content of the method and of everything it calls, and the
/// codegen options all match.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct FuncKey {
    ctx: (u64, u64),
    fp: (u64, u64),
    opts: u64,
}

/// One cached function: the post-optimize IR body (spliced into warm
/// modules so unchanged methods skip the optimizer while still feeding its
/// interprocedural tables) and the relocatable fused bytecode capture.
struct CachedFunc {
    opt_body: Option<vgl_ir::Body>,
    opt_locals: Vec<vgl_ir::Local>,
    /// [`inline_fingerprint`] of the post-optimize body.
    inline: Option<(u64, u64)>,
    splice: Arc<SpliceFunc>,
}

vgl_obs::stats! {
    /// Snapshot of the incremental stores' effectiveness, for `vgld stats`.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct IncrementalStats {
        /// Level-1 (whole-artifact) store counters.
        pub artifacts: StoreStats,
        /// Level-2 (per-function) store counters.
        pub funcs: StoreStats,
        /// Methods whose optimize+lower+fuse work was skipped via splicing.
        pub methods_spliced: usize,
        /// Methods compiled from scratch (and published to the store).
        pub methods_compiled: usize,
    }
}

impl IncrementalStats {
    /// Fraction of per-method back-end work skipped across all compiles.
    pub fn splice_rate(&self) -> f64 {
        let total = self.methods_spliced + self.methods_compiled;
        if total == 0 {
            0.0
        } else {
            self.methods_spliced as f64 / total as f64
        }
    }
}

/// Option bits that change compiled bytes and therefore partition the
/// stores. `jobs`, `pass_cache`, and `chunking` are excluded by the
/// determinism contract (they never change output); heap/fuel/tiering
/// thresholds only affect execution, except `tier` itself, which gates the
/// static fuse pass.
fn options_key(o: &Options) -> u64 {
    u64::from(o.optimize) | u64::from(o.fuse) << 1 | u64::from(o.tier) << 2
}

/// 128-bit source fingerprint (FNV-1a + 31-multiplier streams, the same
/// construction as `vgl_passes::cache`), joined with the option bits.
fn source_key(source: &str, opts: u64) -> (u64, u64, u64) {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut a = FNV_OFFSET;
    let mut b = 0x9e37_79b9_7f4a_7c15_u64;
    for &byte in source.as_bytes() {
        a = (a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        b = b.wrapping_mul(31).wrapping_add(u64::from(byte));
    }
    (a, b, opts)
}

/// The level-2 store and its counters — the reuse hook the compile
/// driver calls post-normalize ([`FuncStore::splice`]) and after fusion
/// ([`FuncStore::publish`]).
pub(crate) struct FuncStore {
    opts_key: u64,
    entries: ShardedLru<FuncKey, CachedFunc>,
    methods_spliced: AtomicUsize,
    methods_compiled: AtomicUsize,
    /// Bite seam for the edit-history lane: a deliberately weakened key.
    #[cfg(test)]
    weaken: tests::Weaken,
}

/// One compile's reuse decisions, made post-normalize.
pub(crate) struct Splice {
    ctx: (u64, u64),
    fps: Vec<(u64, u64)>,
    /// Which cached artifacts lowering splices in.
    pub(crate) plan: ReusePlan,
    /// `skip[i]`: method `i` was spliced, so optimize and fuse leave it be.
    pub(crate) skip: Vec<bool>,
}

impl FuncStore {
    fn new(opts_key: u64, capacity: usize) -> FuncStore {
        FuncStore {
            opts_key,
            entries: ShardedLru::new(capacity),
            methods_spliced: AtomicUsize::new(0),
            methods_compiled: AtomicUsize::new(0),
            #[cfg(test)]
            weaken: tests::Weaken::Nothing,
        }
    }

    /// The context digest and per-method fingerprints `module` is keyed by.
    fn keys(&self, module: &Module, calls: &[Vec<usize>]) -> ((u64, u64), Vec<(u64, u64)>) {
        let keys = (context_digest(module), reuse_fingerprints(module, calls));
        #[cfg(test)]
        let keys = self.weaken.apply(module, keys);
        keys
    }

    /// Post-normalize hook: digests the module context, fingerprints every
    /// method, looks each up, and splices every hit's post-optimize body
    /// into `module`.
    ///
    /// A hit is spliced only if it leaves the optimizer's view unchanged
    /// for every method that is optimized afresh. Such a method reads its
    /// callees' inline forms in every fixpoint round; a cold compile shows
    /// it each callee's form round by round, from the post-normalize body
    /// on, while a spliced callee shows its final form from round one. So
    /// a callee of a fresh method is spliced only when its inline form is
    /// the same before and after optimization (both absent, or equal —
    /// candidates only shrink, so that holds in every round). Callees that
    /// fail this are compiled afresh too, and their callees checked in
    /// turn.
    pub(crate) fn splice(&self, module: &mut Module) -> Splice {
        let calls = call_graph(module);
        let (ctx, fps) = self.keys(module, &calls);
        let n = module.methods.len();
        // Decisions are per fingerprint so duplicate instances (equal
        // fingerprint, different name) always agree — the optimizer's
        // skip mask must be duplicate-consistent even if the store evicts
        // between two lookups.
        let mut hits: HashMap<(u64, u64), Option<Arc<CachedFunc>>> = HashMap::new();
        let mut instances: HashMap<(u64, u64), Vec<usize>> = HashMap::new();
        for (i, &fp) in fps.iter().enumerate() {
            hits.entry(fp)
                .or_insert_with(|| self.entries.get(&FuncKey { ctx, fp, opts: self.opts_key }));
            instances.entry(fp).or_default().push(i);
        }
        let mut fresh: Vec<usize> = (0..n).filter(|&i| hits[&fps[i]].is_none()).collect();
        #[cfg(test)]
        self.weaken.skip_inline_check(&mut fresh);
        while let Some(i) = fresh.pop() {
            for &j in &calls[i] {
                let unstable = hits[&fps[j]]
                    .as_ref()
                    .is_some_and(|c| c.inline != inline_fingerprint(module, j));
                if unstable {
                    hits.insert(fps[j], None);
                    fresh.extend(&instances[&fps[j]]);
                }
            }
        }
        let mut funcs = Vec::with_capacity(n);
        let mut skip = Vec::with_capacity(n);
        for (m, fp) in module.methods.iter_mut().zip(&fps) {
            let hit = hits[fp].clone();
            if let Some(c) = &hit {
                m.body.clone_from(&c.opt_body);
                m.locals.clone_from(&c.opt_locals);
            }
            skip.push(hit.is_some());
            funcs.push(hit.map(|c| c.splice.clone()));
        }
        let spliced = skip.iter().filter(|&&b| b).count();
        self.methods_spliced.fetch_add(spliced, Ordering::Relaxed);
        self.methods_compiled.fetch_add(n - spliced, Ordering::Relaxed);
        Splice { ctx, fps, plan: ReusePlan { funcs }, skip }
    }

    /// After-fusion hook: publishes every freshly compiled method. Insert
    /// is content-addressed first-writer-wins, so racing compiles of equal
    /// methods share one entry; duplicate instances collapse onto their
    /// representative's key by fingerprint equality.
    pub(crate) fn publish(
        &self,
        splice: Splice,
        module: &Module,
        program: &VmProgram,
        captures: Vec<Option<Capture>>,
    ) {
        for (i, cap) in captures.into_iter().enumerate() {
            let Some(cap) = cap else { continue };
            self.entries.insert(
                FuncKey { ctx: splice.ctx, fp: splice.fps[i], opts: self.opts_key },
                CachedFunc {
                    opt_body: module.methods[i].body.clone(),
                    opt_locals: module.methods[i].locals.clone(),
                    inline: inline_fingerprint(module, i),
                    splice: Arc::new(cap.into_splice(program, i)),
                },
            );
        }
    }
}

/// A [`Compiler`] with persistent cross-request caching. Shareable across
/// threads (`&self` everywhere; the stores are lock-striped internally) —
/// the daemon holds one in an `Arc` and every session thread compiles
/// through it.
pub struct IncrementalCompiler {
    compiler: Compiler,
    opts_key: u64,
    artifacts: ShardedLru<(u64, u64, u64), Compilation>,
    funcs: FuncStore,
}

impl IncrementalCompiler {
    /// Wraps `compiler` with default store capacities.
    pub fn new(compiler: Compiler) -> IncrementalCompiler {
        IncrementalCompiler::with_capacity(
            compiler,
            DEFAULT_ARTIFACT_CAPACITY,
            DEFAULT_FUNC_CAPACITY,
        )
    }

    /// Wraps `compiler` with explicit level-1 / level-2 capacities.
    pub fn with_capacity(
        compiler: Compiler,
        artifact_capacity: usize,
        func_capacity: usize,
    ) -> IncrementalCompiler {
        let opts_key = options_key(&compiler.options);
        IncrementalCompiler {
            compiler,
            opts_key,
            artifacts: ShardedLru::new(artifact_capacity),
            funcs: FuncStore::new(opts_key, func_capacity),
        }
    }

    /// The wrapped compiler's options.
    pub fn options(&self) -> &Options {
        &self.compiler.options
    }

    /// Store effectiveness counters since construction.
    pub fn stats(&self) -> IncrementalStats {
        IncrementalStats {
            artifacts: self.artifacts.stats(),
            funcs: self.funcs.entries.stats(),
            methods_spliced: self.funcs.methods_spliced.load(Ordering::Relaxed),
            methods_compiled: self.funcs.methods_compiled.load(Ordering::Relaxed),
        }
    }

    /// Compiles `source`, reusing whole artifacts (level 1) and per-function
    /// artifacts (level 2) from previous calls where sound. Output is
    /// byte-identical to [`Compiler::compile`] with the same options.
    ///
    /// # Errors
    /// Returns every parse and type error with rendered positions, exactly
    /// as the one-shot path does (diagnostics are never cached).
    pub fn compile(&self, source: &str) -> Result<Arc<Compilation>, CompileError> {
        let skey = source_key(source, self.opts_key);
        if let Some(art) = self.artifacts.get(&skey) {
            return Ok(art);
        }
        let compilation = self.compiler.compile_staged(source, Some(&self.funcs))?;
        // First-writer-wins: concurrent compiles of the same source share
        // whichever artifact published first (they are byte-identical).
        Ok(self.artifacts.insert(skey, compilation))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = "
        class Shape {
            def area() -> int { return 0; }
        }
        class Square(s: int) extends Shape {
            def area() -> int { return s * s; }
        }
        def id<T>(x: T) -> T { return x; }
        def twice(x: int) -> int { return id(x) + id(x); }
        def main() -> int {
            var sh: Shape = Square.new(5);
            return sh.area() + twice(8);
        }
    ";

    // The same edit a serving client would make: only `twice` changes.
    const EDITED: &str = "
        class Shape {
            def area() -> int { return 0; }
        }
        class Square(s: int) extends Shape {
            def area() -> int { return s * s; }
        }
        def id<T>(x: T) -> T { return x; }
        def twice(x: int) -> int { return id(x) * 2; }
        def main() -> int {
            var sh: Shape = Square.new(5);
            return sh.area() + twice(8);
        }
    ";

    fn program_bytes(c: &Compilation) -> String {
        format!("{:?}|{:?}", c.program, vgl_passes::module_fingerprint(&c.compiled))
    }

    #[test]
    fn identical_source_shares_the_artifact() {
        let inc = IncrementalCompiler::new(Compiler::new());
        let a = inc.compile(BASE).expect("compiles");
        let b = inc.compile(BASE).expect("compiles");
        assert!(Arc::ptr_eq(&a, &b), "level-1 hit must return the shared artifact");
        let st = inc.stats();
        assert_eq!(st.artifacts.hits, 1);
        assert_eq!(a.execute().result.unwrap(), "41");
    }

    #[test]
    fn edited_source_reuses_functions_with_identical_output() {
        let inc = IncrementalCompiler::new(Compiler::new());
        inc.compile(BASE).expect("compiles");
        let warm = inc.compile(EDITED).expect("compiles");
        let cold = Compiler::new().compile(EDITED).expect("compiles");
        assert_eq!(program_bytes(&warm), program_bytes(&cold));
        assert_eq!(warm.execute().result.unwrap(), cold.execute().result.unwrap());
        let st = inc.stats();
        assert!(st.funcs.hits > 0, "unchanged methods must hit the store: {st:?}");
        assert!(st.methods_spliced > 0);
    }

    #[test]
    fn fused_artifacts_splice_byte_identically() {
        let mk = || Compiler::new().with_fuse().with_jobs(2);
        let inc = IncrementalCompiler::new(mk());
        inc.compile(BASE).expect("compiles");
        let warm = inc.compile(EDITED).expect("compiles");
        let cold = mk().compile(EDITED).expect("compiles");
        assert_eq!(program_bytes(&warm), program_bytes(&cold));
        assert!(inc.stats().methods_spliced > 0);
    }

    #[test]
    fn warm_compiles_report_the_same_phases_as_cold_ones() {
        let names = |c: &Compilation| c.trace.phases.iter().map(|p| p.name).collect::<Vec<_>>();
        for mk in [Compiler::new, || Compiler::new().with_fuse()] {
            let inc = IncrementalCompiler::new(mk());
            inc.compile(BASE).expect("compiles");
            let warm = inc.compile(EDITED).expect("compiles");
            assert!(inc.stats().methods_spliced > 0, "the second compile must be warm");
            let cold = mk().compile(EDITED).expect("compiles");
            assert_eq!(names(&warm), names(&cold));
        }
    }

    /// Histories per lane run, and edits per history.
    const LANE_HISTORIES: u64 = 64;
    const LANE_EDITS: usize = 10;

    /// Level-2 capacity for the lane: a few programs' worth, so histories
    /// evict each other's entries.
    const LANE_FUNC_CAPACITY: usize = 48;

    /// The edit-history oracle lane: drives `inc` through seeded histories
    /// and holds every step to a cold compile of the same source — same
    /// disassembly, same module fingerprint, same run. Returns the first
    /// divergence (a panicking warm compile counts).
    fn edit_history_lane(inc: &IncrementalCompiler, mk: fn() -> Compiler) -> Result<(), String> {
        for seed in 0..LANE_HISTORIES {
            for (k, step) in vgl_fuzz::edits::history(seed, LANE_EDITS).iter().enumerate() {
                let at = format!("history {seed} step {k} ({:?})", step.edit);
                let cold = mk().compile(&step.source).map_err(|e| format!("{at}: {e}"))?;
                let warm = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    inc.compile(&step.source)
                }))
                .map_err(|_| format!("{at}: warm compile panicked"))?
                .map_err(|e| format!("{at}: {e}"))?;
                if vgl_vm::disasm(&warm.program) != vgl_vm::disasm(&cold.program) {
                    return Err(format!("{at}: disassembly differs\n{}", step.source));
                }
                if vgl_passes::module_fingerprint(&warm.compiled)
                    != vgl_passes::module_fingerprint(&cold.compiled)
                {
                    return Err(format!("{at}: module fingerprint differs"));
                }
                let (w, c) = (warm.execute(), cold.execute());
                if (&w.result, &w.output) != (&c.result, &c.output) {
                    return Err(format!("{at}: run differs: {w:?} vs {c:?}"));
                }
            }
        }
        Ok(())
    }

    #[test]
    fn edit_histories_match_cold_compiles() {
        for mk in [Compiler::new as fn() -> Compiler, || Compiler::new().with_fuse()] {
            let inc = IncrementalCompiler::with_capacity(mk(), 4, LANE_FUNC_CAPACITY);
            edit_history_lane(&inc, mk).unwrap();
            let st = inc.stats();
            assert!(st.methods_spliced > 0 && st.funcs.evictions > 0, "{st:?}");
        }
    }

    /// Deliberate soundness bugs for the lane's bite test, each caught
    /// within the pinned budget.
    #[derive(Clone, Copy, Debug)]
    pub(super) enum Weaken {
        Nothing,
        /// Key entries without the module context digest.
        Context,
        /// Key entries by the method's own fingerprint, blind to the
        /// callee bodies the optimizer inlines.
        Callees,
        /// Splice callees whose inline form optimization changes.
        Inlines,
    }

    impl Weaken {
        pub(super) fn apply(
            self,
            module: &Module,
            (ctx, fps): ((u64, u64), Vec<(u64, u64)>),
        ) -> ((u64, u64), Vec<(u64, u64)>) {
            match self {
                Weaken::Nothing | Weaken::Inlines => (ctx, fps),
                Weaken::Context => ((0, 0), fps),
                Weaken::Callees => {
                    (ctx, module.methods.iter().map(vgl_passes::cache::method_fingerprint).collect())
                }
            }
        }

        pub(super) fn skip_inline_check(self, fresh: &mut Vec<usize>) {
            if let Weaken::Inlines = self {
                fresh.clear();
            }
        }
    }

    #[test]
    fn edit_history_lane_bites_weakened_reuse() {
        for weaken in [Weaken::Context, Weaken::Callees, Weaken::Inlines] {
            let mut inc =
                IncrementalCompiler::with_capacity(Compiler::new(), 4, LANE_FUNC_CAPACITY);
            inc.funcs.weaken = weaken;
            let caught = edit_history_lane(&inc, Compiler::new);
            assert!(caught.is_err(), "the lane missed reuse with {weaken:?} weakened");
        }
    }

    #[test]
    fn different_options_do_not_share_artifacts() {
        let inc_opt = IncrementalCompiler::new(Compiler::new());
        let inc_noopt = IncrementalCompiler::new(Compiler::new().without_optimizer());
        let a = inc_opt.compile(BASE).expect("compiles");
        let b = inc_noopt.compile(BASE).expect("compiles");
        // Same source, different option bits: separate keys, same result.
        assert_eq!(a.execute().result.unwrap(), b.execute().result.unwrap());
        assert_ne!(
            source_key(BASE, options_key(inc_opt.options())),
            source_key(BASE, options_key(inc_noopt.options()))
        );
    }
}
