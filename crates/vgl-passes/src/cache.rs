//! The per-instance pass cache: content-based identity for post-mono
//! method instances.
//!
//! Monomorphization copies a polymorphic method once per distinct
//! type-argument assignment (§4.3). When a type parameter does not actually
//! reach the method's signature, locals, or body — phantom parameters,
//! dead-branch-only uses that mono already resolved, or plain duplicated
//! helper bodies — the copies are **structurally identical**, and running
//! normalize/optimize on each is wasted work. Instance identity here is
//! content-based, not name-based: two methods are duplicates iff everything
//! *except their name* (owner, kind, privacy, signature, locals, body,
//! vtable slot) hashes equal under a 128-bit fingerprint.
//!
//! The fingerprint feeds the IR's `Debug` rendering through a
//! non-allocating `fmt::Write` adapter into two independent 64-bit streams
//! (FNV-1a and a 31-multiplier stream), so no intermediate strings are
//! built. Types print as interned ids (`ty#N`), which is exactly right:
//! the interner is deterministic, so structurally identical methods
//! reference identical ids.

use std::collections::HashMap;
use std::fmt::{self, Write};
use std::sync::Mutex;
use vgl_ir::{Method, Module};
use vgl_obs::WorkerSample;

use crate::sched;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Two independent 64-bit hash streams fed by `fmt::Write` — a 128-bit
/// combined key makes accidental collision between distinct instances
/// (which would silently merge their compiled bodies) a non-concern.
struct FingerprintWriter {
    a: u64,
    b: u64,
}

impl FingerprintWriter {
    fn new() -> FingerprintWriter {
        FingerprintWriter { a: FNV_OFFSET, b: 0x9e37_79b9_7f4a_7c15 }
    }
}

impl Write for FingerprintWriter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &byte in s.as_bytes() {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            self.b = self.b.wrapping_mul(31).wrapping_add(u64::from(byte));
        }
        Ok(())
    }
}

/// The same two independent streams as [`FingerprintWriter`], fed
/// structurally through `std::hash::Hasher` instead of through `Debug`
/// rendering. Fingerprinting is on the hot path of every warm daemon
/// compile (every method of every request is fingerprinted before the
/// function store can answer), and formatting machinery was the dominant
/// cost — hashing the IR tree directly is several times faster and keyed
/// on exactly the same structure (derived `Hash` visits every field the
/// `Debug` rendering printed, types still as interned ids).
struct FingerprintHasher {
    a: u64,
    b: u64,
}

impl FingerprintHasher {
    fn new() -> FingerprintHasher {
        FingerprintHasher { a: FNV_OFFSET, b: 0x9e37_79b9_7f4a_7c15 }
    }
}

impl std::hash::Hasher for FingerprintHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            self.b = self.b.wrapping_mul(31).wrapping_add(u64::from(byte));
        }
    }

    fn finish(&self) -> u64 {
        self.a
    }
}

/// 128-bit content fingerprint of a post-mono method, **excluding its
/// name**: two methods with equal fingerprints are interchangeable inputs
/// to normalize and optimize.
pub fn method_fingerprint(m: &Method) -> (u64, u64) {
    use std::hash::Hash;
    let mut h = FingerprintHasher::new();
    m.owner.hash(&mut h);
    m.is_private.hash(&mut h);
    m.kind.hash(&mut h);
    m.type_params.hash(&mut h);
    m.param_count.hash(&mut h);
    m.locals.hash(&mut h);
    m.ret.hash(&mut h);
    m.body.hash(&mut h);
    m.vtable_index.hash(&mut h);
    (h.a, h.b)
}

/// Every method's direct callees, sorted: static call targets, plus every
/// implementation in any vtable at the slot a virtual call names (a
/// superset of what devirtualization can bind it to). These are the
/// methods whose inline forms the optimizer reads when it rewrites the
/// caller.
pub fn call_graph(module: &Module) -> Vec<Vec<usize>> {
    use vgl_ir::ExprKind;
    let slots = module.classes.iter().map(|c| c.vtable.len()).max().unwrap_or(0);
    let mut by_slot: Vec<Vec<usize>> = vec![Vec::new(); slots];
    for c in &module.classes {
        for (slot, m) in c.vtable.iter().enumerate() {
            by_slot[slot].push(m.index());
        }
    }
    module
        .methods
        .iter()
        .map(|m| {
            let mut out = Vec::new();
            if let Some(body) = &m.body {
                vgl_ir::visit::for_each_expr(body, &mut |e| match &e.kind {
                    ExprKind::CallStatic { method, .. } => out.push(method.index()),
                    ExprKind::CallVirtual { method, .. } => {
                        out.push(method.index());
                        if let Some(slot) = module.methods[method.index()].vtable_index {
                            out.extend(by_slot.get(slot).into_iter().flatten());
                        }
                    }
                    _ => {}
                });
            }
            out.sort_unstable();
            out.dedup();
            out
        })
        .collect()
}

/// [`method_fingerprint`] of every method, extended over the bodies its
/// optimization reads. The optimizer inlines small leaf callees at direct
/// call sites — devirtualized ones included — and whether a callee is a
/// leaf depends on what *it* inlined, so a method's post-optimize body
/// depends on every method reachable through its [`call_graph`] edges.
/// Each result hashes the method's own fingerprint with those of
/// everything it reaches, so an edit to a callee changes every caller's
/// key. Meaningful only alongside an equal [`context_digest`], which pins
/// the method ids the reach sets are expressed in.
pub fn reuse_fingerprints(module: &Module, calls: &[Vec<usize>]) -> Vec<(u64, u64)> {
    use std::hash::Hash;
    let own: Vec<(u64, u64)> = module.methods.iter().map(method_fingerprint).collect();
    let mut seen = vec![usize::MAX; own.len()];
    let mut stack = Vec::new();
    (0..own.len())
        .map(|i| {
            let mut reach = Vec::new();
            stack.push(i);
            seen[i] = i;
            while let Some(j) = stack.pop() {
                for &k in &calls[j] {
                    if seen[k] != i {
                        seen[k] = i;
                        reach.push(k);
                        stack.push(k);
                    }
                }
            }
            reach.sort_unstable();
            let mut h = FingerprintHasher::new();
            own[i].hash(&mut h);
            for k in reach {
                (k, own[k]).hash(&mut h);
            }
            (h.a, h.b)
        })
        .collect()
}

/// 128-bit hash of the form a call to method `i` inlines as
/// ([`crate::inline_candidate`]), `None` when `i` is not an inline
/// candidate.
pub fn inline_fingerprint(module: &Module, i: usize) -> Option<(u64, u64)> {
    use std::hash::Hash;
    let e = crate::inline_candidate(module, i)?;
    let mut h = FingerprintHasher::new();
    (module.methods[i].param_count, e).hash(&mut h);
    Some((h.a, h.b))
}

/// A single 64-bit content hash of a whole module — classes, methods
/// (names included this time), globals, and entry point. Used by the
/// determinism suite to compare `--jobs 1` vs `--jobs 8` compiles beyond
/// the disassembly text. The type interner itself is excluded (its map is
/// unordered); every type the program can observe is reachable through the
/// hashed items as interned ids.
pub fn module_fingerprint(m: &Module) -> u64 {
    use std::hash::Hash;
    let mut h = FingerprintHasher::new();
    m.classes.hash(&mut h);
    m.methods.hash(&mut h);
    m.globals.hash(&mut h);
    m.main.hash(&mut h);
    h.a ^ h.b.rotate_left(32)
}

/// 128-bit digest of everything compiled bytecode can reference **by
/// index** across compiles: the full type-interner dump (id order), the
/// class hierarchy and layouts, the globals, the entry point, and every
/// method's *signature* (owner, kind, privacy, parameter types, return
/// type, vtable slot) — but **not** method names or bodies.
///
/// Two post-normalize modules with equal digests agree on every id space a
/// [`method_fingerprint`]-keyed artifact embeds — type ids, `MethodId` /
/// `FuncId`, `ClassId`, `GlobalId`, field slots, vtable slots — so a
/// function artifact cached under one module can be soundly reused in the
/// other wherever the fingerprints also match. Bodies are excluded (they
/// are what the fingerprints compare); names are excluded so renames stay
/// warm, the same policy as `method_fingerprint`.
pub fn context_digest(module: &Module) -> (u64, u64) {
    let mut h = FingerprintWriter::new();
    for k in module.store.kinds() {
        write!(h, "{k:?};").expect("hash writer never fails");
    }
    write!(h, "|{:?}|{:?}|{:?}|{:?}|{}", module.hier, module.classes, module.globals, module.main, module.methods.len())
        .expect("hash writer never fails");
    for m in &module.methods {
        write!(h, "|{:?}|{:?}|{:?}|{:?}|{}", m.owner, m.is_private, m.kind, m.type_params, m.param_count)
            .expect("hash writer never fails");
        for l in &m.locals[..m.param_count] {
            write!(h, ",{:?}", l.ty).expect("hash writer never fails");
        }
        write!(h, "|{:?}|{:?}", m.ret, m.vtable_index).expect("hash writer never fails");
    }
    (h.a, h.b)
}

vgl_obs::stats! {
    /// Cache effectiveness counters for one pass over one module.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct CacheStats {
        /// Methods with bodies that were looked up.
        pub lookups: usize,
        /// Duplicates that skipped the pass (result copied from their
        /// representative).
        pub hits: usize,
        /// Unique representatives that did the work.
        pub unique: usize,
    }
}

impl CacheStats {
    /// Hits per lookup, 0.0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Accumulates another pass's counters.
    pub fn merge(&mut self, other: &CacheStats) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.unique += other.unique;
    }
}

/// The duplicate-instance map for one module: `rep[i]` is the index of the
/// first method whose fingerprint equals method `i`'s (`rep[i] == i` for
/// representatives and for methods without bodies).
#[derive(Clone, Debug, Default)]
pub struct DupMap {
    /// Representative index per method.
    pub rep: Vec<usize>,
    /// Lookup/hit counters from building the map.
    pub stats: CacheStats,
}

impl DupMap {
    /// The identity map (cache disabled): every method represents itself.
    pub fn identity(n: usize) -> DupMap {
        DupMap { rep: (0..n).collect(), stats: CacheStats::default() }
    }

    /// True if `i` is a duplicate of an earlier method.
    pub fn is_dup(&self, i: usize) -> bool {
        self.rep[i] != i
    }
}

/// Upper bound on the number of lock stripes in a [`ShardedIndex`]. More
/// stripes than this buys nothing: the pool is capped well below the point
/// where 16 mutexes see meaningful collision.
pub const MAX_SHARDS: usize = 16;

/// A lock-striped fingerprint → first-index map shared across pool workers.
///
/// The pre-sharding design funneled every fingerprint through one mutex,
/// which serialized the hash phase exactly when jobs was high. Keys are
/// spread over `min(16, jobs)` independent [`Mutex`]-guarded shards by the
/// fingerprint's **high byte** — the FNV stream diffuses content into the
/// high bits as well as the low ones, and taking bits the in-shard
/// `HashMap` doesn't also consume keeps the two levels independent.
///
/// Determinism does not come from locking order — it comes from
/// [`ShardedIndex::insert_min`]'s *minimum-index-wins* rule, which makes
/// the final map a pure function of the inserted set: whatever order
/// threads arrive in, each key ends up mapped to the smallest index ever
/// inserted for it, exactly what a serial first-seen scan in index order
/// would produce.
pub struct ShardedIndex {
    shards: Vec<Mutex<HashMap<(u64, u64), usize>>>,
}

impl ShardedIndex {
    /// Creates an index striped over `min(16, jobs)` shards (at least 1).
    pub fn new(jobs: usize) -> ShardedIndex {
        let n = jobs.clamp(1, MAX_SHARDS);
        ShardedIndex { shards: (0..n).map(|_| Mutex::new(HashMap::new())).collect() }
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, key: (u64, u64)) -> usize {
        ((key.0 >> 56) as usize) % self.shards.len()
    }

    /// Records that method `index` has fingerprint `key`, keeping the
    /// **minimum** index seen for the key, and returns that minimum.
    /// Commutative and idempotent, so concurrent insertion from any number
    /// of threads converges to the same map as a serial index-order scan.
    pub fn insert_min(&self, key: (u64, u64), index: usize) -> usize {
        let mut shard =
            self.shards[self.shard_of(key)].lock().expect("cache shard poisoned");
        let slot = shard.entry(key).or_insert(index);
        if index < *slot {
            *slot = index;
        }
        *slot
    }

    /// The representative (minimum inserted) index for `key`, if any.
    pub fn get(&self, key: (u64, u64)) -> Option<usize> {
        self.shards[self.shard_of(key)]
            .lock()
            .expect("cache shard poisoned")
            .get(&key)
            .copied()
    }

    /// Total number of distinct keys across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("cache shard poisoned").len()).sum()
    }

    /// True when no key has been inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Builds the duplicate map for `module`: workers fingerprint method bodies
/// and publish `(fingerprint, index)` into a [`ShardedIndex`] concurrently;
/// a serial scan then resolves every method to its group's minimum index.
/// Both halves are order-independent (hashing is read-only, `insert_min`
/// is commutative), so the map is identical at every jobs count.
pub fn dup_groups(module: &Module, jobs: usize) -> (DupMap, Vec<WorkerSample>) {
    let index = ShardedIndex::new(jobs);
    let (prints, workers) = sched::par_map_ctx(
        jobs,
        "hash",
        &module.methods,
        || (),
        |_, i, m: &Method| {
            m.body.as_ref().map(|_| {
                let key = method_fingerprint(m);
                index.insert_min(key, i);
                key
            })
        },
    );
    let mut rep: Vec<usize> = (0..module.methods.len()).collect();
    let mut stats = CacheStats::default();
    for (i, print) in prints.into_iter().enumerate() {
        let Some(key) = print else { continue };
        stats.lookups += 1;
        let r = index.get(key).expect("fingerprint published during hashing");
        rep[i] = r;
        if r == i {
            stats.unique += 1;
        } else {
            stats.hits += 1;
        }
    }
    (DupMap { rep, stats }, workers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_streams_are_independent_and_stable() {
        let mut h1 = FingerprintWriter::new();
        write!(h1, "abc").unwrap();
        let mut h2 = FingerprintWriter::new();
        write!(h2, "a").unwrap();
        write!(h2, "bc").unwrap();
        // Chunking must not matter.
        assert_eq!((h1.a, h1.b), (h2.a, h2.b));
        let mut h3 = FingerprintWriter::new();
        write!(h3, "abd").unwrap();
        assert_ne!((h1.a, h1.b), (h3.a, h3.b));
    }

    #[test]
    fn identity_map_has_no_dups() {
        let m = DupMap::identity(5);
        for i in 0..5 {
            assert!(!m.is_dup(i));
        }
        assert_eq!(m.stats.hits, 0);
    }

    #[test]
    fn hit_rate_handles_zero_lookups() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let s = CacheStats { lookups: 4, hits: 3, unique: 1 };
        assert!((s.hit_rate() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn sharded_index_shard_counts() {
        assert_eq!(ShardedIndex::new(0).shard_count(), 1);
        assert_eq!(ShardedIndex::new(1).shard_count(), 1);
        assert_eq!(ShardedIndex::new(8).shard_count(), 8);
        assert_eq!(ShardedIndex::new(64).shard_count(), MAX_SHARDS);
    }

    #[test]
    fn insert_min_keeps_minimum_in_any_order() {
        let idx = ShardedIndex::new(4);
        let key = (0xAB00_0000_0000_0001, 7);
        assert_eq!(idx.insert_min(key, 9), 9);
        assert_eq!(idx.insert_min(key, 3), 3);
        assert_eq!(idx.insert_min(key, 5), 3);
        assert_eq!(idx.get(key), Some(3));
        assert_eq!(idx.get((0, 0)), None);
        assert_eq!(idx.len(), 1);
        assert!(!idx.is_empty());
    }

    /// Deterministic op stream for the stress test: `(key, index)` pairs
    /// drawn from a small key pool whose fingerprints all share one high
    /// byte, so every operation lands on the **same shard** — the worst
    /// case for stripe contention.
    fn stress_op(thread: u64, step: u64) -> ((u64, u64), usize) {
        // xorshift-style mix, pure function of (thread, step).
        let mut x = thread.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ step;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // 64 distinct keys, identical top byte 0xCC → one shard for all.
        let key = (0xCC00_0000_0000_0000 | (x % 64), 0x5EED ^ (x % 64));
        (key, (x >> 8) as usize % 10_000)
    }

    #[test]
    fn sharded_index_stress_matches_serial_replay() {
        const THREADS: u64 = 8;
        const OPS: u64 = 10_000;
        let idx = ShardedIndex::new(8);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let idx = &idx;
                s.spawn(move || {
                    for step in 0..OPS {
                        let (key, i) = stress_op(t, step);
                        if step % 3 == 2 {
                            // Mixed lookup: whatever is present must never
                            // exceed any index this thread already
                            // inserted for the key (minimum only falls).
                            if let Some(r) = idx.get(key) {
                                assert!(r < 10_000);
                            }
                        } else {
                            let r = idx.insert_min(key, i);
                            assert!(r <= i, "returned rep above inserted index");
                        }
                    }
                });
            }
        });
        // Serial replay: the final map must equal the plain min over every
        // inserted pair — no lost inserts, no stale minima.
        let mut expect: HashMap<(u64, u64), usize> = HashMap::new();
        for t in 0..THREADS {
            for step in 0..OPS {
                if step % 3 == 2 {
                    continue;
                }
                let (key, i) = stress_op(t, step);
                let slot = expect.entry(key).or_insert(i);
                *slot = (*slot).min(i);
            }
        }
        assert_eq!(idx.len(), expect.len());
        for (key, min) in expect {
            assert_eq!(idx.get(key), Some(min), "lost or wrong insert for {key:?}");
        }
    }
}
