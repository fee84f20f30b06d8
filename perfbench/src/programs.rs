//! Seeded inputs for the three workloads. The seed picks contents; the mix
//! of program sizes and kinds is fixed, so runs with different seeds
//! measure the same kind of work and can be compared.

use std::fmt::Write as _;

use vgl_bench::workloads as w;

use crate::stats::Rng;

/// One program of a workload.
#[derive(Clone)]
pub struct Source {
    pub name: String,
    pub text: String,
}

/// `compile_cold` inputs before selection: a seeded stream of small
/// `vgl-fuzz` programs and 32 large ones (16 class batteries, 16
/// straight-line fuser-bound programs, both ~90 ms to compile on a
/// 2-core host, so the 90th percentile does not straddle two shapes).
pub struct Corpus {
    seed: u64,
    pub large: Vec<Source>,
}

/// Statements in a `compile_cold` straight-line worker.
const STRAIGHT_STMTS: usize = 1000;

/// Large programs of each shape in a `compile_cold` corpus. The seed draws
/// the corpus, so its size sets how far the medians of two seeds differ.
const LARGE_PER_SHAPE: usize = 16;

impl Corpus {
    pub fn new(seed: u64) -> Corpus {
        let mut rng = Rng::new(seed);
        let mut large = Vec::new();
        for _ in 0..LARGE_PER_SHAPE {
            let k = 390 + rng.below(10) as usize;
            large.push(Source {
                name: format!("battery-{k}"),
                text: w::big_program(k),
            });
        }
        for _ in 0..LARGE_PER_SHAPE {
            let v = EditVersion {
                shape: None,
                a: 2 + rng.below(95),
                b: 1 + rng.below(8190),
                arg: rng.below(1000),
            };
            large.push(Source {
                name: format!("straight-{}-{}", v.a, v.b),
                text: edit_source(&v, STRAIGHT_STMTS),
            });
        }
        rng.shuffle(&mut large);
        Corpus { seed, large }
    }

    /// The `i`th fuzz candidate.
    pub fn fuzz(&self, i: u64) -> Source {
        let s = Rng::new(self.seed ^ 0xf022).next().wrapping_add(i);
        let text = vgl::fuzz::emit(&vgl::fuzz::gen_program(s, &vgl::fuzz::GenConfig::default()));
        Source {
            name: format!("fuzz-{s}"),
            text,
        }
    }
}

/// Source-length strata (bytes) for the small programs, each filled with
/// the same number of fuzz programs: the seed picks contents, not the size
/// mix.
pub const FUZZ_STRATA: [(usize, usize); 4] =
    [(1600, 2200), (2200, 2800), (2800, 3400), (3400, 4000)];

/// Small programs per large one in `compile_cold`: the 4:1 mix puts the
/// median inside the small programs (front end, mono and normalize heavy)
/// and the 90th percentile at the middle of the large ones (lower and
/// fuse heavy), away from the boundary between the two.
pub const SMALL_PER_LARGE: usize = 4;

/// Orders the selected programs small, small, large, ... so any prefix of
/// a pass keeps the mix.
pub fn interleave<T>(small: Vec<T>, large: Vec<T>) -> Vec<T> {
    let mut small = small.into_iter();
    let mut out = Vec::new();
    for l in large {
        out.extend(small.by_ref().take(SMALL_PER_LARGE));
        out.push(l);
    }
    out
}

/// Statements in the straight-line worker of a served program: enough
/// that fusion and the optimizer have real work to skip on a warm
/// request, small enough that a one-shot reference compile of every
/// served source stays cheap.
const WORKER_STMTS: usize = 300;

/// Classes in the served program's battery.
const BATTERY: usize = 6;

/// One version of the program an editing client submits: the
/// `serve_edit` shape (a class battery with generics, tuples and virtual
/// dispatch, a straight-line worker, and a `hot` function the edits
/// rewrite). `shape` adds a field to one battery class, which changes the
/// module's layout and so every function's context digest.
#[derive(Debug)]
pub struct EditVersion {
    pub shape: Option<usize>,
    pub a: u64,
    pub b: u64,
    pub arg: u64,
}

pub fn edit_source(v: &EditVersion, worker_stmts: usize) -> String {
    let mut src = String::from(
        "class List<T> { def head: T; def tail: List<T>; new(head, tail) { } }\n\
         def fold<A, B>(l: List<A>, f: (B, A) -> B, init: B) -> B {\n\
             var acc = init;\n\
             for (x = l; x != null; x = x.tail) acc = f(acc, x.head);\n\
             return acc;\n\
         }\n\
         def plus(a: int, b: int) -> int { return a + b; }\n\
         class Gauge { def get(x: int) -> int { return x; } }\n\
         class Wide extends Gauge { def get(x: int) -> int { return x + 1; } }\n",
    );
    for i in 0..BATTERY {
        let _ = writeln!(src, "class C{i} {{");
        let _ = writeln!(src, "    var f0: int;");
        let _ = writeln!(src, "    var f1: (int, bool);");
        if v.shape == Some(i) {
            let _ = writeln!(src, "    var f2: (int, int);");
        }
        let _ = writeln!(src, "    def g: string;");
        let _ = writeln!(src, "    new(f0, g) {{ f1 = (f0, f0 > 0); }}");
        let _ = writeln!(src, "    def m0(x: int) -> int {{ return f0 + x * {i}; }}");
        let _ = writeln!(
            src,
            "    def m1(p: (int, int)) -> (int, int) {{ return (p.1 + f0, p.0); }}"
        );
        let _ = writeln!(src, "    def m2(f: int -> int) -> int {{ return f(f0); }}");
        let _ = writeln!(src, "}}");
    }
    src.push_str("def work(x0: int) -> int {\n    var b: Gauge = Wide.new();\n    var acc = x0;\n");
    for s in 0..worker_stmts {
        let k = (s * 7) % 97 + 2;
        let _ = match s % 5 {
            0 => writeln!(
                src,
                "    var t{s} = (acc + {k}, acc * 2); acc = t{s}.0 + t{s}.1;"
            ),
            1 => writeln!(src, "    acc = acc + b.get(acc % 64) + {k};"),
            2 => writeln!(
                src,
                "    if (acc > {k}) acc = acc % 8191; else acc = acc + {k};"
            ),
            3 => writeln!(
                src,
                "    var p{s} = ((acc, {k}), acc); acc = p{s}.0.1 + p{s}.1;"
            ),
            _ => writeln!(src, "    acc = acc ^ (acc / {k} + {k});"),
        };
    }
    src.push_str("    return acc;\n}\n");
    let _ = writeln!(
        src,
        "def hot(x: int) -> int {{ return (x * {} + {}) % 8191; }}",
        v.a, v.b
    );
    src.push_str("def main() -> int {\n    var l: List<int>;\n");
    for i in 0..BATTERY {
        let _ = writeln!(src, "    var c{i} = C{i}.new({i}, \"x\");");
        let _ = writeln!(src, "    l = List.new(c{i}.m0({i}), l);");
    }
    let _ = writeln!(src, "    var acc = (fold(l, plus, 0) + work(7)) % 1000000;");
    let _ = writeln!(src, "    System.puti(acc);\n    System.ln();");
    let _ = writeln!(src, "    return acc + hot({});\n}}", v.arg);
    src
}

/// What one step of an editing session does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepKind {
    /// Rewrite `hot`: two changed functions, the rest hit the store.
    Edit,
    /// Send the previous source again: a whole-artifact hit.
    Resubmit,
    /// Move the extra field to another battery class (and rewrite `hot`):
    /// every context digest changes, so the store misses and inserts.
    Reshape,
}

/// Steps of one session block: 11 edits, 4 resubmits (each right after an
/// edit), 1 reshape, in a seeded order.
pub const BLOCK: usize = 16;

/// One client's editing session, an endless stream of steps in blocks of
/// [`BLOCK`]. Every edit and reshape yields a source no other step of
/// either client submits (`b` carries a unique stamp), so whole-artifact
/// hits come only from resubmits.
pub struct Session {
    rng: Rng,
    client: u64,
    version: EditVersion,
    stamp: u64,
    pending: Vec<StepKind>,
    prev: String,
}

impl Session {
    pub fn new(seed: u64, client: usize) -> Session {
        Session {
            rng: Rng::new(seed ^ (client as u64 + 1).wrapping_mul(0x2545_f491_4f6c_dd1d)),
            client: client as u64,
            version: EditVersion {
                shape: None,
                a: 2,
                b: 1,
                arg: 1,
            },
            stamp: 0,
            pending: Vec::new(),
            prev: String::new(),
        }
    }

    pub fn next(&mut self) -> (StepKind, String) {
        if self.pending.is_empty() {
            let mut units: Vec<&[StepKind]> = vec![&[StepKind::Edit]; 7];
            units.extend([&[StepKind::Edit, StepKind::Resubmit][..]; 4]);
            units.push(&[StepKind::Reshape]);
            self.rng.shuffle(&mut units);
            self.pending = units.into_iter().flatten().rev().copied().collect();
        }
        let kind = self.pending.pop().expect("refilled above");
        if kind != StepKind::Resubmit {
            let v = &mut self.version;
            if kind == StepKind::Reshape {
                let step = 1 + self.rng.below(BATTERY as u64 - 1) as usize;
                v.shape = Some(v.shape.map_or(step - 1, |s| (s + step) % BATTERY));
            }
            self.stamp += 1;
            v.a = 2 + self.rng.below(95);
            v.b = 1 + (self.stamp * 2 + self.client) % 8190;
            v.arg = 1 + self.rng.below(999);
            self.prev = edit_source(v, WORKER_STMTS);
        }
        (kind, self.prev.clone())
    }
}

/// The base version both clients compile during set-up.
pub fn base_source() -> String {
    edit_source(
        &EditVersion {
            shape: None,
            a: 1,
            b: 0,
            arg: 0,
        },
        WORKER_STMTS,
    )
}

/// `run_mixed`: dispatch-heavy (E3, E11), generic and function-valued
/// (E2, E6, mixed), allocation/GC-heavy (E12 churn, cache and steady) and
/// tuple-heavy (E1) programs. Each size is set so one run takes about
/// 70 ms on the VM with two load threads on a 2-vCPU host: the run times
/// of all programs form one cluster, so the median falls inside it, not
/// in a gap between fast and slow programs, where it would jump with
/// their relative speed. The seed adds up to 2% to the iteration count,
/// which changes every checksum but not the kind of work.
pub fn run_programs(seed: u64) -> Vec<Source> {
    let mut rng = Rng::new(seed);
    let mut n = |base: usize| base + rng.below(base as u64 / 50) as usize;
    vec![
        Source {
            name: "dispatch_chain".into(),
            text: w::dispatch_chain(n(72_000)),
        },
        Source {
            name: "poly_then_mono".into(),
            text: w::polymorphic_then_monomorphic(n(15_000)),
        },
        Source {
            name: "polymorphic".into(),
            text: w::polymorphic(n(1_350)),
        },
        Source {
            name: "callsite_checks".into(),
            text: w::callsite_checks(n(120_000)),
        },
        Source {
            name: "mixed_app".into(),
            text: w::mixed_app(n(57_000)),
        },
        Source {
            name: "server_churn".into(),
            text: w::server_churn(n(23_000)),
        },
        Source {
            name: "server_cache".into(),
            text: w::server_cache(n(22_500)),
        },
        Source {
            name: "server_steady".into(),
            text: w::server_steady(n(20_000)),
        },
        Source {
            name: "tuple_heavy".into(),
            text: w::tuple_heavy(n(85_000)),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn script(seed: u64, client: usize, steps: usize) -> Vec<(StepKind, String)> {
        let mut s = Session::new(seed, client);
        (0..steps).map(|_| s.next()).collect()
    }

    #[test]
    fn inputs_repeat_per_seed() {
        let texts = |s| {
            let c = Corpus::new(s);
            c.large
                .into_iter()
                .chain((0..4).map(|i| Corpus::new(s).fuzz(i)))
                .map(|x| x.text)
                .collect::<Vec<_>>()
        };
        assert_eq!(texts(3), texts(3));
        assert_ne!(texts(3), texts(4));
        let script = |s| {
            script(s, 1, 20)
                .into_iter()
                .map(|x| x.1)
                .collect::<Vec<_>>()
        };
        assert_eq!(script(5), script(5));
    }

    #[test]
    fn edit_script_has_the_block_mix_and_unique_sources() {
        let mine = script(9, 0, BLOCK * 2);
        let count = |k| mine.iter().filter(|s| s.0 == k).count();
        assert_eq!(count(StepKind::Edit), 22);
        assert_eq!(count(StepKind::Resubmit), 8);
        assert_eq!(count(StepKind::Reshape), 2);
        let other = script(9, 1, BLOCK * 2);
        let mut fresh: Vec<&String> = mine
            .iter()
            .chain(&other)
            .filter(|s| s.0 != StepKind::Resubmit)
            .map(|s| &s.1)
            .collect();
        let n = fresh.len();
        fresh.sort();
        fresh.dedup();
        assert_eq!(fresh.len(), n);
    }

    #[test]
    fn served_program_compiles_and_agrees() {
        let src = edit_source(
            &EditVersion {
                shape: Some(2),
                a: 5,
                b: 9,
                arg: 3,
            },
            WORKER_STMTS,
        );
        let c = vgl::Compiler::new().compile(&src).expect("compiles");
        assert_eq!(c.execute().result, c.interpret().result);
    }
}
