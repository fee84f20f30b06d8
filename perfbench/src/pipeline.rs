//! The traced compile: the same sequence of layer calls `Compiler::compile`
//! makes (lex, parse, sema, mono, normalize, optimize, lower, fuse), each
//! inside a span taken here, so per-layer time is measured without
//! instrumenting the compiler. The IR size walks the driver does between
//! phases are repeated too and land in the root span's self time, which
//! is what `core.unattributed_ms` reports.

use vgl::{BackendConfig, BackendReport, Options};
use vgl_syntax::Diagnostics;

use crate::trace::Recorder;

/// The post-normalize module and the counts the front half produced.
pub struct Front {
    pub module: vgl_ir::Module,
    pub tokens: usize,
}

/// What a traced compile produced, for checking against the untraced one.
pub struct Replayed {
    pub program: vgl_vm::VmProgram,
    pub tokens: usize,
    pub backend: BackendReport,
    pub instrs_before_fuse: usize,
}

pub fn backend_config(o: &Options) -> BackendConfig {
    BackendConfig {
        jobs: vgl_passes::sched::resolve_jobs(o.jobs),
        cache: o.pass_cache,
        chunking: true,
    }
}

/// Lex → parse → sema → mono → normalize, one span per layer call.
/// `None` when the source has front-end errors.
pub fn front_half(
    rec: &mut Recorder,
    req: u64,
    source: &str,
    cfg: &BackendConfig,
    backend: &mut BackendReport,
) -> Option<Front> {
    let tokens = rec.span("syntax.lex", req, || {
        vgl_syntax::lexer::lex(source, &mut Diagnostics::new()).len()
    });
    let mut diags = Diagnostics::new();
    let ast = rec.span("syntax.parse", req, || {
        vgl_syntax::parse_program(source, &mut diags)
    });
    if diags.has_errors() {
        return None;
    }
    let typed = rec.span("sema.analyze", req, || vgl_sema::analyze(&ast, &mut diags))?;
    std::hint::black_box(vgl_ir::measure(&typed));
    let (mut module, _) = rec.span("passes.mono", req, || {
        vgl_passes::monomorphize_cfg(&typed, cfg, backend)
    });
    std::hint::black_box(vgl_ir::measure(&module));
    rec.span("passes.normalize", req, || {
        vgl_passes::normalize_cfg(&mut module, cfg, backend)
    });
    std::hint::black_box(vgl_ir::measure(&module));
    Some(Front { module, tokens })
}

/// A whole compile under the span `core.compile`.
pub fn compile(rec: &mut Recorder, req: u64, source: &str, o: &Options) -> Option<Replayed> {
    let root = rec.open("core.compile", req);
    let cfg = backend_config(o);
    let mut backend = BackendReport {
        jobs: cfg.jobs,
        ..BackendReport::default()
    };
    let out = front_half(rec, req, source, &cfg, &mut backend).map(|front| {
        let mut module = front.module;
        if o.optimize {
            rec.span("passes.optimize", req, || {
                vgl_passes::optimize_cfg(&mut module, &cfg, &mut backend)
            });
        }
        std::hint::black_box(vgl_ir::measure(&module));
        let mut program = rec.span("vm.lower", req, || vgl_vm::lower(&module));
        let instrs_before_fuse = program.code_size();
        if o.fuse && !o.tier {
            rec.span("vm.fuse", req, || vgl_vm::fuse_cfg(&mut program, &cfg));
        }
        Replayed {
            program,
            tokens: front.tokens,
            backend,
            instrs_before_fuse,
        }
    });
    rec.close(root);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn replay_matches_the_driver() {
        let src = vgl_bench::workloads::mixed_app(3);
        let o = Options::default();
        let mut rec = Recorder::new(Instant::now());
        let replayed = compile(&mut rec, 0, &src, &o).expect("compiles");
        let driver = vgl::Compiler::with_options(o)
            .compile(&src)
            .expect("compiles");
        assert_eq!(
            format!("{:?}", replayed.program),
            format!("{:?}", driver.program)
        );
        let names: Vec<_> = rec.spans.iter().map(|s| s.name).collect();
        assert_eq!(names[0], "core.compile");
        assert!(names.contains(&"passes.normalize"));
    }
}
