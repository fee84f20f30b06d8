//! Seeded edit histories for the incremental compiler's soundness lane.
//!
//! A [`Unit`] is a small typed model of one program: a class forest whose
//! classes carry fields and `int -> int` virtual methods (overrides
//! included), top-level functions that call each other acyclically, a
//! generic class `Cell<T>` used at several type arguments, and a `main`
//! that exercises all of them and returns a checksum. An [`Edit`] is one
//! change a user makes between two compiles. [`history`] applies a seeded
//! sequence of edits and renders the source after each, so a test can
//! compile every step through one long-lived incremental compiler and
//! demand the bytes and behaviour of a cold compile.
//!
//! Every model is well-typed by construction and every program terminates
//! without trapping (no division, no nulls, acyclic calls), so any
//! disagreement a test sees is a compiler bug, not a program error.

use crate::rng::Rng;
use std::fmt::Write as _;

/// One source-level change between two compiles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Edit {
    /// Replace a function's or method's body.
    ChangeBody,
    /// Add a top-level function or a method (fresh or overriding).
    AddMethod,
    /// Remove a top-level function (its call sites keep their argument)
    /// or a method.
    RemoveMethod,
    /// Add a field to a class, shifting every subclass's field slots.
    AddField,
    /// Append a subclass, widening its ancestors' class-id ranges (the
    /// constants `K.?(this)` queries in their methods compile to).
    AddClass,
    /// Change a field's type among `int`, `bool` and `(int, int)`.
    ChangeFieldType,
    /// Change the type argument at one `Cell<T>` use.
    ChangeTypeArg,
    /// Rename a class, field, method or function.
    Rename,
    /// Swap two functions, classes, fields of a class, methods of a class
    /// or `Cell<T>` uses.
    Reorder,
}

/// Every edit kind, in the order [`history`] draws from.
pub const EDITS: [Edit; 9] = [
    Edit::ChangeBody,
    Edit::AddMethod,
    Edit::RemoveMethod,
    Edit::AddField,
    Edit::AddClass,
    Edit::ChangeFieldType,
    Edit::ChangeTypeArg,
    Edit::Rename,
    Edit::Reorder,
];

/// Field and type-argument types.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ty {
    Int,
    Bool,
    Pair,
}

impl Ty {
    fn source(self) -> &'static str {
        match self {
            Ty::Int => "int",
            Ty::Bool => "bool",
            Ty::Pair => "(int, int)",
        }
    }

    /// An expression of this type built from the int expression `s`.
    fn value_of(self, s: &str, k: u32) -> String {
        match self {
            Ty::Int => format!("{s} + {k}"),
            Ty::Bool => format!("{s} > {k}"),
            Ty::Pair => format!("({s}, {s} + {k})"),
        }
    }

    /// The int view of an expression `e` of this type.
    fn int_view(self, e: &str) -> String {
        match self {
            Ty::Int => e.to_string(),
            Ty::Bool => format!("({e} ? 1 : 0)"),
            Ty::Pair => format!("({e}.0 - {e}.1)"),
        }
    }

    fn draw(rng: &mut Rng, except: Option<Ty>) -> Ty {
        let tys: Vec<Ty> = [Ty::Int, Ty::Bool, Ty::Pair]
            .into_iter()
            .filter(|&t| Some(t) != except)
            .collect();
        *rng.pick(&tys)
    }
}

/// An `int` expression over the parameter `x`.
#[derive(Clone, Debug)]
enum Ex {
    X,
    Lit(i32),
    /// An own field of the enclosing class, by field id.
    Field(u32),
    /// `K.?(this)` for a subclass `K` of the enclosing class, by class id.
    Is(u32),
    /// A top-level function, by id; the argument is masked to a byte.
    Call(u32, Box<Ex>),
    Bin(&'static str, Box<Ex>, Box<Ex>),
    /// `c > 0 ? a : b`; constant conditions give the optimizer bodies
    /// that fold only after inlining.
    Cond(Box<Ex>, Box<Ex>, Box<Ex>),
}

/// A function or method. Function bodies call only functions with
/// smaller ids, so calls stay acyclic.
#[derive(Clone, Debug)]
struct Def {
    id: u32,
    name: String,
    body: Ex,
}

#[derive(Clone, Debug)]
struct Field {
    id: u32,
    name: String,
    ty: Ty,
}

#[derive(Clone, Debug)]
struct Class {
    id: u32,
    name: String,
    parent: Option<u32>,
    fields: Vec<Field>,
    methods: Vec<Def>,
}

/// A program model (see the module docs).
#[derive(Clone, Debug)]
pub struct Unit {
    classes: Vec<Class>,
    funcs: Vec<Def>,
    /// `Cell<T>` uses in `main`: type argument and initial value.
    cells: Vec<(Ty, i32)>,
    next_id: u32,
}

/// One step of a history: the edit that produced it (`None` for the
/// initial program) and the program's source.
#[derive(Clone, Debug)]
pub struct Step {
    /// The edit applied to the previous step.
    pub edit: Option<Edit>,
    /// The rendered program.
    pub source: String,
}

/// The initial program and `edits` seeded edits after it: `edits + 1`
/// steps in all.
pub fn history(seed: u64, edits: usize) -> Vec<Step> {
    let mut rng = Rng::new(seed);
    let mut unit = Unit::generate(&mut rng);
    let mut steps = vec![Step {
        edit: None,
        source: unit.emit(),
    }];
    for _ in 0..edits {
        let edit = loop {
            let e = *rng.pick(&EDITS);
            if unit.apply(e, &mut rng) {
                break e;
            }
        };
        steps.push(Step {
            edit: Some(edit),
            source: unit.emit(),
        });
    }
    steps
}

/// A seeded index below `len`, `None` when empty.
fn index(rng: &mut Rng, len: usize) -> Option<usize> {
    (len > 0).then(|| rng.below(len as u64) as usize)
}

/// Swaps two distinct seeded positions; `false` with fewer than two items.
fn swap_two<T>(xs: &mut [T], rng: &mut Rng) -> bool {
    if xs.len() < 2 {
        return false;
    }
    let a = rng.below(xs.len() as u64) as usize;
    let b = (a + 1 + rng.below(xs.len() as u64 - 1) as usize) % xs.len();
    xs.swap(a, b);
    true
}

/// Replaces every call of function `id` in `e` by its argument.
fn drop_calls(e: &mut Ex, id: u32) {
    match e {
        Ex::Call(callee, arg) => {
            drop_calls(arg, id);
            if *callee == id {
                let arg = std::mem::replace(&mut **arg, Ex::X);
                *e = arg;
            }
        }
        Ex::Bin(_, a, b) => {
            drop_calls(a, id);
            drop_calls(b, id);
        }
        Ex::Cond(c, a, b) => {
            drop_calls(c, id);
            drop_calls(a, id);
            drop_calls(b, id);
        }
        Ex::X | Ex::Lit(_) | Ex::Field(_) | Ex::Is(_) => {}
    }
}

impl Unit {
    /// A fresh program: three to five functions, two to four classes (at
    /// least one subclass), and two `Cell<T>` uses.
    pub fn generate(rng: &mut Rng) -> Unit {
        let mut u = Unit {
            classes: Vec::new(),
            funcs: Vec::new(),
            cells: Vec::new(),
            next_id: 0,
        };
        for _ in 0..3 + rng.below(3) {
            u.add_func(rng);
        }
        for i in 0..2 + rng.below(3) as usize {
            let parent = index(rng, i).map(|p| u.classes[p].id);
            u.add_class(parent, rng);
        }
        for _ in 0..2 {
            u.cells.push((Ty::draw(rng, None), rng.range_i32(1, 9)));
        }
        u
    }

    fn fresh(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id
    }

    fn class_index(&self, id: u32) -> usize {
        self.classes
            .iter()
            .position(|c| c.id == id)
            .expect("class exists")
    }

    fn add_class(&mut self, parent: Option<u32>, rng: &mut Rng) {
        let id = self.fresh();
        let name = format!("K{id}");
        let class = Class {
            id,
            name,
            parent,
            fields: Vec::new(),
            methods: Vec::new(),
        };
        self.classes.push(class);
        let ci = self.classes.len() - 1;
        for _ in 0..1 + rng.below(2) {
            self.add_field(ci, rng);
        }
        for _ in 0..1 + rng.below(2) {
            self.add_method(ci, rng);
        }
    }

    /// A random expression. `fields` may be read, `queries` are the class
    /// ids `this` may be tested against, and functions with ids below
    /// `below` may be called.
    fn gen_ex(&self, rng: &mut Rng, depth: u32, fields: &[u32], queries: &[u32], below: u32) -> Ex {
        let callable: Vec<u32> = self
            .funcs
            .iter()
            .map(|f| f.id)
            .filter(|&id| id < below)
            .collect();
        if depth == 0 || rng.chance(25) {
            return match rng.below(4) {
                0 if !fields.is_empty() => Ex::Field(*rng.pick(fields)),
                1 if !queries.is_empty() => Ex::Is(*rng.pick(queries)),
                2 => Ex::Lit(rng.range_i32(0, 20)),
                _ => Ex::X,
            };
        }
        let sub = |rng: &mut Rng| Box::new(self.gen_ex(rng, depth - 1, fields, queries, below));
        match rng.below(4) {
            0 if !callable.is_empty() => {
                let callee = *rng.pick(&callable);
                Ex::Call(callee, sub(rng))
            }
            1 => Ex::Cond(sub(rng), sub(rng), sub(rng)),
            _ => {
                let op = *rng.pick(&["+", "-", "*", "^", "&"]);
                Ex::Bin(op, sub(rng), sub(rng))
            }
        }
    }

    fn method_body(&self, ci: usize, rng: &mut Rng) -> Ex {
        let fields: Vec<u32> = self.classes[ci].fields.iter().map(|f| f.id).collect();
        let id = self.classes[ci].id;
        let subclasses: Vec<u32> = (0..self.classes.len())
            .filter(|&k| k != ci && self.ancestors(k).contains(&id))
            .map(|k| self.classes[k].id)
            .collect();
        self.gen_ex(rng, 2, &fields, &subclasses, u32::MAX)
    }

    /// The ids of class `ci` and all its ancestors.
    fn ancestors(&self, ci: usize) -> Vec<u32> {
        let mut chain = vec![self.classes[ci].id];
        while let Some(p) = self.classes[self.class_index(*chain.last().expect("non-empty"))].parent
        {
            chain.push(p);
        }
        chain
    }

    fn add_func(&mut self, rng: &mut Rng) {
        let id = self.fresh();
        let body = self.gen_ex(rng, 2, &[], &[], id);
        let at = rng.below(self.funcs.len() as u64 + 1) as usize;
        self.funcs.insert(
            at,
            Def {
                id,
                name: format!("f{id}"),
                body,
            },
        );
    }

    fn add_field(&mut self, ci: usize, rng: &mut Rng) {
        let id = self.fresh();
        let ty = Ty::draw(rng, None);
        let fields = &mut self.classes[ci].fields;
        let at = rng.below(fields.len() as u64 + 1) as usize;
        fields.insert(
            at,
            Field {
                id,
                name: format!("v{id}"),
                ty,
            },
        );
    }

    /// Adds a method to class `ci`: half the time an override of an
    /// inherited method, when there is one.
    fn add_method(&mut self, ci: usize, rng: &mut Rng) {
        let own = self.classes[ci].methods.len();
        let inherited: Vec<String> = self.visible_methods(ci).split_off(own);
        let id = self.fresh();
        let name = match index(rng, inherited.len()) {
            Some(k) if rng.chance(50) => inherited[k].clone(),
            _ => format!("m{id}"),
        };
        let body = self.method_body(ci, rng);
        let methods = &mut self.classes[ci].methods;
        let at = rng.below(methods.len() as u64 + 1) as usize;
        methods.insert(at, Def { id, name, body });
    }

    /// Every method name visible in class `ci`: its own first, then the
    /// inherited ones it does not override.
    fn visible_methods(&self, ci: usize) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        for id in self.ancestors(ci) {
            for m in &self.classes[self.class_index(id)].methods {
                if !names.contains(&m.name) {
                    names.push(m.name.clone());
                }
            }
        }
        names
    }

    /// Applies `edit` at a seeded site; `false` when the model has no site
    /// for it (nothing to remove, say), leaving the model unchanged.
    pub fn apply(&mut self, edit: Edit, rng: &mut Rng) -> bool {
        let ci = rng.below(self.classes.len() as u64) as usize;
        let id = self.fresh();
        let class = &mut self.classes[ci];
        match edit {
            Edit::ChangeBody if rng.chance(40) => {
                let k = rng.below(self.funcs.len() as u64) as usize;
                self.funcs[k].body = self.gen_ex(rng, 2, &[], &[], self.funcs[k].id);
            }
            Edit::ChangeBody => {
                let Some(k) = index(rng, class.methods.len()) else {
                    return false;
                };
                self.classes[ci].methods[k].body = self.method_body(ci, rng);
            }
            Edit::AddMethod if rng.chance(40) => self.add_func(rng),
            Edit::AddMethod => self.add_method(ci, rng),
            Edit::RemoveMethod if rng.chance(40) => {
                if self.funcs.len() < 2 {
                    return false;
                }
                let k = rng.below(self.funcs.len() as u64) as usize;
                let gone = self.funcs.remove(k).id;
                let methods = self.classes.iter_mut().flat_map(|c| &mut c.methods);
                for def in self.funcs.iter_mut().chain(methods) {
                    drop_calls(&mut def.body, gone);
                }
            }
            Edit::RemoveMethod => {
                let Some(k) = index(rng, class.methods.len()) else {
                    return false;
                };
                class.methods.remove(k);
            }
            Edit::AddField => self.add_field(ci, rng),
            Edit::AddClass => {
                let parent = self.classes[ci].id;
                self.add_class(Some(parent), rng);
            }
            Edit::ChangeFieldType => {
                let Some(k) = index(rng, class.fields.len()) else {
                    return false;
                };
                class.fields[k].ty = Ty::draw(rng, Some(class.fields[k].ty));
            }
            Edit::ChangeTypeArg => {
                let k = rng.below(self.cells.len() as u64) as usize;
                self.cells[k].0 = Ty::draw(rng, Some(self.cells[k].0));
            }
            Edit::Rename => match rng.below(4) {
                0 => {
                    let k = rng.below(self.funcs.len() as u64) as usize;
                    self.funcs[k].name = format!("f{id}");
                }
                1 => class.name = format!("K{id}"),
                2 => {
                    let Some(k) = index(rng, class.fields.len()) else {
                        return false;
                    };
                    class.fields[k].name = format!("v{id}");
                }
                _ => {
                    let Some(k) = index(rng, class.methods.len()) else {
                        return false;
                    };
                    class.methods[k].name = format!("m{id}");
                }
            },
            Edit::Reorder => {
                return match rng.below(5) {
                    0 => swap_two(&mut self.funcs, rng),
                    1 => swap_two(&mut self.classes, rng),
                    2 => swap_two(&mut class.fields, rng),
                    3 => swap_two(&mut class.methods, rng),
                    _ => swap_two(&mut self.cells, rng),
                }
            }
        }
        true
    }

    fn emit_ex(&self, e: &Ex, out: &mut String) {
        match e {
            Ex::X => out.push('x'),
            Ex::Lit(v) => {
                let _ = write!(out, "{v}");
            }
            Ex::Is(id) => {
                let _ = write!(
                    out,
                    "({}.?(this) ? 1 : 0)",
                    self.classes[self.class_index(*id)].name
                );
            }
            Ex::Field(id) => {
                let f = self
                    .classes
                    .iter()
                    .flat_map(|c| &c.fields)
                    .find(|f| f.id == *id);
                let f = f.expect("read field exists");
                out.push_str(&f.ty.int_view(&f.name));
            }
            Ex::Call(id, arg) => {
                let f = self
                    .funcs
                    .iter()
                    .find(|f| f.id == *id)
                    .expect("callee exists");
                let _ = write!(out, "{}((", f.name);
                self.emit_ex(arg, out);
                out.push_str(") & 255)");
            }
            Ex::Bin(op, a, b) => {
                out.push('(');
                self.emit_ex(a, out);
                let _ = write!(out, " {op} ");
                self.emit_ex(b, out);
                out.push(')');
            }
            Ex::Cond(c, a, b) => {
                out.push('(');
                self.emit_ex(c, out);
                out.push_str(" > 0 ? ");
                self.emit_ex(a, out);
                out.push_str(" : ");
                self.emit_ex(b, out);
                out.push(')');
            }
        }
    }

    fn emit_def(&self, def: &Def, indent: &str, out: &mut String) {
        let _ = write!(out, "{indent}def {}(x: int) -> int {{ return ", def.name);
        self.emit_ex(&def.body, out);
        out.push_str("; }\n");
    }

    /// Renders the program.
    pub fn emit(&self) -> String {
        let mut out = String::from(
            "class Cell<T> {\n    var v: T;\n    new(v) { }\n    def get() -> T { return v; }\n}\n",
        );
        for f in &self.funcs {
            self.emit_def(f, "", &mut out);
        }
        for c in &self.classes {
            let _ = write!(out, "class {}", c.name);
            if let Some(p) = c.parent {
                let _ = write!(out, " extends {}", self.classes[self.class_index(p)].name);
            }
            out.push_str(" {\n");
            for f in &c.fields {
                let _ = writeln!(out, "    var {}: {};", f.name, f.ty.source());
            }
            let sup = if c.parent.is_some() { " super(s)" } else { "" };
            let _ = write!(out, "    new(s: int){sup} {{");
            for f in &c.fields {
                let _ = write!(out, " {} = {};", f.name, f.ty.value_of("s", f.id % 7));
            }
            out.push_str(" }\n");
            for m in &c.methods {
                self.emit_def(m, "    ", &mut out);
            }
            out.push_str("}\n");
        }
        out.push_str("def main() -> int {\n    var acc = 1;\n");
        let add = |out: &mut String, e: &str| {
            let _ = writeln!(out, "    acc = (acc * 3 + {e}) & 65535;");
        };
        for f in &self.funcs {
            add(&mut out, &format!("{}(acc & 255)", f.name));
        }
        for (i, c) in self.classes.iter().enumerate() {
            // Once through the root's static type (virtual dispatch), once
            // through the class's own.
            let root = self.class_index(*self.ancestors(i).last().expect("non-empty"));
            for (var, ty) in [("r", root), ("o", i)] {
                let (ty_name, seed) = (&self.classes[ty].name, c.id % 5 + 1);
                let _ = writeln!(out, "    var {var}{i}: {ty_name} = {}.new({seed});", c.name);
                for m in self.visible_methods(ty) {
                    add(&mut out, &format!("{var}{i}.{m}(acc & 255)"));
                }
            }
        }
        for &(ty, lit) in &self.cells {
            let cell = format!(
                "Cell<{}>.new({}).get()",
                ty.source(),
                ty.value_of(&lit.to_string(), 1)
            );
            add(&mut out, &ty.int_view(&cell));
        }
        out.push_str("    System.puti(acc);\n    return acc;\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histories_are_well_typed_and_deterministic() {
        for seed in 0..40 {
            let h = history(seed, 12);
            assert_eq!(h.len(), 13);
            for step in &h {
                let mut diags = vgl_syntax::Diagnostics::new();
                let ast = vgl_syntax::parse_program(&step.source, &mut diags);
                let typed = vgl_sema::analyze(&ast, &mut diags);
                assert!(typed.is_some() && !diags.has_errors(), "{}", step.source);
            }
            let again = history(seed, 12);
            assert!(h
                .iter()
                .zip(&again)
                .all(|(a, b)| a.source == b.source && a.edit == b.edit));
        }
    }

    #[test]
    fn histories_draw_every_edit_kind() {
        let drawn: Vec<Edit> = (0..8)
            .flat_map(|seed| history(seed, 12))
            .filter_map(|s| s.edit)
            .collect();
        for e in EDITS {
            assert!(drawn.contains(&e), "{e:?} never drawn");
        }
    }
}
