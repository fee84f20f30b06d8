//! Interpreter values.
//!
//! This is the *reference* (type-passing) representation from paper §4.3:
//! objects carry their class and reified type arguments, tuples are **boxed**
//! heap values, and closures record method + receiver + type arguments. The
//! costs the compiler removes (tuple boxes, runtime type information, dynamic
//! calling-convention checks) are all *visible and countable* here via
//! [`AllocStats`].

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use vgl_ir::{Builtin, MethodId, Oper};
use vgl_types::{ClassId, Type};

vgl_obs::stats! {
    /// Counters for implicit and explicit allocations performed by the
    /// interpreter (experiment E1 reads these).
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct AllocStats {
        /// Boxed tuple values — the *implicit* allocations normalization removes.
        pub tuples: usize,
        /// Objects from explicit `new`.
        pub objects: usize,
        /// Arrays from explicit `Array<T>.new` / literals / strings.
        pub arrays: usize,
        /// Closure records (method binds, operator closures).
        pub closures: usize,
    }
}

impl AllocStats {
    /// Total allocations of any kind.
    pub fn total(&self) -> usize {
        self.tuples + self.objects + self.arrays + self.closures
    }
}

/// A runtime value in the interpreter.
#[derive(Clone, Debug)]
pub enum Value {
    /// The void value `()`.
    Unit,
    /// A boolean.
    Bool(bool),
    /// A byte.
    Byte(u8),
    /// A 32-bit integer.
    Int(i32),
    /// `null`.
    Null,
    /// A boxed tuple (≥ 2 elements).
    Tuple(Rc<Vec<Value>>),
    /// An object reference.
    Object(Rc<RefCell<ObjData>>),
    /// An array reference.
    Array(Rc<RefCell<ArrData>>),
    /// A first-class function.
    Closure(Rc<Closure>),
}

/// Object payload: dynamic class, reified type arguments, field slots.
#[derive(Debug)]
pub struct ObjData {
    /// The dynamic class.
    pub class: ClassId,
    /// Reified class type arguments ("enough information is always retained
    /// to recover the type arguments of any parameterized usage" — §2.4).
    pub type_args: Vec<Type>,
    /// Field slots (absolute layout).
    pub fields: Vec<Value>,
}

/// Array payload: reified element type plus the values.
#[derive(Debug)]
pub struct ArrData {
    /// Reified element type.
    pub elem: Type,
    /// The elements.
    pub values: Vec<Value>,
}

/// A first-class function value.
#[derive(Debug)]
pub enum Closure {
    /// A method, optionally bound to a receiver, with reified type args.
    Method {
        /// The (declared) method; virtual dispatch already resolved at bind
        /// time for bound methods.
        method: MethodId,
        /// Reified full type-argument list.
        type_args: Vec<Type>,
        /// Bound receiver (`a.m`), or `None` for the unbound form (`A.m`).
        recv: Option<Value>,
    },
    /// A primitive/universal operator (types inside are concrete).
    Oper(Oper),
    /// `A.new` as a function.
    Ctor {
        /// The class.
        class: ClassId,
        /// Reified class type arguments.
        type_args: Vec<Type>,
    },
    /// `Array<T>.new` as a function.
    ArrayNew {
        /// Element type.
        elem: Type,
    },
    /// A `System` intrinsic as a function.
    Builtin(Builtin),
}

impl Value {
    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Extracts an `int`.
    ///
    /// # Panics
    /// Panics if the value is not an `Int` (a typechecked program never does
    /// this).
    pub fn as_int(&self) -> i32 {
        match self {
            Value::Int(i) => *i,
            other => panic!("expected int, found {other:?}"),
        }
    }

    /// Extracts a `bool`.
    pub fn as_bool(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            other => panic!("expected bool, found {other:?}"),
        }
    }

    /// Extracts a `byte`.
    pub fn as_byte(&self) -> u8 {
        match self {
            Value::Byte(b) => *b,
            other => panic!("expected byte, found {other:?}"),
        }
    }

    /// Structural equality per the language: primitives by value, tuples
    /// recursively, objects/arrays by reference, closures by target+receiver.
    pub fn value_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Unit, Value::Unit) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Byte(a), Value::Byte(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Null, Value::Null) => true,
            (Value::Tuple(a), Value::Tuple(b)) => {
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.value_eq(y))
            }
            (Value::Object(a), Value::Object(b)) => Rc::ptr_eq(a, b),
            (Value::Array(a), Value::Array(b)) => Rc::ptr_eq(a, b),
            (Value::Closure(a), Value::Closure(b)) => closure_eq(a, b),
            _ => false,
        }
    }
}

fn closure_eq(a: &Closure, b: &Closure) -> bool {
    match (a, b) {
        (
            Closure::Method { method: m1, type_args: t1, recv: r1 },
            Closure::Method { method: m2, type_args: t2, recv: r2 },
        ) => {
            m1 == m2
                && t1 == t2
                && match (r1, r2) {
                    (None, None) => true,
                    (Some(x), Some(y)) => x.value_eq(y),
                    _ => false,
                }
        }
        (Closure::Oper(x), Closure::Oper(y)) => x == y,
        (
            Closure::Ctor { class: c1, type_args: t1 },
            Closure::Ctor { class: c2, type_args: t2 },
        ) => c1 == c2 && t1 == t2,
        (Closure::ArrayNew { elem: e1 }, Closure::ArrayNew { elem: e2 }) => e1 == e2,
        (Closure::Builtin(x), Closure::Builtin(y)) => x == y,
        _ => false,
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Byte(b) => write!(f, "'{}'", *b as char),
            Value::Int(i) => write!(f, "{i}"),
            Value::Null => write!(f, "null"),
            Value::Tuple(es) => {
                write!(f, "(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Value::Object(o) => write!(f, "<object class#{}>", o.borrow().class.0),
            Value::Array(a) => write!(f, "<array[{}]>", a.borrow().values.len()),
            Value::Closure(_) => write!(f, "<closure>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_equality_is_structural() {
        let a = Value::Tuple(Rc::new(vec![Value::Int(1), Value::Bool(true)]));
        let b = Value::Tuple(Rc::new(vec![Value::Int(1), Value::Bool(true)]));
        let c = Value::Tuple(Rc::new(vec![Value::Int(2), Value::Bool(true)]));
        assert!(a.value_eq(&b));
        assert!(!a.value_eq(&c));
    }

    #[test]
    fn object_equality_is_identity() {
        let o1 = Rc::new(RefCell::new(ObjData {
            class: ClassId(0),
            type_args: vec![],
            fields: vec![],
        }));
        let o2 = Rc::new(RefCell::new(ObjData {
            class: ClassId(0),
            type_args: vec![],
            fields: vec![],
        }));
        assert!(Value::Object(o1.clone()).value_eq(&Value::Object(o1.clone())));
        assert!(!Value::Object(o1).value_eq(&Value::Object(o2)));
    }

    #[test]
    fn closure_equality_by_method_and_receiver() {
        let c1 = Value::Closure(Rc::new(Closure::Method {
            method: MethodId(3),
            type_args: vec![],
            recv: None,
        }));
        let c2 = Value::Closure(Rc::new(Closure::Method {
            method: MethodId(3),
            type_args: vec![],
            recv: None,
        }));
        let c3 = Value::Closure(Rc::new(Closure::Method {
            method: MethodId(4),
            type_args: vec![],
            recv: None,
        }));
        assert!(c1.value_eq(&c2));
        assert!(!c1.value_eq(&c3));
    }

    #[test]
    fn nested_tuples_compare_deep() {
        let inner = Value::Tuple(Rc::new(vec![Value::Int(3), Value::Int(4)]));
        let a = Value::Tuple(Rc::new(vec![inner.clone(), Value::Byte(7)]));
        let b = Value::Tuple(Rc::new(vec![
            Value::Tuple(Rc::new(vec![Value::Int(3), Value::Int(4)])),
            Value::Byte(7),
        ]));
        assert!(a.value_eq(&b));
    }

    #[test]
    fn alloc_stats_total() {
        let s = AllocStats { tuples: 2, objects: 3, arrays: 4, closures: 5 };
        assert_eq!(s.total(), 14);
    }
}
