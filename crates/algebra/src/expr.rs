//! Scalar expressions and predicates over payloads.
//!
//! The WHERE clause of the CEDR language (Section 3.1) contains *simple
//! predicates* (attribute vs constant) and *parameterized predicates*
//! (attribute of a later event compared against the value an earlier event
//! provided, e.g. `x.Machine_Id = y.Machine_Id`). Equality comparisons on a
//! common attribute across contributors form an *equivalence test* on a
//! *correlation key*.
//!
//! Expressions are first-order data (not closures) so that plans are
//! printable, hashable and deterministically comparable.

use cedr_temporal::{Event, Payload, Value};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A comparison operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    pub fn apply(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// A scalar expression evaluated against a tuple of contributor events.
///
/// `Field(j)` is shorthand for `Of(0, j)` — the single-event context.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Scalar {
    /// Column `j` of the (single) input event's payload.
    Field(usize),
    /// Column `j` of contributor `i`'s payload (tuple context).
    Of(usize, usize),
    /// A literal constant.
    Lit(Value),
    Add(Box<Scalar>, Box<Scalar>),
    Sub(Box<Scalar>, Box<Scalar>),
    Mul(Box<Scalar>, Box<Scalar>),
    Div(Box<Scalar>, Box<Scalar>),
}

impl Scalar {
    pub fn lit(v: impl Into<Value>) -> Scalar {
        Scalar::Lit(v.into())
    }

    /// Evaluate against a contributor tuple. Missing columns yield `Null`.
    pub fn eval_tuple(&self, tuple: &[&Event]) -> Value {
        match self {
            Scalar::Field(j) => tuple
                .first()
                .and_then(|e| e.payload.get(*j))
                .cloned()
                .unwrap_or(Value::Null),
            Scalar::Of(i, j) => tuple
                .get(*i)
                .and_then(|e| e.payload.get(*j))
                .cloned()
                .unwrap_or(Value::Null),
            Scalar::Lit(v) => v.clone(),
            Scalar::Add(a, b) => {
                Self::arith(a.eval_tuple(tuple), b.eval_tuple(tuple), |x, y| x + y)
            }
            Scalar::Sub(a, b) => {
                Self::arith(a.eval_tuple(tuple), b.eval_tuple(tuple), |x, y| x - y)
            }
            Scalar::Mul(a, b) => {
                Self::arith(a.eval_tuple(tuple), b.eval_tuple(tuple), |x, y| x * y)
            }
            Scalar::Div(a, b) => Self::arith(a.eval_tuple(tuple), b.eval_tuple(tuple), |x, y| {
                if y == 0.0 {
                    f64::NAN
                } else {
                    x / y
                }
            }),
        }
    }

    /// Evaluate against a single event's payload.
    pub fn eval_event(&self, event: &Event) -> Value {
        self.eval_tuple(&[event])
    }

    /// Evaluate against a bare payload (no temporal context). Matches
    /// [`Scalar::eval_event`] on the single-event tuple: `Of(i, _)` with
    /// `i > 0` has no contributor and yields `Null`.
    pub fn eval_payload(&self, payload: &Payload) -> Value {
        match self {
            Scalar::Field(j) => payload.get(*j).cloned().unwrap_or(Value::Null),
            Scalar::Of(0, j) => payload.get(*j).cloned().unwrap_or(Value::Null),
            Scalar::Of(..) => Value::Null,
            Scalar::Lit(v) => v.clone(),
            Scalar::Add(a, b) => {
                Self::arith(a.eval_payload(payload), b.eval_payload(payload), |x, y| {
                    x + y
                })
            }
            Scalar::Sub(a, b) => {
                Self::arith(a.eval_payload(payload), b.eval_payload(payload), |x, y| {
                    x - y
                })
            }
            Scalar::Mul(a, b) => {
                Self::arith(a.eval_payload(payload), b.eval_payload(payload), |x, y| {
                    x * y
                })
            }
            Scalar::Div(a, b) => {
                Self::arith(a.eval_payload(payload), b.eval_payload(payload), |x, y| {
                    if y == 0.0 {
                        f64::NAN
                    } else {
                        x / y
                    }
                })
            }
        }
    }

    pub(crate) fn arith(a: Value, b: Value, f: impl Fn(f64, f64) -> f64) -> Value {
        match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => {
                let r = f(x, y);
                // Keep integers integral when both sides were ints and the
                // result is exact; otherwise float.
                Value::Float(r)
            }
            _ => Value::Null,
        }
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::Field(j) => write!(f, "$.{j}"),
            Scalar::Of(i, j) => write!(f, "${i}.{j}"),
            Scalar::Lit(v) => write!(f, "{v}"),
            Scalar::Add(a, b) => write!(f, "({a} + {b})"),
            Scalar::Sub(a, b) => write!(f, "({a} - {b})"),
            Scalar::Mul(a, b) => write!(f, "({a} * {b})"),
            Scalar::Div(a, b) => write!(f, "({a} / {b})"),
        }
    }
}

/// A boolean predicate over a contributor tuple (or single event).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Pred {
    True,
    Cmp(Scalar, CmpOp, Scalar),
    And(Box<Pred>, Box<Pred>),
    Or(Box<Pred>, Box<Pred>),
    Not(Box<Pred>),
}

impl Pred {
    pub fn cmp(lhs: Scalar, op: CmpOp, rhs: Scalar) -> Pred {
        Pred::Cmp(lhs, op, rhs)
    }

    /// Conjunction of many predicates (`True` if empty).
    pub fn and_all(preds: impl IntoIterator<Item = Pred>) -> Pred {
        let mut it = preds.into_iter();
        let Some(first) = it.next() else {
            return Pred::True;
        };
        it.fold(first, |acc, p| Pred::And(Box::new(acc), Box::new(p)))
    }

    /// The *equivalence test* shorthand (Section 3.1): all contributors in
    /// `slots` agree on payload column `col` — the correlation key.
    pub fn correlation_key(col: usize, slots: &[usize]) -> Pred {
        let mut preds = Vec::new();
        for w in slots.windows(2) {
            preds.push(Pred::Cmp(
                Scalar::Of(w[0], col),
                CmpOp::Eq,
                Scalar::Of(w[1], col),
            ));
        }
        Pred::and_all(preds)
    }

    /// The `[attr EQUAL 'literal']` shorthand: every contributor in `slots`
    /// has `col == value`.
    pub fn correlation_key_equal(col: usize, slots: &[usize], value: Value) -> Pred {
        Pred::and_all(
            slots
                .iter()
                .map(|&s| Pred::Cmp(Scalar::Of(s, col), CmpOp::Eq, Scalar::Lit(value.clone()))),
        )
    }

    pub fn eval_tuple(&self, tuple: &[&Event]) -> bool {
        match self {
            Pred::True => true,
            Pred::Cmp(a, op, b) => {
                let va = a.eval_tuple(tuple);
                let vb = b.eval_tuple(tuple);
                op.apply(va.compare(&vb))
            }
            Pred::And(a, b) => a.eval_tuple(tuple) && b.eval_tuple(tuple),
            Pred::Or(a, b) => a.eval_tuple(tuple) || b.eval_tuple(tuple),
            Pred::Not(a) => !a.eval_tuple(tuple),
        }
    }

    pub fn eval_event(&self, event: &Event) -> bool {
        self.eval_tuple(&[event])
    }

    /// Evaluate against a bare payload (no temporal context). Predicates
    /// only ever read payload columns, so this agrees with
    /// [`Pred::eval_event`] on any event carrying `payload`.
    pub fn eval_payload(&self, payload: &Payload) -> bool {
        match self {
            Pred::True => true,
            Pred::Cmp(a, op, b) => {
                let va = a.eval_payload(payload);
                let vb = b.eval_payload(payload);
                op.apply(va.compare(&vb))
            }
            Pred::And(a, b) => a.eval_payload(payload) && b.eval_payload(payload),
            Pred::Or(a, b) => a.eval_payload(payload) || b.eval_payload(payload),
            Pred::Not(a) => !a.eval_payload(payload),
        }
    }

    /// Which contributor slots does this predicate mention?
    pub fn slots(&self) -> Vec<usize> {
        fn scan_scalar(s: &Scalar, out: &mut Vec<usize>) {
            match s {
                Scalar::Field(_) => out.push(0),
                Scalar::Of(i, _) => out.push(*i),
                Scalar::Lit(_) => {}
                Scalar::Add(a, b) | Scalar::Sub(a, b) | Scalar::Mul(a, b) | Scalar::Div(a, b) => {
                    scan_scalar(a, out);
                    scan_scalar(b, out);
                }
            }
        }
        fn scan(p: &Pred, out: &mut Vec<usize>) {
            match p {
                Pred::True => {}
                Pred::Cmp(a, _, b) => {
                    scan_scalar(a, out);
                    scan_scalar(b, out);
                }
                Pred::And(a, b) | Pred::Or(a, b) => {
                    scan(a, out);
                    scan(b, out);
                }
                Pred::Not(a) => scan(a, out),
            }
        }
        let mut out = Vec::new();
        scan(self, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::True => write!(f, "TRUE"),
            Pred::Cmp(a, op, b) => write!(f, "{a} {op} {b}"),
            Pred::And(a, b) => write!(f, "({a} AND {b})"),
            Pred::Or(a, b) => write!(f, "({a} OR {b})"),
            Pred::Not(a) => write!(f, "NOT {a}"),
        }
    }
}

/// A predicate evaluated over an (n+1)-tuple: the contributor tuple of a
/// pattern extended by the negated event in the last slot. Used by
/// predicate injection into UNLESS / NOT / CANCEL-WHEN, where the WHERE
/// clause may reference the negated contributor (`z` in the paper's
/// CIDR07_Example).
pub type TuplePred = Pred;

#[cfg(test)]
mod tests {
    use super::*;
    use cedr_temporal::interval::iv;
    use cedr_temporal::{Event, EventId, Payload};

    fn ev(id: u64, vals: Vec<Value>) -> Event {
        Event::primitive(EventId(id), iv(0, 1), Payload::from_values(vals))
    }

    #[test]
    fn simple_predicate_compares_to_constant() {
        let e = ev(1, vec![Value::str("BARGA_XP03"), Value::Int(5)]);
        let p = Pred::cmp(Scalar::Field(0), CmpOp::Eq, Scalar::lit("BARGA_XP03"));
        assert!(p.eval_event(&e));
        let p2 = Pred::cmp(Scalar::Field(1), CmpOp::Gt, Scalar::lit(10i64));
        assert!(!p2.eval_event(&e));
    }

    #[test]
    fn parameterized_predicate_compares_contributors() {
        let x = ev(1, vec![Value::str("m1")]);
        let y = ev(2, vec![Value::str("m1")]);
        let z = ev(3, vec![Value::str("m2")]);
        let p = Pred::cmp(Scalar::Of(0, 0), CmpOp::Eq, Scalar::Of(1, 0));
        assert!(p.eval_tuple(&[&x, &y]));
        assert!(!p.eval_tuple(&[&x, &z]));
    }

    #[test]
    fn correlation_key_desugars_to_pairwise_equality() {
        let x = ev(1, vec![Value::str("m")]);
        let y = ev(2, vec![Value::str("m")]);
        let z = ev(3, vec![Value::str("m")]);
        let bad = ev(4, vec![Value::str("n")]);
        let p = Pred::correlation_key(0, &[0, 1, 2]);
        assert!(p.eval_tuple(&[&x, &y, &z]));
        assert!(!p.eval_tuple(&[&x, &y, &bad]));
    }

    #[test]
    fn correlation_key_equal_pins_a_value() {
        let x = ev(1, vec![Value::str("m")]);
        let y = ev(2, vec![Value::str("m")]);
        let p = Pred::correlation_key_equal(0, &[0, 1], Value::str("m"));
        assert!(p.eval_tuple(&[&x, &y]));
        let q = Pred::correlation_key_equal(0, &[0, 1], Value::str("other"));
        assert!(!q.eval_tuple(&[&x, &y]));
    }

    #[test]
    fn arithmetic_and_numeric_coercion() {
        let e = ev(1, vec![Value::Int(10), Value::Float(2.5)]);
        let s = Scalar::Mul(Box::new(Scalar::Field(0)), Box::new(Scalar::Field(1)));
        assert_eq!(s.eval_event(&e), Value::Float(25.0));
        let p = Pred::cmp(s, CmpOp::Ge, Scalar::lit(25.0));
        assert!(p.eval_event(&e));
    }

    #[test]
    fn division_by_zero_is_nan_not_panic() {
        let e = ev(1, vec![Value::Int(1), Value::Int(0)]);
        let s = Scalar::Div(Box::new(Scalar::Field(0)), Box::new(Scalar::Field(1)));
        match s.eval_event(&e) {
            Value::Float(f) => assert!(f.is_nan()),
            other => panic!("expected NaN, got {other:?}"),
        }
    }

    #[test]
    fn boolean_connectives() {
        let e = ev(1, vec![Value::Int(5)]);
        let lt = Pred::cmp(Scalar::Field(0), CmpOp::Lt, Scalar::lit(10i64));
        let gt = Pred::cmp(Scalar::Field(0), CmpOp::Gt, Scalar::lit(10i64));
        assert!(Pred::Or(Box::new(lt.clone()), Box::new(gt.clone())).eval_event(&e));
        assert!(!Pred::And(Box::new(lt.clone()), Box::new(gt)).eval_event(&e));
        assert!(!Pred::Not(Box::new(lt)).eval_event(&e));
        assert!(Pred::True.eval_event(&e));
    }

    #[test]
    fn missing_columns_are_null() {
        let e = ev(1, vec![]);
        assert_eq!(Scalar::Field(3).eval_event(&e), Value::Null);
        // NULL = NULL holds under the total comparison (documented choice).
        assert!(Pred::cmp(Scalar::Field(3), CmpOp::Eq, Scalar::Lit(Value::Null)).eval_event(&e));
    }

    #[test]
    fn slot_analysis() {
        let p = Pred::And(
            Box::new(Pred::cmp(Scalar::Of(0, 0), CmpOp::Eq, Scalar::Of(2, 0))),
            Box::new(Pred::cmp(Scalar::Of(1, 1), CmpOp::Lt, Scalar::lit(5i64))),
        );
        assert_eq!(p.slots(), vec![0, 1, 2]);
        assert_eq!(Pred::True.slots(), Vec::<usize>::new());
    }

    #[test]
    fn and_all_of_empty_is_true() {
        assert_eq!(Pred::and_all(Vec::new()), Pred::True);
    }
}
