//! Boolean expressions with negation, `BoolExp(X)`.
//!
//! The paper's introduction discusses annotating tuples with boolean
//! expressions over the tokens (the c-tables approach of Imieliński &
//! Lipski), where the "complement" operation `p̂ = ¬p` supports deletion:
//! this is the tuple-level baseline whose aggregation requires enumerating
//! exponentially many subset results (Figure 2). We implement it as the
//! comparison point for experiment E1/Fig.2.
//!
//! `BoolExp` values are expression *trees* with constant folding; structural
//! equality is representational, not semantic (boolean equivalence is
//! co-NP-hard). [`BoolExp::equivalent`] decides semantic equality by truth
//! table for small variable sets, which the law tests use.

use crate::poly::Var;
use crate::semiring::CommutativeSemiring;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A boolean expression over provenance tokens.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum BoolExp {
    /// A constant.
    Const(bool),
    /// A token.
    Var(Var),
    /// Negation (the `p̂` of the introduction).
    Not(Arc<BoolExp>),
    /// Conjunction.
    And(Arc<BoolExp>, Arc<BoolExp>),
    /// Disjunction.
    Or(Arc<BoolExp>, Arc<BoolExp>),
}

impl BoolExp {
    /// A token expression.
    pub fn var(name: &str) -> Self {
        BoolExp::Var(Var::new(name))
    }

    /// Negation with constant folding and double-negation elimination.
    pub fn not(&self) -> Self {
        match self {
            BoolExp::Const(b) => BoolExp::Const(!b),
            BoolExp::Not(e) => (**e).clone(),
            e => BoolExp::Not(Arc::new(e.clone())),
        }
    }

    /// Conjunction with constant folding.
    pub fn and(&self, other: &Self) -> Self {
        match (self, other) {
            (BoolExp::Const(false), _) | (_, BoolExp::Const(false)) => BoolExp::Const(false),
            (BoolExp::Const(true), e) | (e, BoolExp::Const(true)) => e.clone(),
            (a, b) => BoolExp::And(Arc::new(a.clone()), Arc::new(b.clone())),
        }
    }

    /// Disjunction with constant folding.
    pub fn or(&self, other: &Self) -> Self {
        match (self, other) {
            (BoolExp::Const(true), _) | (_, BoolExp::Const(true)) => BoolExp::Const(true),
            (BoolExp::Const(false), e) | (e, BoolExp::Const(false)) => e.clone(),
            (a, b) => BoolExp::Or(Arc::new(a.clone()), Arc::new(b.clone())),
        }
    }

    /// Evaluates under a truth assignment.
    pub fn eval(&self, assignment: &mut impl FnMut(&Var) -> bool) -> bool {
        match self {
            BoolExp::Const(b) => *b,
            BoolExp::Var(v) => assignment(v),
            BoolExp::Not(e) => !e.eval(assignment),
            BoolExp::And(a, b) => a.eval(assignment) && b.eval(assignment),
            BoolExp::Or(a, b) => a.eval(assignment) || b.eval(assignment),
        }
    }

    /// The set of tokens occurring in the expression.
    pub fn vars(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut BTreeSet<Var>) {
        match self {
            BoolExp::Const(_) => {}
            BoolExp::Var(v) => {
                out.insert(v.clone());
            }
            BoolExp::Not(e) => e.collect_vars(out),
            BoolExp::And(a, b) | BoolExp::Or(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
        }
    }

    /// Decides semantic equivalence by truth table. Panics above 20 shared
    /// variables (2²⁰ assignments); intended for tests and small baselines.
    pub fn equivalent(&self, other: &Self) -> bool {
        let vars: Vec<Var> = self.vars().union(&other.vars()).cloned().collect();
        assert!(
            vars.len() <= 20,
            "truth-table equivalence limited to 20 vars"
        );
        for bits in 0u32..(1 << vars.len()) {
            let mut assign = |v: &Var| {
                let idx = vars.iter().position(|w| w == v).expect("collected var");
                bits & (1 << idx) != 0
            };
            if self.eval(&mut assign) != other.eval(&mut assign) {
                return false;
            }
        }
        true
    }

    /// The number of nodes in the expression tree (a size measure for the
    /// overhead experiments).
    pub fn size(&self) -> usize {
        match self {
            BoolExp::Const(_) | BoolExp::Var(_) => 1,
            BoolExp::Not(e) => 1 + e.size(),
            BoolExp::And(a, b) | BoolExp::Or(a, b) => 1 + a.size() + b.size(),
        }
    }
}

impl CommutativeSemiring for BoolExp {
    fn zero() -> Self {
        BoolExp::Const(false)
    }
    fn one() -> Self {
        BoolExp::Const(true)
    }
    fn plus(&self, other: &Self) -> Self {
        self.or(other)
    }
    fn times(&self, other: &Self) -> Self {
        self.and(other)
    }
    fn is_zero(&self) -> bool {
        matches!(self, BoolExp::Const(false))
    }
    fn is_one(&self) -> bool {
        matches!(self, BoolExp::Const(true))
    }
    // The flags describe the *semantic* quotient (boolean functions); the
    // law checkers use `equivalent` for this type.
    const PLUS_IDEMPOTENT: bool = true;
    const POSITIVE: bool = true;
    const HAS_HOM_TO_NAT: bool = false;
    fn as_nat(&self) -> Option<u64> {
        match self {
            BoolExp::Const(false) => Some(0),
            BoolExp::Const(true) => Some(1),
            _ => None,
        }
    }
    fn native_delta(&self) -> Option<Self> {
        // δ on boolean expressions is the identity (as for B).
        Some(self.clone())
    }
}

impl fmt::Display for BoolExp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoolExp::Const(true) => write!(f, "⊤"),
            BoolExp::Const(false) => write!(f, "⊥"),
            BoolExp::Var(v) => write!(f, "{v}"),
            BoolExp::Not(e) => write!(f, "¬{e}"),
            BoolExp::And(a, b) => write!(f, "({a} ∧ {b})"),
            BoolExp::Or(a, b) => write!(f, "({a} ∨ {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_folding() {
        let x = BoolExp::var("x");
        assert_eq!(x.and(&BoolExp::Const(true)), x);
        assert_eq!(x.and(&BoolExp::Const(false)), BoolExp::Const(false));
        assert_eq!(x.or(&BoolExp::Const(false)), x);
        assert_eq!(x.or(&BoolExp::Const(true)), BoolExp::Const(true));
        assert_eq!(x.not().not(), x);
    }

    #[test]
    fn eval_and_vars() {
        // x ∧ ¬y
        let e = BoolExp::var("x").and(&BoolExp::var("y").not());
        assert_eq!(e.vars().len(), 2);
        assert!(e.eval(&mut |v| v.name() == "x"));
        assert!(!e.eval(&mut |_| true));
    }

    #[test]
    fn semantic_equivalence() {
        // De Morgan: ¬(x ∧ y) ≡ ¬x ∨ ¬y.
        let lhs = BoolExp::var("x").and(&BoolExp::var("y")).not();
        let rhs = BoolExp::var("x").not().or(&BoolExp::var("y").not());
        assert!(lhs.equivalent(&rhs));
        assert!(!lhs.equivalent(&BoolExp::var("x")));
    }

    #[test]
    fn semiring_laws_hold_semantically() {
        // Structural equality is representational; verify distributivity
        // semantically.
        let (x, y, z) = (BoolExp::var("x"), BoolExp::var("y"), BoolExp::var("z"));
        let lhs = x.times(&y.plus(&z));
        let rhs = x.times(&y).plus(&x.times(&z));
        assert!(lhs.equivalent(&rhs));
    }

    #[test]
    fn size_counts_nodes() {
        let e = BoolExp::var("x").and(&BoolExp::var("y").not());
        assert_eq!(e.size(), 4);
    }
}
