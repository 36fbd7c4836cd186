//! The fluent query result: by-name column access, row iteration, and
//! chainable provenance interrogation.
//!
//! A [`ResultSet`] wraps the annotated relation a query produced. Where the
//! old API required free-function incantations —
//! `collapse(&map_hom_mk(&out, &|p| Valuation::ones().eval(p)))` — the
//! result set chains them:
//!
//! ```
//! use aggprov_engine::ProvDb;
//! use aggprov_algebra::hom::Valuation;
//! use aggprov_algebra::semiring::Nat;
//!
//! let mut db = ProvDb::new();
//! db.exec(
//!     "CREATE TABLE r (dept TEXT, sal NUM);
//!      INSERT INTO r VALUES ('d1', 20) PROVENANCE p1;
//!      INSERT INTO r VALUES ('d1', 10) PROVENANCE p2;",
//! )
//! .unwrap();
//!
//! let prepared = db.prepare("SELECT dept, SUM(sal) AS total FROM r GROUP BY dept").unwrap();
//! let result = prepared.execute().unwrap();
//!
//! // One symbolic result, many readings:
//! let after_deletion = result.delete_tokens(["p2"]);          // fire employee 2
//! let plain = result.valuate(&Valuation::<Nat>::ones()).collapse().unwrap();
//! assert_eq!(plain.rows().next().unwrap().get("total").unwrap().to_string(), "30");
//! assert_eq!(after_deletion.len(), 1);
//! ```

use aggprov_algebra::hom::Valuation;
use aggprov_algebra::poly::{NatPoly, Var};
use aggprov_algebra::semiring::{CommutativeSemiring, Security};
use aggprov_core::eval::{collapse, map_hom_mk, map_hom_mk_where};
use aggprov_core::km::Km;
use aggprov_core::ops::MKRel;
use aggprov_core::Value;
use aggprov_krel::error::{RelError, Result};
use aggprov_krel::relation::{Tuple, TupleRef};
use aggprov_krel::schema::Schema;
use std::collections::BTreeSet;
use std::fmt;

/// The result of executing a (prepared) query: an annotated relation with
/// fluent access and provenance-interrogation methods.
///
/// The annotation type `A` is the database's semiring, so which methods are
/// available follows the algebra: [`valuate`](ResultSet::valuate) and
/// [`delete_tokens`](ResultSet::delete_tokens) exist only on provenance
/// results (`Km<ℕ[X]>`), [`clearance`](ResultSet::clearance) only on
/// security results, [`collapse`](ResultSet::collapse) on any `Km<K>`.
///
/// Determinism guarantee: a `ResultSet` is a pure function of the plan,
/// the parameters and the database — never of `AGGPROV_THREADS`. The
/// partition-parallel operators merge their shards in a deterministic
/// order and keep the symbolic token path sequential, so rows, annotations
/// and [`rows`](ResultSet::rows) iteration order are bit-identical at
/// every thread count (property-tested against the literal §4.3 oracle).
#[derive(Clone, PartialEq, Debug)]
pub struct ResultSet<A: CommutativeSemiring> {
    rel: MKRel<A>,
}

impl<A: CommutativeSemiring> ResultSet<A> {
    /// Wraps an annotated relation.
    pub fn from_relation(rel: MKRel<A>) -> Self {
        ResultSet { rel }
    }

    /// The underlying annotated relation.
    pub fn relation(&self) -> &MKRel<A> {
        &self.rel
    }

    /// Unwraps into the underlying annotated relation.
    pub fn into_relation(self) -> MKRel<A> {
        self.rel
    }

    /// The result schema.
    pub fn schema(&self) -> &Schema {
        self.rel.schema()
    }

    /// The column names, in order.
    pub fn columns(&self) -> Vec<&str> {
        self.rel.schema().attrs().iter().map(|a| a.name()).collect()
    }

    /// The position of a column.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.rel.schema().index_of(name)
    }

    /// The number of rows (the support size).
    pub fn len(&self) -> usize {
        self.rel.len()
    }

    /// True iff the result has no rows.
    pub fn is_empty(&self) -> bool {
        self.rel.is_empty()
    }

    /// Iterates over `(tuple, annotation)` pairs (the raw relation view).
    pub fn iter(&self) -> impl Iterator<Item = (TupleRef<'_, Value<A>>, &A)> {
        self.rel.iter()
    }

    /// Iterates over [`Row`]s with by-name column access.
    pub fn rows(&self) -> impl Iterator<Item = Row<'_, A>> {
        let schema = self.rel.schema();
        self.rel.iter().map(move |(tuple, annotation)| Row {
            schema,
            tuple,
            annotation,
        })
    }

    /// The annotation of a tuple (`0_K` outside the support).
    pub fn annotation(&self, t: &Tuple<Value<A>>) -> A {
        self.rel.annotation(t)
    }
}

/// One result row: the tuple plus its annotation, with columns addressable
/// by name or position.
#[derive(Clone, Copy, Debug)]
pub struct Row<'a, A: CommutativeSemiring> {
    schema: &'a Schema,
    tuple: TupleRef<'a, Value<A>>,
    annotation: &'a A,
}

impl<'a, A: CommutativeSemiring> Row<'a, A> {
    /// The value of a named column.
    pub fn get(&self, column: &str) -> Result<&'a Value<A>> {
        Ok(self.tuple.get(self.schema.index_of(column)?))
    }

    /// The value at a position.
    pub fn at(&self, index: usize) -> &'a Value<A> {
        self.tuple.get(index)
    }

    /// The row's annotation.
    pub fn annotation(&self) -> &'a A {
        self.annotation
    }

    /// The underlying tuple.
    pub fn tuple(&self) -> TupleRef<'a, Value<A>> {
        self.tuple
    }
}

impl<K: CommutativeSemiring> ResultSet<Km<K>> {
    /// Applies a base-semiring homomorphism under `Km` (the lifting
    /// `h^M : K^M → K'^M`), resolving newly-decidable tokens — the fluent
    /// form of [`map_hom_mk`].
    pub fn map_hom<K2: CommutativeSemiring>(&self, h: impl Fn(&K) -> K2) -> ResultSet<Km<K2>> {
        ResultSet {
            rel: map_hom_mk(&self.rel, &h),
        }
    }

    /// Collapses a result whose symbolic atoms have all resolved into its
    /// base-semiring form. Fails (with the offending annotation in the
    /// message) if symbolic atoms survive.
    pub fn collapse(&self) -> Result<ResultSet<K>>
    where
        K: CommutativeSemiring,
    {
        Ok(ResultSet {
            rel: collapse(&self.rel)?,
        })
    }
}

impl ResultSet<Km<NatPoly>> {
    /// Specializes the stored provenance under a token valuation — the
    /// workhorse for deletion propagation, bag multiplicities, trust and
    /// cost readings. This is where the paper's "evaluate once, interrogate
    /// many times" workflow lives: the query is **not** re-evaluated.
    ///
    /// Valuating is a provenance-database operation: a bag database
    /// (`Database<Nat>`) has no tokens to valuate, so this does not
    /// compile there —
    ///
    /// ```compile_fail
    /// use aggprov_engine::Database;
    /// use aggprov_algebra::hom::Valuation;
    /// use aggprov_algebra::semiring::Nat;
    ///
    /// let mut db: Database<Nat> = Database::new();
    /// db.exec("CREATE TABLE r (x NUM); INSERT INTO r VALUES (1)").unwrap();
    /// let out = db.prepare("SELECT x FROM r").unwrap().execute().unwrap();
    /// out.valuate(&Valuation::<Nat>::ones()); // error: no tokens to valuate
    /// ```
    pub fn valuate<K2: CommutativeSemiring>(&self, val: &Valuation<K2>) -> ResultSet<Km<K2>> {
        self.map_hom(|p| val.eval(p))
    }

    /// Deletion propagation: substitutes the given tokens by `0` and keeps
    /// every other token symbolic (`x ↦ x`), so further interrogation —
    /// more deletions, trust readings, a final [`valuate`](ResultSet::valuate) — can continue
    /// on the smaller result. `delete_tokens(ts).valuate(&v)` equals
    /// valuating with `v` extended by `ts ↦ 0` directly.
    ///
    /// Only the rows that mention a deleted token are mapped (the
    /// homomorphism fixes every other row), as
    /// [`Database::delete_tokens`](crate::Database::delete_tokens) maps its
    /// tables: the result's untouched blocks are shared with `self`, and a
    /// result no deleted token touches comes back as it is.
    pub fn delete_tokens<I, S>(&self, tokens: I) -> ResultSet<Km<NatPoly>>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let deleted = deleted_vars(tokens);
        let fired = |p: &NatPoly| p.vars().any(|v| deleted.contains(v));
        let rel = map_hom_mk_where(&self.rel, &fired, &deletion_hom(&deleted));
        ResultSet {
            rel: rel.unwrap_or_else(|| self.rel.clone()),
        }
    }
}

/// The tokens to delete, each named once as a [`Var`]: a fired set is
/// probed with the polynomial's own variables, no name lookup per probe.
pub(crate) fn deleted_vars<I, S>(tokens: I) -> BTreeSet<Var>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    tokens.into_iter().map(|t| Var::new(t.as_ref())).collect()
}

/// The deletion homomorphism `ℕ[X] → ℕ[X]`: each token in `deleted` ↦ `0`,
/// every other token fixed. Computed as the O(size) canonical-term filter
/// [`NatPoly::drop_vars`] rather than by `eval`-based re-summation — firing
/// 50 tokens against membership sums of 10⁵ terms must not go quadratic —
/// and a polynomial mentioning no deleted token comes back as the same
/// shared storage. [`ResultSet::delete_tokens`] and
/// [`Database::delete_tokens`](crate::Database::delete_tokens) both apply
/// exactly this function.
pub(crate) fn deletion_hom(deleted: &BTreeSet<Var>) -> impl Fn(&NatPoly) -> NatPoly + '_ {
    move |p| p.drop_vars(&mut |v| deleted.contains(v))
}

impl ResultSet<Km<Security>> {
    /// The view of a principal holding `credentials`: annotations visible
    /// at that clearance become `Public` (present), the rest `Never`
    /// (absent), resolving the aggregates the principal may see
    /// (paper Example 3.5).
    pub fn clearance(&self, credentials: Security) -> ResultSet<Km<Security>> {
        self.map_hom(|s| {
            if s.visible_to(credentials) {
                Security::Public
            } else {
                Security::Never
            }
        })
    }
}

impl<A: CommutativeSemiring> From<MKRel<A>> for ResultSet<A> {
    fn from(rel: MKRel<A>) -> Self {
        ResultSet::from_relation(rel)
    }
}

impl<A: CommutativeSemiring> fmt::Display for ResultSet<A>
where
    Value<A>: fmt::Display,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.rel.fmt(f)
    }
}

/// Keeps `for row in &result`-free explicit iteration ergonomic without
/// committing to an IntoIterator representation.
impl<A: CommutativeSemiring> ResultSet<A> {
    /// The first row, if any (common for single-row aggregates).
    pub fn first(&self) -> Option<Row<'_, A>> {
        self.rows().next()
    }

    /// The single value of a one-row, one-column result — the fluent way
    /// to read `SELECT AGG(x) FROM …` outputs.
    pub fn scalar(&self) -> Result<&Value<A>> {
        match self.rel.iter().next() {
            Some((t, _)) if self.rel.len() == 1 && self.rel.schema().arity() == 1 => Ok(t.get(0)),
            _ => Err(RelError::Unsupported(format!(
                "scalar() needs a 1×1 result, got {} row(s) × {} column(s)",
                self.rel.len(),
                self.rel.schema().arity()
            ))),
        }
    }
}
