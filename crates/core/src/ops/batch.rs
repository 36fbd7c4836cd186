//! Vectorized batch kernels over the ground partition — the columnar
//! execution layer behind the engine's physical-plan pipeline.
//!
//! A [`Chunk`] is a relation mid-pipeline, and the one place that decides
//! when a relation becomes columns: it holds the relation it was made
//! from (an `Arc` handle on its tuple store) until a kernel first needs
//! columns, and only then splits it — the fully ground rows into a
//! [`ColumnBatch`] whose columns read their cells where they lie (in the
//! relation's tuple store, or through a join's match rows; see
//! [`aggprov_krel::batch`]) plus a live selection vector, so a filter
//! never moves data, and the symbolic fringe row-wise beside them, as
//! [`GroundBatch`] splits it. The kernels — [`Chunk::filter`],
//! [`Chunk::project`], [`hash_join`] — run classical columnar
//! algorithms over the ground batch: between constants every §4.3
//! equality token is `0`/`1`, so the token machinery degenerates to plain
//! comparisons and a filter→project→join chain never materializes a
//! relation between nodes.
//!
//! Filtering and join probing take the monomorphic loops of `ops::typed`
//! (the literal compiled once per kernel, branchless selection, large
//! kernels sharded in contiguous ranges, bit-identical to the serial
//! loop). A join indexes the side with fewer selected rows and probes with
//! the other, whatever the plan's orientation, and gathers no column: its
//! output reads its inputs' columns through the match rows.
//!
//! **Every kernel here is total**: handed symbolic rows it produces the
//! §4.3 result itself, so no caller asks a chunk whether it is ground.
//!
//! * **filter** has no cross-row terms in §4.3: ground rows take the
//!   vectorized path, fringe rows the token path (annotation × token, as
//!   in [`crate::ops::select_with_token`]);
//! * **projection** and **join** sum token-weighted contributions *across*
//!   rows when symbolic values are present. Without them
//!   [`Chunk::project_opts`] picks column handles and [`hash_join`] probes
//!   columns; with a symbolic row (on either operand, for the join) they
//!   run the token path of [`crate::ops`] by position — the keyed fold,
//!   the pairwise join over key-groundness partitions — over the input's
//!   relation, and hand the output relation on unsplit, bit-identical to
//!   [`crate::specops`]. A held input is scanned once: a ground one
//!   becomes columns, and the scan of one with a symbolic row stops there
//!   and the token path reads the held relation. They are the tuple-level
//!   `ops::project_opts`, `join_on_opts` and `product` too;
//! * **aggregation** and **set operations** are the pipeline breakers.
//!   [`Chunk::aggregate`] folds the chunk's rows where they lie — a held
//!   relation's, or the stored rows a split of one scan selects, through
//!   its column map — with [`crate::ops::group_by_opts`]'s fold, and
//!   materializes any other chunk first; `COUNT(*)` is a spec over
//!   [`crate::ops::STAR`], which reads no column. Set operations run on
//!   relations ([`crate::ops::union_opts`]).
//!
//! A chunk defers the additive merge of duplicate ground rows, and a
//! columnar join's product, to its next materialization
//! ([`Chunk::into_relation`]), which clones only the selected rows and
//! takes `⊗` only for them; by distributivity that is the eager merge of
//! the row-at-a-time path. A chunk no kernel has split materializes as the
//! relation it holds. An aggregate's fold over stored rows never merges
//! them: `Σ R(t) ∗ t(A)` is bilinear, so duplicates fold to their merge.

use crate::annotation::AggAnnotation;
use crate::km::CmpPred;
use crate::ops::typed::{self, Selection};
use crate::ops::{self, AggSpec, MKRel};
use crate::par::ExecOptions;
use crate::value::Value;
use aggprov_algebra::domain::Const;
use aggprov_krel::batch::{ColumnBatch, ColumnReader, GroundBatch};
use aggprov_krel::error::{RelError, Result};
use aggprov_krel::relation::{Tuple, TupleRef};
use aggprov_krel::schema::Schema;

/// One side of a batched comparison: a column of the chunk or a constant
/// (literals and already-bound `$n` parameters look the same down here).
#[derive(Clone, Debug)]
pub enum BatchOperand {
    /// The value at a column position.
    Col(usize),
    /// A constant.
    Lit(Const),
}

/// A batched comparison operator. `>`/`≥` are not represented: callers
/// normalize by swapping the operands, exactly as the token path does.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BatchCmp {
    /// Equality (the §4.3 token `[a = b]`, `0`/`1` between constants).
    Eq,
    /// A canonical order/inequality predicate.
    Pred(CmpPred),
}

/// A relation mid-pipeline, under the current schema: the relation itself
/// until a kernel first needs columns, then columnar ground rows + live
/// selection vector + row-wise symbolic fringe.
#[derive(Clone, Debug)]
pub struct Chunk<A: AggAnnotation> {
    schema: Schema,
    rows: Rows<A>,
}

#[derive(Clone, Debug)]
enum Rows<A: AggAnnotation> {
    /// A relation no kernel has split: a scanned table, a pipeline
    /// breaker's output, a cross-row kernel's token-path output.
    Held(MKRel<A>),
    Split(Split<A>),
}

#[derive(Clone, Debug)]
struct Split<A: AggAnnotation> {
    ground: ColumnBatch<A, Value<A>>,
    /// Selected ground-row indices, ascending; `None` = all rows.
    sel: Option<Vec<u32>>,
    fringe: Vec<(Tuple<Value<A>>, A)>,
}

impl<A: AggAnnotation> Chunk<A> {
    /// A chunk of `rel`'s rows under its schema. Nothing is split or
    /// copied: the chunk holds the relation, an `Arc` handle on its tuple
    /// store, until a kernel first needs columns, and a chunk no kernel
    /// has split hands it back from [`Chunk::into_relation`].
    pub fn from_relation(rel: &MKRel<A>) -> Self {
        Chunk::held(rel.clone())
    }

    fn held(rel: MKRel<A>) -> Self {
        let schema = rel.schema().clone();
        let rows = Rows::Held(rel);
        Chunk { schema, rows }
    }

    /// A chunk of every row of `batch` under `schema` — a batch a caller
    /// assembled itself, e.g. from owned columns
    /// ([`ColumnBatch::from_columns`]). The schema's arity must be the
    /// batch's, and every fringe row's.
    pub fn from_parts(schema: Schema, batch: GroundBatch<A, Value<A>>) -> Result<Self> {
        let (ground, fringe) = batch.into_parts();
        let mut arities =
            std::iter::once(ground.arity()).chain(fringe.iter().map(|(t, _)| t.arity()));
        if let Some(got) = arities.find(|&n| n != schema.arity()) {
            return Err(RelError::ArityMismatch {
                expected: schema.arity(),
                got,
            });
        }
        Ok(Split::new(ground, fringe).into_chunk(schema))
    }

    /// Materializes the chunk into a relation. A held relation comes back
    /// as it is, under the chunk's schema. Of a split one, the selected
    /// ground rows come back as `Value` tuples (stored cells cloned, owned
    /// ones lifted to `Value::Const`), duplicates merge additively, and the
    /// fringe rows merge in after them; a join's deferred product is taken
    /// here, for the selected rows only.
    pub fn into_relation(self) -> Result<MKRel<A>> {
        match self.rows {
            Rows::Held(rel) => rel.with_schema(self.schema),
            Rows::Split(split) => GroundBatch::from_parts(split.ground, split.fringe)
                .into_relation_selected(self.schema, Value::Const, split.sel.as_deref()),
        }
    }

    /// The current schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Replaces the schema wholesale (a rename; arity must match).
    pub fn with_schema(mut self, schema: Schema) -> Result<Self> {
        if schema.arity() != self.schema.arity() {
            return Err(RelError::ArityMismatch {
                expected: self.schema.arity(),
                got: schema.arity(),
            });
        }
        self.schema = schema;
        Ok(self)
    }

    /// The number of currently selected ground rows.
    pub fn ground_len(&mut self) -> usize {
        self.split().selected().len()
    }

    /// The symbolic fringe rows.
    pub fn fringe(&mut self) -> &[(Tuple<Value<A>>, A)] {
        &self.split().fringe
    }

    /// The chunk's split, splitting a held relation (the loop turns at
    /// most twice).
    fn split(&mut self) -> &mut Split<A> {
        loop {
            match self.rows {
                Rows::Split(ref mut split) => return split,
                Rows::Held(ref rel) => self.rows = Rows::Split(Split::of(rel)),
            }
        }
    }

    fn into_split(self) -> Split<A> {
        match self.rows {
            Rows::Held(rel) => Split::of(&rel),
            Rows::Split(split) => split,
        }
    }

    /// The vectorized filter kernel: narrows the selection vector over the
    /// ground columns (between constants the comparison token is `0`/`1`,
    /// so a row is kept verbatim or dropped — no semiring work), and runs
    /// the §4.3 token path over the fringe rows (annotation × token).
    /// `>`/`≥` callers pass swapped operands with `Pred(Lt)`/`Pred(Le)`.
    ///
    /// A column compared against a literal takes the monomorphic
    /// branchless loop of `ops::typed` over its cells in place (sharded
    /// across `opts`' workers when large). Matches
    /// [`crate::ops::select_with_token`] row for row, including the type
    /// errors ordering comparisons raise across value types.
    pub fn filter(
        &mut self,
        left: &BatchOperand,
        cmp: BatchCmp,
        right: &BatchOperand,
        opts: &ExecOptions,
    ) -> Result<()> {
        let split = self.split();
        // `None`: the selection stands as it is.
        let kept: Option<Vec<u32>> = match (left, right) {
            // The common column-vs-literal shapes (either orientation —
            // `>`/`≥` arrive with the literal on the left after operand
            // swapping): the literal is bound/encoded once per kernel
            // invocation, never touched per row.
            (BatchOperand::Col(i), BatchOperand::Lit(c)) => {
                Some(split.filter_col_lit(*i, cmp, c, false, opts)?)
            }
            (BatchOperand::Lit(c), BatchOperand::Col(i)) => {
                Some(split.filter_col_lit(*i, cmp, c, true, opts)?)
            }
            (BatchOperand::Col(li), BatchOperand::Col(ri)) => {
                let (mut left, mut right) = (split.column(*li)?, split.column(*ri)?);
                let mut kept = Vec::new();
                for r in split.selected() {
                    let oob = || RelError::Internal(format!("ground row {r} out of range"));
                    let (lv, rv) = (left.get(r).ok_or_else(oob)?, right.get(r).ok_or_else(oob)?);
                    if const_cmp(lv, cmp, rv)? {
                        kept.push(r);
                    }
                }
                Some(kept)
            }
            // Row-independent: decide once. An empty selection never
            // reaches the comparison (so it cannot raise), exactly as the
            // row loop behaves.
            (BatchOperand::Lit(lc), BatchOperand::Lit(rc)) => {
                (split.selected().len() > 0 && !const_cmp(lc, cmp, rc)?).then(Vec::new)
            }
        };
        if let Some(kept) = kept {
            split.sel = Some(kept);
        }
        // Fringe rows: genuine §4.3 tokens. Each operand is resolved once,
        // outside the row loop — a constant (literal or bound `$n`
        // parameter) is lifted to a `Value` here, not cloned per row.
        if !split.fringe.is_empty() {
            let (left, right) = (FringeOperand::of(left), FringeOperand::of(right));
            let mut kept_fringe = Vec::with_capacity(split.fringe.len());
            for (t, k) in split.fringe.drain(..) {
                let (lv, rv) = (left.at(&t), right.at(&t));
                let tok = match cmp {
                    BatchCmp::Eq => A::value_eq(lv, rv)?,
                    BatchCmp::Pred(p) => A::value_cmp(p, lv, rv)?,
                };
                if tok.is_zero() {
                    continue;
                }
                let ann = if tok.is_one() { k } else { k.times(&tok) };
                kept_fringe.push((t, ann));
            }
            split.fringe = kept_fringe;
        }
        Ok(())
    }

    /// [`Chunk::project_opts`] on one thread.
    pub fn project(self, columns: &[usize], schema: Schema) -> Result<Chunk<A>> {
        self.project_opts(columns, schema, &ExecOptions::serial())
    }

    /// The projection kernel, total over ground and symbolic rows.
    ///
    /// Without a fringe it picks the requested column handles (indices may
    /// repeat — duplicate select items read one column twice). No values
    /// move, no selection is lost; duplicate
    /// *rows* stay unmerged until the next materialization, which merges
    /// them additively — for ground data exactly the §4.3 projection.
    ///
    /// With a fringe, projection sums token-weighted contributions across
    /// rows: the keyed token fold (`keyed_fold`, which `union` and
    /// `group_by` run too) runs over the chunk's relation, on the
    /// *distinct* requested positions (§4.3 projects onto a set of
    /// attributes), duplicated select items expand positionally, and the
    /// output relation is the chunk handed back, unsplit. `opts` shards
    /// that fold; the result is identical at every thread count.
    pub fn project_opts(
        mut self,
        columns: &[usize],
        schema: Schema,
        opts: &ExecOptions,
    ) -> Result<Chunk<A>> {
        if schema.arity() != columns.len() {
            return Err(RelError::ArityMismatch {
                expected: columns.len(),
                got: schema.arity(),
            });
        }
        if let Some(&c) = columns.iter().find(|&&c| c >= self.schema.arity()) {
            return Err(RelError::Internal(format!(
                "projection column {c} out of range for a {}-column chunk",
                self.schema.arity()
            )));
        }
        if self.ground().is_some() {
            let split = self.into_split();
            let ground = split.ground.project(columns)?;
            return Ok(Split { ground, ..split }.into_chunk(schema));
        }
        let rel = self.into_relation()?;
        // `distinct`: the requested positions in first-appearance order;
        // `expand[i]`: where output column `i` sits in `distinct`.
        let mut distinct: Vec<usize> = Vec::new();
        let expand: Vec<usize> = columns
            .iter()
            .map(|c| {
                distinct.iter().position(|d| d == c).unwrap_or_else(|| {
                    distinct.push(*c);
                    distinct.len() - 1
                })
            })
            .collect();
        let mut rows = ops::project_fold(&rel, &distinct, opts)?;
        if distinct.len() != columns.len() {
            // Injective on rows (every distinct position appears in
            // `expand`), so the expanded keys never collide.
            rows = rows
                .into_iter()
                .map(|(t, k)| (t.project(&expand), k))
                .collect();
        }
        Ok(Chunk::held(ops::from_map(schema, rows)?))
    }

    /// The aggregation breaker: `GROUP BY group_attrs` with `specs`
    /// ([`crate::ops::group_by_opts`]), or with no grouping attributes the
    /// one row of [`crate::ops::agg_all`], over the chunk's rows where they
    /// lie. The sum `Σ R(t) ∗ t(A)` is linear in the rows, so no relation
    /// is built in front of it:
    ///
    /// * a held relation's rows are folded as they are;
    /// * a fringe-free split whose every column reads one stored scan —
    ///   what filters and projections over a scanned table leave — folds
    ///   the stored rows its selection names, borrowed from the table's
    ///   store, through the chunk's column map
    ///   ([`ColumnBatch::stored_rows`]). Equal rows stay distinct entries
    ///   there and fold to what their additive merge folds to (bilinearity;
    ///   the tensors and sums are kept in normal form);
    /// * any other chunk — a join's output, a symbolic fringe — is
    ///   materialized first ([`Chunk::into_relation`]).
    ///
    /// The stored rows come in the table's order, not the materialized
    /// relation's, and an error names the first offending value it meets:
    /// when the fold over stored rows fails, the materialized fold runs and
    /// its result, the error it raises, is returned.
    pub fn aggregate(
        self,
        group_attrs: &[&str],
        specs: &[AggSpec<'_>],
        opts: &ExecOptions,
    ) -> Result<MKRel<A>> {
        let schema = &self.schema;
        let in_place = match &self.rows {
            Rows::Held(rel) => {
                return aggregate(rel.iter(), schema, None, group_attrs, specs, opts);
            }
            Rows::Split(split) if split.fringe.is_empty() => {
                match split.ground.stored_rows(split.sel.as_deref())? {
                    Some((columns, rows)) => {
                        aggregate(rows, schema, Some(&columns), group_attrs, specs, opts).ok()
                    }
                    None => None,
                }
            }
            Rows::Split(_) => None,
        };
        if let Some(out) = in_place {
            return Ok(out);
        }
        let schema = self.schema.clone();
        let rel = self.into_relation()?;
        aggregate(rel.iter(), &schema, None, group_attrs, specs, opts)
    }
}

impl<A: AggAnnotation> Split<A> {
    /// Splits a relation, support order kept in both partitions; the
    /// ground rows' cells and annotations are read in its store.
    fn of(rel: &MKRel<A>) -> Self {
        let (ground, fringe) = GroundBatch::from_relation(rel, Value::as_const).into_parts();
        Split::new(ground, fringe)
    }

    /// Every row of `ground`, and `fringe`.
    fn new(ground: ColumnBatch<A, Value<A>>, fringe: Vec<(Tuple<Value<A>>, A)>) -> Self {
        Split {
            ground,
            sel: None,
            fringe,
        }
    }

    fn into_chunk(self, schema: Schema) -> Chunk<A> {
        let rows = Rows::Split(self);
        Chunk { schema, rows }
    }

    /// The selected ground rows, ascending — iterated, not collected: an
    /// unfiltered split has no selection vector to copy.
    fn selected(&self) -> Selection<'_> {
        Selection::new(self.sel.as_deref(), self.ground.len())
    }

    /// A reader of column `i`. A position outside the chunk (a planner
    /// bug) is an error, not a panic — these kernels sit on the serving
    /// path.
    fn column(&self, i: usize) -> Result<ColumnReader<'_, A, Value<A>>> {
        self.ground.column(i).ok_or_else(|| {
            RelError::Internal(format!(
                "column {i} out of range for a {}-column chunk",
                self.ground.arity()
            ))
        })
    }

    /// One column-vs-literal filter pass over the ground rows: the
    /// literal is compiled once for the column's integral cells, and
    /// every other cell is compared structurally (the literal borrowed,
    /// never cloned, per row).
    fn filter_col_lit(
        &self,
        i: usize,
        cmp: BatchCmp,
        lit: &Const,
        lit_on_left: bool,
        opts: &ExecOptions,
    ) -> Result<Vec<u32>> {
        let col = self.column(i)?;
        let test = typed::compile_int_test(cmp, lit, lit_on_left);
        let other = |cell: &Const| {
            if lit_on_left {
                const_cmp(lit, cmp, cell)
            } else {
                const_cmp(cell, cmp, lit)
            }
        };
        typed::filter_lit(&col, self.selected(), test, other, opts)
    }
}

/// Decides one batched comparison between constants, with exactly the
/// semantics of [`AggAnnotation::value_cmp`] on `Const`/`Const` pairs:
/// `=` is structural equality, `≠` is total across types, and ordering
/// across types is a type error.
pub(crate) fn const_cmp(lv: &Const, cmp: BatchCmp, rv: &Const) -> Result<bool> {
    match cmp {
        BatchCmp::Eq => Ok(lv == rv),
        BatchCmp::Pred(p) => {
            let same_type = std::mem::discriminant(lv) == std::mem::discriminant(rv);
            if !same_type && p != CmpPred::Ne {
                return Err(RelError::TypeError(format!(
                    "cannot order {} against {}",
                    lv.type_name(),
                    rv.type_name()
                )));
            }
            Ok(p.decide(lv, rv))
        }
    }
}

/// One filter operand as the fringe loop reads it: a column of the row,
/// or the constant lifted to a [`Value`] before the loop.
enum FringeOperand<A: AggAnnotation> {
    Col(usize),
    Lit(Value<A>),
}

impl<A: AggAnnotation> FringeOperand<A> {
    fn of(op: &BatchOperand) -> Self {
        match op {
            BatchOperand::Col(i) => FringeOperand::Col(*i),
            BatchOperand::Lit(c) => FringeOperand::Lit(Value::Const(c.clone())),
        }
    }

    fn at<'a>(&'a self, t: &'a Tuple<Value<A>>) -> &'a Value<A> {
        match self {
            FringeOperand::Col(i) => t.get(*i),
            FringeOperand::Lit(v) => v,
        }
    }
}

/// The batched equi-join kernel, total over ground and symbolic rows: the
/// output chunk's columns are the left's followed by the right's,
/// annotated with the semiring product (times the §4.3 key tokens, where
/// those are symbolic). An empty `on` degenerates to the cartesian
/// product.
///
/// When **neither** chunk has a symbolic row, every key token is
/// structural equality between constants and this is the classical join:
/// index the selected rows of the chunk with fewer of them (the right one
/// on a tie) by their key cells, probe with the other's key cells read in
/// place. Each pair is annotated `left ⊗ right` whichever side was
/// indexed, and the pairs come out in the probe side's order, so a small
/// dimension joined to a large scan hands the scan's rows on in store
/// order. A single key column integral in every selected indexed row
/// builds an integer-hashed index (see `ops::typed`); every other key
/// shape (strings, mixed types, several columns, none) goes through one
/// structural index over the key cells where they lie. The probe loop
/// shards across `opts`' workers and writes the match rows straight into
/// the output's two index vectors. Nothing
/// else is built: the output batch ([`ColumnBatch::from_join`]) reads both
/// inputs' columns through those vectors and defers the product — filters
/// narrow its selection and projections pick its columns without reading
/// the annotations, and `⊗` runs at [`Chunk::into_relation`] on the rows
/// still selected — or, for a join over this output, on the rows its pairs
/// name. A cell is cloned only there too, for the selected rows.
///
/// When **either** chunk has a symbolic row, the token-weighted pairwise
/// join (`ops::join_at`) runs by position over both chunks' relations: the
/// ground-keyed rows of each side, a symbolic payload included, go through
/// the same build index and probe, pairs with a symbolic key on either
/// side through the token nested loop, and the output relation is the
/// chunk handed back, unsplit. A held relation found to have a symbolic
/// row is used as it is, and a right side is not split when the left has
/// one. [`crate::ops::join_on_opts`] and [`crate::ops::product`] are this
/// kernel over two chunks of relations.
pub fn hash_join<A: AggAnnotation>(
    mut left: Chunk<A>,
    mut right: Chunk<A>,
    on: &[(usize, usize)],
    schema: Schema,
    opts: &ExecOptions,
) -> Result<Chunk<A>> {
    let (larity, rarity) = (left.schema.arity(), right.schema.arity());
    if schema.arity() != larity + rarity {
        return Err(RelError::ArityMismatch {
            expected: larity + rarity,
            got: schema.arity(),
        });
    }
    // An out-of-range key position is rejected before either path indexes
    // a row with it.
    let mut keys = on.iter().flat_map(|&(i, j)| [(i, larity), (j, rarity)]);
    if let Some((i, n)) = keys.find(|&(i, n)| i >= n) {
        return Err(RelError::Internal(format!(
            "column {i} out of range for a {n}-column chunk"
        )));
    }
    let pairs = left
        .ground()
        .and_then(|l| right.ground().map(|r| columnar_join(l, r, on, opts)));
    let Some(pairs) = pairs else {
        let (lpos, rpos): (Vec<usize>, Vec<usize>) = on.iter().copied().unzip();
        let (left, right) = (left.into_relation()?, right.into_relation()?);
        let joined = ops::join_at(&left, &right, &lpos, &rpos, schema, opts)?;
        return Ok(Chunk::held(joined));
    };
    let (lrows, rrows) = pairs?;
    // The inputs' columns and annotation columns move into the output,
    // read through the match rows, unmultiplied.
    let (left, right) = (left.into_split().ground, right.into_split().ground);
    let ground = ColumnBatch::from_join(left, lrows, right, rrows)?;
    Ok(Split::new(ground, Vec::new()).into_chunk(schema))
}

/// [`Chunk::aggregate`]'s fold over support entries read through a column
/// map: [`crate::ops::agg_all`]'s with no grouping attributes,
/// [`crate::ops::group_by_opts`]'s otherwise.
fn aggregate<'a, A: AggAnnotation + 'a>(
    entries: impl Iterator<Item = (TupleRef<'a, Value<A>>, &'a A)>,
    schema: &Schema,
    columns: Option<&[usize]>,
    group_attrs: &[&str],
    specs: &[AggSpec<'_>],
    opts: &ExecOptions,
) -> Result<MKRel<A>> {
    if group_attrs.is_empty() {
        ops::agg_entries(entries, schema, columns, specs)
    } else {
        ops::group_by_entries(entries, schema, columns, group_attrs, specs, opts)
    }
}

use witness::Ground;

/// The fringe-free witness, in a module of its own so that its field is
/// out of this file's reach: [`Chunk::ground`] is the only way to a
/// `Ground`, so a columnar kernel that takes two of them cannot be called
/// after checking one operand (the PR 4 `annotation_at` bug class).
mod witness {
    use super::{AggAnnotation, Chunk, ColumnBatch, Rows, Split, Value};

    /// A split that carries no symbolic rows: between its rows and another
    /// `Ground`'s every §4.3 equality token is structural equality.
    pub(super) struct Ground<'a, A: AggAnnotation>(&'a Split<A>);

    impl<A: AggAnnotation> Chunk<A> {
        /// The chunk as a fringe-free split; `None` iff it has a symbolic
        /// row, which leaves a held relation held (the scan stops there).
        pub(super) fn ground(&mut self) -> Option<Ground<'_, A>> {
            if let Rows::Held(rel) = &self.rows {
                let ground = ColumnBatch::from_relation(rel, Value::as_const)?;
                self.rows = Rows::Split(Split::new(ground, Vec::new()));
            }
            match &self.rows {
                Rows::Split(split) if split.fringe.is_empty() => Some(Ground(split)),
                _ => None,
            }
        }
    }

    impl<'a, A: AggAnnotation> Ground<'a, A> {
        pub(super) fn split(&self) -> &'a Split<A> {
            self.0
        }
    }
}

/// The classical columnar equi-join of two fringe-free chunks over key
/// positions already checked against both arities, over each side's
/// selected rows: the side with fewer of them is indexed and the other
/// probes it (`typed::join_indexing_smaller`, the rule `ops::join_at`'s
/// ground-key block follows too). Returns the pairs' left and right rows,
/// in the probe side's order; no cell is copied and no annotation is
/// multiplied here.
fn columnar_join<A: AggAnnotation>(
    left: Ground<'_, A>,
    right: Ground<'_, A>,
    on: &[(usize, usize)],
    opts: &ExecOptions,
) -> Result<(Vec<u32>, Vec<u32>)> {
    let (left, right) = (left.split(), right.split());
    let lkeys: Vec<ColumnReader<'_, A, Value<A>>> = on
        .iter()
        .map(|(i, _)| left.column(*i))
        .collect::<Result<_>>()?;
    let rkeys: Vec<ColumnReader<'_, A, Value<A>>> = on
        .iter()
        .map(|(_, j)| right.column(*j))
        .collect::<Result<_>>()?;
    typed::join_indexing_smaller(&lkeys, &rkeys, left.selected(), right.selected(), opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::km::Km;
    use crate::{ops, specops};
    use aggprov_algebra::monoid::MonoidKind;
    use aggprov_algebra::poly::NatPoly;
    use aggprov_algebra::tensor::Tensor;
    use aggprov_krel::relation::Relation;

    type P = Km<NatPoly>;

    fn tok(name: &str) -> P {
        Km::embed(NatPoly::token(name))
    }

    fn sch(names: &[&str]) -> Schema {
        Schema::new(names.iter().copied()).unwrap()
    }

    fn serial() -> ExecOptions {
        ExecOptions::serial()
    }

    fn sym(v: i64) -> Value<P> {
        Value::Agg(
            MonoidKind::Sum,
            Tensor::from_terms(&MonoidKind::Sum, [(tok("x"), Const::int(v))]),
        )
    }

    fn mixed() -> MKRel<P> {
        Relation::from_rows(
            sch(&["a", "b"]),
            [
                (vec![Value::int(1), Value::int(10)], tok("p1")),
                (vec![Value::int(2), Value::int(20)], tok("p2")),
                (vec![Value::int(2), sym(20)], tok("p3")),
            ],
        )
        .unwrap()
    }

    #[test]
    fn chunk_round_trips() {
        let rel = mixed();
        let mut c = Chunk::from_relation(&rel);
        assert_eq!(c.ground_len(), 2);
        assert_eq!(c.fringe().len(), 1);
        assert_eq!(c.into_relation().unwrap(), rel);
    }

    #[test]
    fn ground_view_exists_exactly_without_a_fringe() {
        let rel = mixed();
        // A held relation with a symbolic row stays held, its store shared.
        let mut chunk = Chunk::from_relation(&rel);
        assert!(chunk.ground().is_none());
        assert!(matches!(&chunk.rows, Rows::Held(r) if r.shares_tuples_with(&rel)));
        assert!(!chunk.fringe().is_empty());
        // `a = 1` is a comparison between constants on the symbolic row
        // too (its `a` is 2), so the filter drops it: no fringe is left.
        let (a, one) = (BatchOperand::Col(0), BatchOperand::Lit(Const::int(1)));
        chunk.filter(&a, BatchCmp::Eq, &one, &serial()).unwrap();
        assert!(chunk.fringe().is_empty());
        assert!(chunk.ground().is_some());
        let mut empty = Chunk::from_relation(&MKRel::<P>::empty(sch(&["a"])));
        assert!(empty.ground().is_some());
    }

    #[test]
    fn filter_matches_select_on_ground_and_fringe() {
        let rel = mixed();
        let mut c = Chunk::from_relation(&rel);
        c.filter(
            &BatchOperand::Col(0),
            BatchCmp::Eq,
            &BatchOperand::Lit(Const::int(2)),
            &serial(),
        )
        .unwrap();
        let got = c.into_relation().unwrap();
        let want = ops::select_eq(&rel, "a", &Value::int(2)).unwrap();
        assert_eq!(got, want);

        // An order comparison over the symbolic column produces a token
        // on the fringe row and plain 0/1 on the ground rows — with the
        // literal on either side (`15 > b` arrives as `b < 15` swapped).
        for lit_on_left in [false, true] {
            let (col, lit) = (BatchOperand::Col(1), BatchOperand::Lit(Const::int(15)));
            let (left, pred, right) = if lit_on_left {
                (&lit, CmpPred::Le, &col)
            } else {
                (&col, CmpPred::Lt, &lit)
            };
            let mut c = Chunk::from_relation(&rel);
            c.filter(left, BatchCmp::Pred(pred), right, &serial())
                .unwrap();
            let got = c.into_relation().unwrap();
            let want = if lit_on_left {
                ops::select_with_token(&rel, |_, t| {
                    P::value_cmp(CmpPred::Le, &Value::int(15), t.get(1))
                })
            } else {
                ops::select_cmp(&rel, "b", CmpPred::Lt, &Value::int(15))
            };
            assert_eq!(got, want.unwrap());
        }
    }

    #[test]
    fn ordering_across_types_is_a_type_error() {
        // An all-string column, and a mixed-type one.
        let strs: MKRel<P> =
            Relation::from_rows(sch(&["a"]), [(vec![Value::str("s")], tok("p1"))]).unwrap();
        let mixed: MKRel<P> = Relation::from_rows(
            sch(&["a"]),
            [
                (vec![Value::str("s")], tok("p1")),
                (vec![Value::Const(Const::Bool(true))], tok("p2")),
            ],
        )
        .unwrap();
        for rel in [strs, mixed] {
            let mut c = Chunk::from_relation(&rel);
            let err = c
                .filter(
                    &BatchOperand::Col(0),
                    BatchCmp::Pred(CmpPred::Lt),
                    &BatchOperand::Lit(Const::int(1)),
                    &serial(),
                )
                .unwrap_err();
            assert!(err.to_string().contains("cannot order"), "{err}");
            // ≠ across types is simply true, as on the token path.
            let mut c = Chunk::from_relation(&rel);
            c.filter(
                &BatchOperand::Col(0),
                BatchCmp::Pred(CmpPred::Ne),
                &BatchOperand::Lit(Const::int(1)),
                &serial(),
            )
            .unwrap();
            assert_eq!(c.ground_len(), rel.len());
        }
    }

    #[test]
    fn literal_only_predicates_decide_once() {
        let rel = mixed();
        let mut c = Chunk::from_relation(&rel);
        c.filter(
            &BatchOperand::Lit(Const::int(1)),
            BatchCmp::Pred(CmpPred::Lt),
            &BatchOperand::Lit(Const::int(2)),
            &serial(),
        )
        .unwrap();
        assert_eq!(c.ground_len(), 2, "true literal predicate keeps all rows");
        let mut c = Chunk::from_relation(&rel);
        c.filter(
            &BatchOperand::Lit(Const::int(2)),
            BatchCmp::Eq,
            &BatchOperand::Lit(Const::int(1)),
            &serial(),
        )
        .unwrap();
        assert_eq!(c.ground_len(), 0, "false literal predicate drops all rows");
    }

    #[test]
    fn project_gathers_and_defers_the_merge() {
        let rel: MKRel<P> = Relation::from_rows(
            sch(&["a", "b"]),
            [
                (vec![Value::int(1), Value::int(10)], tok("p1")),
                (vec![Value::int(1), Value::int(20)], tok("p2")),
            ],
        )
        .unwrap();
        let c = Chunk::from_relation(&rel);
        let mut p = c.project(&[0], sch(&["a"])).unwrap();
        assert_eq!(p.ground_len(), 2, "merge deferred to materialization");
        let got = p.into_relation().unwrap();
        let want = specops::project(&rel, &["a"]).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn hash_join_matches_join_on() {
        let r: MKRel<P> = Relation::from_rows(
            sch(&["a", "b"]),
            [
                (vec![Value::int(1), Value::int(10)], tok("p1")),
                (vec![Value::int(2), Value::int(20)], tok("p2")),
            ],
        )
        .unwrap();
        let s: MKRel<P> = Relation::from_rows(
            sch(&["c", "d"]),
            [
                (vec![Value::int(1), Value::int(100)], tok("q1")),
                (vec![Value::int(1), Value::int(200)], tok("q2")),
            ],
        )
        .unwrap();
        let schema = sch(&["a", "b", "c", "d"]);
        let want = specops::join_on(&r, &s, &[("a", "c")]).unwrap();
        let j = hash_join(
            Chunk::from_relation(&r),
            Chunk::from_relation(&s),
            &[(0, 0)],
            schema.clone(),
            &serial(),
        )
        .unwrap()
        .into_relation()
        .unwrap();
        assert_eq!(j, want);
        // Empty `on` is the cartesian product.
        let prod = hash_join(
            Chunk::from_relation(&r),
            Chunk::from_relation(&s),
            &[],
            schema,
            &serial(),
        )
        .unwrap()
        .into_relation()
        .unwrap();
        assert_eq!(prod, specops::product(&r, &s).unwrap());
    }

    #[test]
    fn hash_join_string_keys_match_mixed() {
        let r: MKRel<P> = Relation::from_rows(
            sch(&["k", "v"]),
            [
                (vec![Value::str("x"), Value::int(1)], tok("p1")),
                (vec![Value::str("y"), Value::int(2)], tok("p2")),
                (vec![Value::str("z"), Value::int(3)], tok("p3")),
            ],
        )
        .unwrap();
        let s: MKRel<P> = Relation::from_rows(
            sch(&["k2", "w"]),
            [
                (vec![Value::str("y"), Value::int(10)], tok("q1")),
                (vec![Value::str("x"), Value::int(20)], tok("q2")),
                (vec![Value::str("w"), Value::int(30)], tok("q3")),
            ],
        )
        .unwrap();
        let schema = sch(&["k", "v", "k2", "w"]);
        let strs = hash_join(
            Chunk::from_relation(&r),
            Chunk::from_relation(&s),
            &[(0, 0)],
            schema.clone(),
            &serial(),
        )
        .unwrap()
        .into_relation()
        .unwrap();
        assert_eq!(strs, specops::join_on(&r, &s, &[("k", "k2")]).unwrap());

        // One integer key among the build side's strings: the structural
        // index holds both types, and the integer matches nothing.
        let mut s_mixed = s.clone();
        s_mixed
            .insert(vec![Value::int(7), Value::int(40)], tok("q4"))
            .unwrap();
        let mixed = hash_join(
            Chunk::from_relation(&r),
            Chunk::from_relation(&s_mixed),
            &[(0, 0)],
            schema,
            &serial(),
        )
        .unwrap()
        .into_relation()
        .unwrap();
        assert_eq!(mixed, strs);
        assert_eq!(
            mixed,
            specops::join_on(&r, &s_mixed, &[("k", "k2")]).unwrap()
        );
    }

    #[test]
    fn cross_row_kernels_carry_symbolic_fringes() {
        // Projection and hash join are total: handed a chunk with a
        // fringe they run the §4.3 token path themselves and hand back a
        // chunk that still carries the symbolic rows.
        let rel = mixed();
        let mut chunk = Chunk::from_relation(&rel);
        assert!(!chunk.fringe().is_empty());

        // Π_b sums token-weighted contributions across rows: each ground
        // value and the symbolic x⊗20 pick up the other's annotation.
        let mut p = chunk.clone().project(&[1], sch(&["b"])).unwrap();
        assert_eq!((p.ground_len(), p.fringe().len()), (2, 1));
        let got = p.into_relation().unwrap();
        assert_eq!(got, crate::specops::project(&rel, &["b"]).unwrap());
        assert!(
            got.iter().all(|(_, k)| k.to_string().contains('[')),
            "{got}"
        );

        // A duplicated select item over the fringe projects the distinct
        // positions once and expands positionally (tokens not squared).
        let dup = chunk
            .clone()
            .project(&[1, 1, 0], sch(&["b1", "b2", "a"]))
            .unwrap()
            .into_relation()
            .unwrap();
        let mut want = Relation::empty(sch(&["b1", "b2", "a"]));
        for (t, k) in crate::specops::project(&rel, &["b", "a"]).unwrap().iter() {
            let row = vec![t.get(0).clone(), t.get(0).clone(), t.get(1).clone()];
            want.insert(row, k.clone()).unwrap();
        }
        assert_eq!(dup, want);

        // The join gate is two-sided: a fringe on either operand (here a
        // symbolic payload, then a symbolic key) takes the token path.
        let ground: MKRel<P> =
            Relation::from_rows(sch(&["c"]), [(vec![Value::int(2)], tok("q"))]).unwrap();
        let mut on_a = hash_join(
            Chunk::from_relation(&ground),
            chunk.clone(),
            &[(0, 0)],
            sch(&["c", "a", "b"]),
            &serial(),
        )
        .unwrap();
        assert_eq!((on_a.ground_len(), on_a.fringe().len()), (1, 1));
        assert_eq!(
            on_a.into_relation().unwrap(),
            crate::specops::join_on(&ground, &rel, &[("c", "a")]).unwrap()
        );
        let on_b = hash_join(
            chunk,
            Chunk::from_relation(&ground),
            &[(1, 0)],
            sch(&["a", "b", "c"]),
            &serial(),
        )
        .unwrap()
        .into_relation()
        .unwrap();
        assert_eq!(
            on_b,
            crate::specops::join_on(&rel, &ground, &[("b", "c")]).unwrap()
        );
        assert_eq!(on_b.len(), 1, "only x⊗20 can equal 2, under a token");
    }

    #[test]
    fn empty_chunk_kernels_are_total() {
        let rel: MKRel<P> = Relation::empty(sch(&["a", "b"]));
        let mut c = Chunk::from_relation(&rel);
        c.filter(
            &BatchOperand::Col(0),
            BatchCmp::Eq,
            &BatchOperand::Lit(Const::int(1)),
            &serial(),
        )
        .unwrap();
        let c = c.project(&[1, 0], sch(&["b", "a"])).unwrap();
        let count = AggSpec {
            kind: MonoidKind::Sum,
            attr: ops::STAR,
            out: "n",
        };
        let grouped = c.clone().aggregate(&["b"], &[count], &serial()).unwrap();
        assert!(grouped.is_empty());
        assert!(c.into_relation().unwrap().is_empty());
    }
}
