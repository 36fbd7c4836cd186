//! Physical-plan execution: drives the `PhysNode`
//! pipeline of `crate::phys` against annotated relations.
//!
//! All parsing, name resolution and validation happened at prepare time
//! (see [`crate::plan::lower_query`] and `crate::phys::lower`); this
//! module only moves data. Execution streams `Flow` values — either a
//! materialized relation or a columnar [`Chunk`] (ground batch + selection
//! vector + symbolic fringe) — through the operator tree:
//!
//! * **pipeline segments** (Filter → Project → AddUnitColumn → HashJoin
//!   over ground data) stay in chunk form, so no `BTreeMap` relation is
//!   materialized between nodes — filters narrow a selection vector,
//!   projections gather columns, joins hash build/probe over columns;
//! * **pipeline breakers** — Aggregate and SetOp — materialize their
//!   inputs and run the row-at-a-time operators of `aggprov_core::ops`:
//!   `group_by_opts` and `union_opts` are two callers of its one keyed
//!   token fold (which also carries the partition-parallel sharding of
//!   [`ExecOptions`]);
//! * whenever the symbolic fringe forces cross-row token sums (projection
//!   or join over symbolic values), the affected node falls back to the
//!   same module — `project_opts`, the fold's third caller, or the
//!   pairwise `join_on_opts` (a product is the join with no keys) — so
//!   results are bit-identical to the `specops` reference at every
//!   thread count.

use crate::annot::ParseAnnotation;
use crate::ast::{CmpOp, SetOp};
use crate::database::Database;
use crate::phys::PhysNode;
use crate::plan::{PlanOperand, Predicate};
use aggprov_algebra::domain::Const;
use aggprov_core::annotation::AggAnnotation;
use aggprov_core::km::CmpPred;
use aggprov_core::ops::batch::{hash_join, BatchCmp, BatchOperand, Chunk};
use aggprov_core::ops::{self, AggSpec, MKRel};
use aggprov_core::par::ExecOptions;
use aggprov_core::{difference, Value};
use aggprov_krel::error::{RelError, Result};
use aggprov_krel::relation::{Relation, Tuple};
use aggprov_krel::schema::Schema;
use aggprov_krel::typed::ColHint;
use std::collections::BTreeMap;

/// A value mid-pipeline: a materialized relation (with the typed-column
/// hints its scan pinned, if any) or a columnar chunk. Conversions are
/// lazy — a scan stays an `Arc`-shared relation until a vectorized node
/// actually needs columns.
enum Flow<A: AggAnnotation> {
    Rel(MKRel<A>, Option<Vec<Option<ColHint>>>),
    Chunk(Chunk<A>),
}

impl<A: AggAnnotation> Flow<A> {
    /// Materializes (merging any deferred duplicates additively).
    fn into_rel(self) -> Result<MKRel<A>> {
        match self {
            Flow::Rel(r, _) => Ok(r),
            Flow::Chunk(c) => c.into_relation(),
        }
    }

    /// Moves to columnar form (splitting off the symbolic fringe),
    /// seeding the columns with any pinned scan hints.
    fn into_chunk(self) -> Chunk<A> {
        match self {
            Flow::Rel(r, hints) => Chunk::from_relation_with(&r, hints.as_deref().unwrap_or(&[])),
            Flow::Chunk(c) => c,
        }
    }

    /// True iff any row carries a symbolic aggregate value — the
    /// condition that sends cross-row nodes to the token-path fallback.
    fn has_symbolic(&self) -> bool {
        match self {
            Flow::Rel(r, _) => ops::has_symbolic(r),
            Flow::Chunk(c) => c.has_fringe(),
        }
    }
}

/// Executes a physical plan against the database with `$n` parameters
/// bound from `params` (slot `i` holds `$i+1`).
///
/// Crate-private on purpose: physical plans interpret column references
/// by position without re-validating them, so the only safe entry points
/// are the ones that lowered the plan against this database —
/// [`Prepared`](crate::database::Prepared) and
/// [`Database::exec`](crate::database::Database::exec).
pub(crate) fn execute_plan<A>(
    db: &Database<A>,
    phys: &PhysNode,
    params: &[Const],
    param_count: usize,
    opts: &ExecOptions,
) -> Result<MKRel<A>>
where
    A: AggAnnotation + ParseAnnotation,
{
    run(db, phys, params, param_count, opts)?.into_rel()
}

fn run<A>(
    db: &Database<A>,
    phys: &PhysNode,
    params: &[Const],
    param_count: usize,
    opts: &ExecOptions,
) -> Result<Flow<A>>
where
    A: AggAnnotation + ParseAnnotation,
{
    match phys {
        PhysNode::Scan {
            table,
            schema,
            hints,
        } => Ok(Flow::Rel(
            db.table(table)?.clone().with_schema(schema.clone())?,
            hints.clone(),
        )),
        PhysNode::Rename { input, schema } => match run(db, input, params, param_count, opts)? {
            Flow::Rel(r, hints) => Ok(Flow::Rel(r.with_schema(schema.clone())?, hints)),
            Flow::Chunk(c) => Ok(Flow::Chunk(c.with_schema(schema.clone())?)),
        },
        PhysNode::Filter { input, preds } => {
            // Fused conjuncts narrow one selection vector in sequence
            // (innermost conjunct first, exactly as the unfused pipeline
            // applied them).
            let mut chunk = run(db, input, params, param_count, opts)?.into_chunk();
            for pred in preds {
                let (left, cmp, right) = bind_predicate(pred, params, param_count)?;
                chunk.filter(&left, cmp, &right, opts)?;
            }
            Ok(Flow::Chunk(chunk))
        }
        PhysNode::AddUnitColumn { input, schema } => {
            let chunk = run(db, input, params, param_count, opts)?.into_chunk();
            Ok(Flow::Chunk(chunk.add_unit_column(schema.clone())?))
        }
        PhysNode::Project {
            input,
            columns,
            distinct,
            expand,
            identity,
            schema,
        } => {
            let flow = run(db, input, params, param_count, opts)?;
            if flow.has_symbolic() {
                // Cross-row token sums: the §4.3 projection over the
                // distinct positions, then positional expansion.
                let rel = flow.into_rel()?;
                return Ok(Flow::Rel(
                    project_symbolic(&rel, distinct, expand, schema, opts)?,
                    None,
                ));
            }
            if *identity {
                // A pure schema rename over symbol-free input: the Arc'd
                // tuple store (or the columns) stay shared untouched.
                return match flow {
                    Flow::Rel(r, hints) => Ok(Flow::Rel(r.with_schema(schema.clone())?, hints)),
                    Flow::Chunk(c) => Ok(Flow::Chunk(c.with_schema(schema.clone())?)),
                };
            }
            Ok(Flow::Chunk(
                flow.into_chunk().project(columns, schema.clone())?,
            ))
        }
        PhysNode::HashJoin {
            left,
            right,
            on_idx,
            on_names,
            schema,
        } => {
            let l = run(db, left, params, param_count, opts)?;
            let r = run(db, right, params, param_count, opts)?;
            if !l.has_symbolic() && !r.has_symbolic() {
                return Ok(Flow::Chunk(hash_join(
                    l.into_chunk(),
                    r.into_chunk(),
                    on_idx,
                    schema.clone(),
                    opts,
                )?));
            }
            // Symbolic join keys (or values): the token-weighted operator
            // with its internal ground/symbolic partitioning.
            let pairs: Vec<(&str, &str)> = on_names
                .iter()
                .map(|(a, b)| (a.as_str(), b.as_str()))
                .collect();
            Ok(Flow::Rel(
                ops::join_on_opts(&l.into_rel()?, &r.into_rel()?, &pairs, opts)?,
                None,
            ))
        }
        PhysNode::Aggregate {
            input,
            group_by,
            aggs,
            avg,
            avg_idx,
            schema,
        } => {
            // Pipeline breaker: aggregation needs the whole input.
            let rel = run(db, input, params, param_count, opts)?.into_rel()?;
            let specs: Vec<AggSpec<'_>> = aggs
                .iter()
                .map(|a| AggSpec {
                    kind: a.kind,
                    attr: &a.attr,
                    out: &a.out,
                })
                .collect();
            let group_refs: Vec<&str> = group_by.iter().map(|g| g.as_str()).collect();
            let ungrouped = group_refs.is_empty();
            let grouped = if ungrouped {
                ops::agg_all(&rel, &specs)?
            } else {
                ops::group_by_opts(&rel, &group_refs, &specs, opts)?
            };
            if avg.is_empty() {
                return Ok(Flow::Rel(grouped, None));
            }
            // AVG division is per-row; the result stays columnar so a
            // following HAVING filter or projection runs vectorized.
            let chunk = Chunk::from_relation(&grouped);
            Ok(Flow::Chunk(chunk.avg_divide(
                avg_idx,
                ungrouped,
                schema.clone(),
            )?))
        }
        PhysNode::SetOp {
            op,
            left,
            right,
            schema,
        } => {
            // Pipeline breaker on both inputs. The right side is aligned
            // by position, as in SQL: one schema-level rename.
            let l = run(db, left, params, param_count, opts)?.into_rel()?;
            let r = run(db, right, params, param_count, opts)?
                .into_rel()?
                .with_schema(schema.clone())?;
            match op {
                SetOp::Union => Ok(Flow::Rel(ops::union_opts(&l, &r, opts)?, None)),
                SetOp::Except => Ok(Flow::Rel(difference::difference(&l, &r)?, None)),
            }
        }
    }
}

/// Binds a resolved operand to a batch operand, resolving `$n` slots.
fn bind_operand(op: &PlanOperand, params: &[Const], param_count: usize) -> Result<BatchOperand> {
    Ok(match op {
        PlanOperand::Col(i) => BatchOperand::Col(*i),
        PlanOperand::Lit(c) => BatchOperand::Lit(c.clone()),
        PlanOperand::Param(slot) => {
            // Defensive re-check of what `Prepared::execute_with` verified
            // up front; both paths raise the same `ParamArity` error.
            let c = params.get(*slot).ok_or(RelError::ParamArity {
                expected: param_count,
                got: params.len(),
            })?;
            BatchOperand::Lit(c.clone())
        }
    })
}

/// Binds a predicate for the filter kernel: operands resolved once (a
/// constant or `$n` parameter is cloned exactly once per execution, never
/// per tuple), `>`/`≥` normalized by swapping sides.
fn bind_predicate(
    pred: &Predicate,
    params: &[Const],
    param_count: usize,
) -> Result<(BatchOperand, BatchCmp, BatchOperand)> {
    let left = bind_operand(&pred.left, params, param_count)?;
    let right = bind_operand(&pred.right, params, param_count)?;
    Ok(match pred.op {
        CmpOp::Eq => (left, BatchCmp::Eq, right),
        CmpOp::Ne => (left, BatchCmp::Pred(CmpPred::Ne), right),
        CmpOp::Lt => (left, BatchCmp::Pred(CmpPred::Lt), right),
        CmpOp::Le => (left, BatchCmp::Pred(CmpPred::Le), right),
        CmpOp::Gt => (right, BatchCmp::Pred(CmpPred::Lt), left),
        CmpOp::Ge => (right, BatchCmp::Pred(CmpPred::Le), left),
    })
}

/// The row-at-a-time projection fallback for symbolic inputs: the §4.3
/// token projection over the distinct positions, then positional
/// expansion of duplicated select items, built in bulk (one `BTreeMap`
/// handed to `from_tuple_map`, no per-row `insert`).
fn project_symbolic<A: AggAnnotation>(
    rel: &MKRel<A>,
    distinct: &[usize],
    expand: &[usize],
    schema: &Schema,
    opts: &ExecOptions,
) -> Result<MKRel<A>> {
    let names: Vec<&str> = distinct
        .iter()
        .map(|i| {
            rel.schema()
                .attrs()
                .get(*i)
                .map(|a| a.name())
                .ok_or_else(|| RelError::Internal(format!("projection position {i} out of range")))
        })
        .collect::<Result<_>>()?;
    let projected = ops::project_opts(rel, &names, opts)?;
    if distinct.len() == expand.len() {
        return projected.with_schema(schema.clone());
    }
    // Expansion is injective on rows (every distinct position appears in
    // `expand`), so the map keys never collide.
    let mut out = BTreeMap::new();
    for (t, k) in projected.iter() {
        let row: Vec<Value<A>> = expand.iter().map(|i| t.get(*i).clone()).collect();
        out.insert(Tuple::new(row), k.clone());
    }
    Relation::from_tuple_map(schema.clone(), out)
}
