//! Physical-plan execution: drives the `PhysNode`
//! pipeline of `crate::phys` against annotated relations.
//!
//! All parsing, name resolution and validation happened at prepare time
//! (see [`crate::plan::lower_query`] and `crate::phys::lower`); this
//! module only moves data, **one kernel call per node**. It never asks
//! whether a value is ground or symbolic: every kernel of
//! [`aggprov_core::ops::batch`] is total over a columnar [`Chunk`]
//! (ground batch + selection vector + symbolic fringe) and produces the
//! §4.3 result, bit-identical to the `specops` reference at every thread
//! count, whatever fringe its input carries.
//!
//! * **pipeline segments** (Filter → Project → AddUnitColumn → HashJoin)
//!   stay in chunk form, so over ground rows no relation is
//!   materialized between nodes — filters narrow a selection vector,
//!   projections remap a column view, joins hash build/probe over
//!   columns — and the kernels run the token path themselves over
//!   whatever symbolic rows ride along;
//! * **pipeline breakers** — Aggregate and SetOp — materialize their
//!   inputs and run the row-at-a-time operators of `aggprov_core::ops`:
//!   `group_by_opts` and `union_opts` are two callers of its one keyed
//!   token fold (which also carries the partition-parallel sharding of
//!   [`ExecOptions`]).
//!
//! `Flow` is laziness, not a second executor: a scan (or a breaker's
//! output) stays the relation it already is until a node needs columns,
//! so `Scan → Aggregate` and a renamed scan never pay a round trip
//! through columns.

use crate::annot::ParseAnnotation;
use crate::ast::{CmpOp, SetOp};
use crate::database::Database;
use crate::phys::PhysNode;
use crate::plan::{PlanOperand, Predicate};
use aggprov_algebra::domain::Const;
use aggprov_core::annotation::AggAnnotation;
use aggprov_core::difference;
use aggprov_core::km::CmpPred;
use aggprov_core::ops::batch::{hash_join, BatchCmp, BatchOperand, Chunk};
use aggprov_core::ops::{self, AggSpec, MKRel};
use aggprov_core::par::ExecOptions;
use aggprov_krel::error::{RelError, Result};

/// A value mid-pipeline: a relation no node has split into columns yet —
/// a scan's `Arc`-shared table or a breaker's output — or a columnar
/// chunk. The conversion is lazy: whichever node first needs columns
/// pays for it, and a plan that never does (`Scan → Aggregate`, a renamed
/// scan) never converts.
enum Flow<A: AggAnnotation> {
    Rel(MKRel<A>),
    Chunk(Chunk<A>),
}

impl<A: AggAnnotation> Flow<A> {
    /// Materializes (merging any deferred duplicates additively).
    fn into_rel(self) -> Result<MKRel<A>> {
        match self {
            Flow::Rel(r) => Ok(r),
            Flow::Chunk(c) => c.into_relation(),
        }
    }

    /// Moves to columnar form (splitting off the symbolic fringe).
    fn into_chunk(self) -> Chunk<A> {
        match self {
            Flow::Rel(r) => Chunk::from_relation(&r),
            Flow::Chunk(c) => c,
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

/// One kernel call per `PhysNode`. Every variant has its own arm: a new
/// physical node must say how it executes.
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
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
        PhysNode::Scan { table, schema } => Ok(Flow::Rel(
            db.table(table)?.clone().with_schema(schema.clone())?,
        )),
        PhysNode::Rename { input, schema } => match run(db, input, params, param_count, opts)? {
            Flow::Rel(r) => Ok(Flow::Rel(r.with_schema(schema.clone())?)),
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
            schema,
        } => {
            let chunk = run(db, input, params, param_count, opts)?.into_chunk();
            Ok(Flow::Chunk(chunk.project_opts(
                columns,
                schema.clone(),
                opts,
            )?))
        }
        PhysNode::HashJoin {
            left,
            right,
            on_idx,
            schema,
        } => {
            let l = run(db, left, params, param_count, opts)?.into_chunk();
            let r = run(db, right, params, param_count, opts)?.into_chunk();
            Ok(Flow::Chunk(hash_join(l, r, on_idx, schema.clone(), opts)?))
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
                return Ok(Flow::Rel(grouped));
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
                SetOp::Union => Ok(Flow::Rel(ops::union_opts(&l, &r, opts)?)),
                SetOp::Except => Ok(Flow::Rel(difference::difference(&l, &r)?)),
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
