//! Plan execution: interprets the optimized [`Plan`] against annotated
//! relations.
//!
//! All parsing, name resolution and validation happened at prepare time
//! (see [`crate::plan::lower_query`] and [`crate::opt::optimize`]); this
//! module only moves data, **one kernel call per node**, [`Chunk`] to
//! [`Chunk`]. The little it resolves per execution does not depend on the
//! data and happens before a node's inputs run: join keys and `AVG` (sum,
//! count) pairs to column positions, and a chain of stacked `Filter`s to
//! one selection pass. It never asks whether a value is ground or
//! symbolic, nor when a relation becomes columns — a scan's chunk holds
//! the table until a kernel first needs columns — and every kernel of
//! [`aggprov_core::ops::batch`] is total: it produces the §4.3 result,
//! bit-identical to the `specops` reference at every thread count,
//! whatever symbolic rows its input carries.
//!
//! * **pipeline segments** (Filter → Project → Join / Product, a product
//!   being the hash join with no keys) stay in chunk
//!   form, so over ground rows no relation is materialized between nodes:
//!   filters narrow a selection vector, projections remap a column view,
//!   joins hash build/probe over columns;
//! * **pipeline breakers** — Aggregate and SetOp. An aggregate hands its
//!   input chunk to [`Chunk::aggregate`], which folds the rows where they
//!   lie: a held relation's (so `Scan → Aggregate` never goes through
//!   columns), or the stored rows a filtered and projected scan selects,
//!   borrowed from the table's store; only another chunk (a join's output,
//!   a symbolic fringe) is materialized first. The fold is
//!   `aggprov_core::ops`' `group_by_opts` — one caller of its keyed token
//!   fold, which also carries the partition-parallel sharding of
//!   [`ExecOptions`] — or `agg_all`. `COUNT(*)` is a spec over `*`, which
//!   reads no column; `AVG` divides its SUM and COUNT parts in one map
//!   over the grouped rows. A set operation takes its inputs'
//!   relations ([`Chunk::into_relation`] hands a chunk no kernel split
//!   back as it is) and runs `union_opts`, the keyed fold's other caller,
//!   or `difference`.

use crate::annot::ParseAnnotation;
use crate::ast::{CmpOp, SetOp};
use crate::database::Database;
use crate::plan::{AvgSpec, Plan, PlanAgg, PlanOperand, Predicate};
use aggprov_algebra::domain::Const;
use aggprov_core::annotation::AggAnnotation;
use aggprov_core::difference;
use aggprov_core::km::CmpPred;
use aggprov_core::ops::batch::{hash_join, BatchCmp, BatchOperand, Chunk};
use aggprov_core::ops::{self, AggSpec, MKRel};
use aggprov_core::par::ExecOptions;
use aggprov_core::Value;
use aggprov_krel::error::{RelError, Result};
use aggprov_krel::relation::Relation;
use aggprov_krel::schema::Schema;

/// Executes an optimized plan against the database with `$n` parameters
/// bound from `params` (slot `i` holds `$i+1`).
///
/// Crate-private on purpose: plans interpret column references by
/// position without re-validating them, so the only safe entry points
/// are the ones that lowered the plan against this database —
/// [`Prepared`](crate::database::Prepared) and
/// [`Database::exec`](crate::database::Database::exec).
///
/// A malformed plan (a join key or `AVG` part missing from its input
/// schema) returns [`RelError::Internal`] before that node's inputs run,
/// never a panic: plans from `lower_query` are well-formed by
/// construction, but a hand-built or future-optimizer plan must fail as
/// an error.
pub(crate) fn execute_plan<A>(
    db: &Database<A>,
    plan: &Plan,
    params: &[Const],
    param_count: usize,
    opts: &ExecOptions,
) -> Result<MKRel<A>>
where
    A: AggAnnotation + ParseAnnotation,
{
    run(db, plan, params, param_count, opts)?.into_relation()
}

/// One kernel call per `Plan` node. Every variant has its own arm: a new
/// plan node must say how it executes.
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
fn run<A>(
    db: &Database<A>,
    plan: &Plan,
    params: &[Const],
    param_count: usize,
    opts: &ExecOptions,
) -> Result<Chunk<A>>
where
    A: AggAnnotation + ParseAnnotation,
{
    match plan {
        Plan::Scan { table, schema } => {
            Chunk::from_relation(db.table(table)?).with_schema(schema.clone())
        }
        Plan::Derived { input, schema } => {
            run(db, input, params, param_count, opts)?.with_schema(schema.clone())
        }
        Plan::Filter { input, pred } => {
            // Stacked filters (one per `WHERE`/`HAVING` conjunct) run in
            // this one frame: walk down the chain, then narrow one
            // selection vector innermost conjunct first. The deepest
            // conjunction `lower_query` accepts costs one stack frame,
            // not one per conjunct.
            let mut preds = vec![pred];
            let mut below = input.as_ref();
            while let Plan::Filter { input, pred } = below {
                preds.push(pred);
                below = input.as_ref();
            }
            let mut chunk = run(db, below, params, param_count, opts)?;
            for pred in preds.into_iter().rev() {
                let (left, cmp, right) = bind_predicate(pred, params, param_count)?;
                chunk.filter(&left, cmp, &right, opts)?;
            }
            Ok(chunk)
        }
        Plan::Project {
            input,
            columns,
            schema,
        } => run(db, input, params, param_count, opts)?.project_opts(columns, schema.clone(), opts),
        // A Cartesian product is the hash join with no keys.
        Plan::Product {
            left,
            right,
            schema,
        } => {
            let l = run(db, left, params, param_count, opts)?;
            let r = run(db, right, params, param_count, opts)?;
            hash_join(l, r, &[], schema.clone(), opts)
        }
        Plan::Join {
            left,
            right,
            on,
            schema,
        } => {
            // The kernel indexes whichever input has fewer selected rows
            // and probes with the other; the keys resolve to positions
            // before either input runs.
            let on_idx = join_key_positions(left.schema(), right.schema(), on)?;
            let l = run(db, left, params, param_count, opts)?;
            let r = run(db, right, params, param_count, opts)?;
            hash_join(l, r, &on_idx, schema.clone(), opts)
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
            avg,
            schema,
        } => {
            let group_refs: Vec<&str> = group_by.iter().map(|g| g.as_str()).collect();
            let avg_idx = avg_positions(&group_refs, aggs, avg)?;
            // Pipeline breaker: aggregation needs the whole input, and
            // folds its rows where they lie.
            let specs: Vec<AggSpec<'_>> = aggs.iter().map(PlanAgg::spec).collect();
            let mut grouped =
                run(db, input, params, param_count, opts)?.aggregate(&group_refs, &specs, opts)?;
            if !avg.is_empty() {
                let ungrouped = group_refs.is_empty();
                grouped = divide_avgs(&grouped, &avg_idx, ungrouped, schema.clone())?;
            }
            Ok(Chunk::from_relation(&grouped))
        }
        Plan::SetOp {
            op,
            left,
            right,
            schema,
        } => {
            // Pipeline breaker on both inputs. The right side is aligned
            // by position, as in SQL: one schema-level rename.
            let l = run(db, left, params, param_count, opts)?.into_relation()?;
            let r = run(db, right, params, param_count, opts)?
                .with_schema(schema.clone())?
                .into_relation()?;
            let out = match op {
                SetOp::Union => ops::union_opts(&l, &r, opts)?,
                SetOp::Except => difference::difference(&l, &r)?,
            };
            Ok(Chunk::from_relation(&out))
        }
    }
}

/// Resolves `JOIN … ON` key names to `(left, right)` column positions.
fn join_key_positions(
    left: &Schema,
    right: &Schema,
    on: &[(String, String)],
) -> Result<Vec<(usize, usize)>> {
    on.iter()
        .map(|(l, r)| {
            let li = left.index_of(l).map_err(|_| {
                RelError::Internal(format!("join key `{l}` missing from the left input schema"))
            })?;
            let ri = right.index_of(r).map_err(|_| {
                RelError::Internal(format!(
                    "join key `{r}` missing from the right input schema"
                ))
            })?;
            Ok((li, ri))
        })
        .collect()
}

/// Resolves each `AVG`'s `(sum, count)` parts to positions in the grouped
/// output, which is `group_by` then the aggregate outputs.
fn avg_positions(
    group_by: &[&str],
    aggs: &[PlanAgg],
    avg: &[AvgSpec],
) -> Result<Vec<(usize, usize)>> {
    let pos = |name: &str| {
        group_by
            .iter()
            .copied()
            .chain(aggs.iter().map(|a| a.out.as_str()))
            .position(|n| n == name)
            .ok_or_else(|| {
                RelError::Internal(format!("AVG part `{name}` missing from the grouped output"))
            })
    };
    avg.iter()
        .map(|spec| Ok((pos(&spec.sum)?, pos(&spec.count)?)))
        .collect()
}

/// `AVG`, after the fold: every grouped row gains one `sum / count`
/// column per `(sum, count)` position pair, under `schema` (the grouped
/// schema extended by them). A row whose SUM or COUNT is symbolic raises
/// the paper-footnote-6 error (division in the monoid — select SUM and
/// COUNT separately to keep provenance), whatever its group key. A zero
/// count drops the row when `ungrouped` (SQL's NULL AVG over empty input;
/// the engine has no NULLs) and errors otherwise — grouped AVG never sees
/// an empty group.
fn divide_avgs<A: AggAnnotation>(
    grouped: &MKRel<A>,
    pairs: &[(usize, usize)],
    ungrouped: bool,
    schema: Schema,
) -> Result<MKRel<A>> {
    let mut rows = Vec::with_capacity(grouped.len());
    'rows: for (t, k) in grouped.iter() {
        let num_at = |i: usize| {
            let v = t.values().get(i).ok_or_else(|| {
                RelError::Internal(format!("AVG part {i} missing from a grouped row"))
            })?;
            Ok::<_, RelError>(v.as_const().and_then(Const::as_num))
        };
        let mut row = t.values().to_vec();
        for (si, ci) in pairs {
            let (Some(sum), Some(count)) = (num_at(*si)?, num_at(*ci)?) else {
                return Err(RelError::Unsupported(
                    "AVG over symbolic provenance does not resolve; select SUM and \
                     COUNT separately (paper footnote 6)"
                        .into(),
                ));
            };
            match sum.checked_div(&count) {
                Some(avg) => row.push(Value::Const(Const::Num(avg))),
                None if ungrouped => continue 'rows,
                None => return Err(RelError::Unsupported("AVG over an empty group".into())),
            }
        }
        rows.push((row, k.clone()));
    }
    Relation::from_rows(schema, rows)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::plan::lower_query;
    use crate::ProvDb;
    use aggprov_algebra::monoid::MonoidKind;
    use aggprov_algebra::semiring::CommutativeSemiring;
    use aggprov_algebra::tensor::Tensor;

    fn db() -> ProvDb {
        let mut db = ProvDb::new();
        db.exec(
            "CREATE TABLE r (emp NUM, dept TEXT, sal NUM);
             CREATE TABLE heads (dept TEXT, head TEXT);
             INSERT INTO r VALUES (1, 'd1', 20) PROVENANCE p1;
             INSERT INTO heads VALUES ('d1', 'h1') PROVENANCE q1;",
        )
        .unwrap();
        db
    }

    /// The node under the root projection of `sql`'s lowered plan.
    fn below_projection(db: &ProvDb, sql: &str) -> Plan {
        let Plan::Project { input, .. } = lower_query(db, &parse_query(sql).unwrap()).unwrap().plan
        else {
            panic!("expected a projection root");
        };
        *input
    }

    /// A scan of a table the database does not have: an input that fails
    /// if it runs, so an `Internal` error proves the node resolved its
    /// names first.
    fn missing_scan(schema: &Schema) -> Box<Plan> {
        Box::new(Plan::Scan {
            table: "missing".into(),
            schema: schema.clone(),
        })
    }

    type P = aggprov_core::Prov;

    fn sch(names: &[&str]) -> Schema {
        Schema::new(names.iter().copied()).unwrap()
    }

    fn tok(name: &str) -> P {
        aggprov_core::Km::embed(aggprov_algebra::poly::NatPoly::token(name))
    }

    /// `Σ x ⊗ v`: a symbolic SUM value.
    fn sym(v: i64) -> Value<P> {
        Value::agg_normalized(
            MonoidKind::Sum,
            Tensor::from_terms(&MonoidKind::Sum, [(tok("x"), Const::int(v))]),
        )
    }

    fn ratio(n: i64, d: i64) -> Value<P> {
        Value::Const(Const::Num(aggprov_algebra::num::Num::ratio(n, d)))
    }

    #[test]
    fn unit_column_and_avg_divide() {
        // `COUNT(*)` is a spec over `*`: the fold counts the rows with no
        // column of 1s, and the AVG map divides the SUM by it.
        let rel: MKRel<P> = Relation::from_rows(
            sch(&["v"]),
            [20, 20, 30].map(|v| (vec![Value::int(v)], P::one())),
        )
        .unwrap();
        let specs = [
            AggSpec {
                kind: MonoidKind::Sum,
                attr: "v",
                out: "s",
            },
            AggSpec {
                kind: MonoidKind::Sum,
                attr: ops::STAR,
                out: "n",
            },
        ];
        let grouped = Chunk::from_relation(&rel)
            .aggregate(&[], &specs, &ExecOptions::serial())
            .unwrap();
        let out = divide_avgs(&grouped, &[(0, 1)], false, sch(&["s", "n", "avg"])).unwrap();
        let (t, _) = out.iter().next().unwrap();
        assert_eq!(t.values(), &[Value::int(70), Value::int(3), ratio(70, 3)]);
    }

    #[test]
    fn ungrouped_avg_over_zero_count_drops_the_row() {
        let rel: MKRel<P> = Relation::from_rows(
            sch(&["s", "n"]),
            [(vec![Value::int(0), Value::int(0)], P::one())],
        )
        .unwrap();
        let ok = divide_avgs(&rel, &[(0, 1)], true, sch(&["s", "n", "avg"])).unwrap();
        assert!(ok.is_empty());
        let err = divide_avgs(&rel, &[(0, 1)], false, sch(&["s", "n", "avg"])).unwrap_err();
        assert!(err.to_string().contains("empty group"), "{err}");
    }

    #[test]
    fn avg_divide_carries_the_fringe_row_wise() {
        // A symbolic group key does not stop the division: its SUM and
        // COUNT are ground, so the row divides like any other.
        let rel: MKRel<P> = Relation::from_rows(
            sch(&["g", "s", "n"]),
            [
                (vec![Value::int(1), Value::int(9), Value::int(2)], tok("p1")),
                (vec![sym(5), Value::int(7), Value::int(2)], tok("p2")),
            ],
        )
        .unwrap();
        let out_schema = sch(&["g", "s", "n", "avg"]);
        let want: MKRel<P> = Relation::from_rows(
            out_schema.clone(),
            [
                (
                    vec![Value::int(1), Value::int(9), Value::int(2), ratio(9, 2)],
                    tok("p1"),
                ),
                (
                    vec![sym(5), Value::int(7), Value::int(2), ratio(7, 2)],
                    tok("p2"),
                ),
            ],
        )
        .unwrap();
        let got = divide_avgs(&rel, &[(1, 2)], false, out_schema.clone()).unwrap();
        assert_eq!(got, want);

        // A symbolic SUM, or a symbolic COUNT, is the footnote-6 error.
        for pairs in [[(0, 1)], [(1, 0)]] {
            let err = divide_avgs(&rel, &pairs, false, out_schema.clone()).unwrap_err();
            assert!(err.to_string().contains("footnote 6"), "{err}");
        }
    }

    #[test]
    fn a_missing_join_key_is_an_internal_error_before_the_inputs_run() {
        let db = db();
        let Plan::Join {
            left,
            right,
            schema,
            ..
        } = below_projection(&db, "SELECT r.emp FROM r JOIN heads ON r.dept = heads.dept")
        else {
            panic!("expected a join under the projection");
        };
        let bad = Plan::Join {
            left: missing_scan(left.schema()),
            right,
            on: vec![("nope.nope".into(), "heads.dept".into())],
            schema,
        };
        let err = execute_plan(&db, &bad, &[], 0, &ExecOptions::serial()).unwrap_err();
        assert!(matches!(err, RelError::Internal(_)), "{err:?}");
        assert!(err.to_string().contains("join key `nope.nope`"), "{err}");
    }

    #[test]
    fn a_missing_avg_part_is_an_internal_error_before_the_input_runs() {
        let db = db();
        let Plan::Aggregate {
            input,
            group_by,
            aggs,
            mut avg,
            schema,
        } = below_projection(&db, "SELECT dept, AVG(sal) AS mean FROM r GROUP BY dept")
        else {
            panic!("expected an aggregate under the projection");
        };
        avg[0].count = "nope".into();
        let bad = Plan::Aggregate {
            input: missing_scan(input.schema()),
            group_by,
            aggs,
            avg,
            schema,
        };
        let err = execute_plan(&db, &bad, &[], 0, &ExecOptions::serial()).unwrap_err();
        assert!(matches!(err, RelError::Internal(_)), "{err:?}");
        assert!(err.to_string().contains("AVG part `nope`"), "{err}");
    }
}
