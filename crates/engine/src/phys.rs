//! The physical-plan layer: [`PhysNode`] trees lowered from the logical
//! [`Plan`] IR at prepare time, driven by the pipeline executor in
//! [`crate::exec`].
//!
//! Where the logical plan says *what* (relational semantics, resolved
//! names), a physical node says *how*: every per-execution decision that
//! does not depend on the data — join keys as column positions, the
//! sum/count column pairs of an `AVG`, stacked filters fused into one
//! node — is resolved here, once per prepare. Decisions that *do* depend
//! on the data are not plan state at all: a column's storage layout is
//! probed from its values when a relation is split into columns, and
//! whether a row is ground or symbolic is the kernels' business.
//!
//! The executor streams **chunks** (columnar ground batches plus a
//! row-wise symbolic fringe, [`aggprov_core::ops::batch::Chunk`]) through
//! Scan → Filter → Project → HashJoin segments, one total kernel per
//! node: each kernel takes whatever fringe its input carries and produces
//! the §4.3 result, bit-identical to the `specops` reference.
//! [`PhysNode::Aggregate`] and [`PhysNode::SetOp`] are the explicit
//! **pipeline breakers** that materialize a relation (they need the whole
//! input, and their symbolic semantics sums across rows).

use crate::ast::SetOp;
use crate::plan::{AvgSpec, Plan, PlanAgg, Predicate};
use aggprov_krel::error::{RelError, Result};
use aggprov_krel::schema::Schema;

/// A physical operator. See the module docs for the pipeline/breaker
/// split; every node carries its output [`Schema`].
#[derive(Clone, PartialEq, Debug)]
pub(crate) enum PhysNode {
    /// A base-table scan (an `Arc` share plus a schema-level rename).
    Scan {
        /// The catalog table name.
        table: String,
        /// The alias-prefixed output schema.
        schema: Schema,
    },
    /// A pure schema replacement (derived-table re-aliasing).
    Rename {
        /// Input node.
        input: Box<PhysNode>,
        /// The new schema.
        schema: Schema,
    },
    /// A tokened selection: vectorized over ground columns (selection
    /// vector), token path over the fringe. Never a breaker.
    ///
    /// Stacked logical `Filter` nodes (one per `WHERE`/`HAVING` conjunct)
    /// are **fused** into a single physical node at lower time: the
    /// predicates narrow one selection vector in sequence, with no
    /// per-conjunct node dispatch.
    Filter {
        /// Input node.
        input: Box<PhysNode>,
        /// The resolved predicates, in application order (innermost
        /// conjunct first).
        preds: Vec<Predicate>,
    },
    /// Appends the constant-1 column for COUNT/AVG (per-row; never a
    /// breaker).
    AddUnitColumn {
        /// Input node.
        input: Box<PhysNode>,
        /// The extended schema.
        schema: Schema,
    },
    /// A projection: the chunk kernel views `columns` (duplicates and
    /// all) over ground rows and runs the §4.3 token projection when the
    /// input carries a fringe.
    Project {
        /// Input node.
        input: Box<PhysNode>,
        /// Output column positions, in order, duplicates allowed.
        columns: Vec<usize>,
        /// The display schema.
        schema: Schema,
    },
    /// Hash equi-join: build right, probe left; token-weighted inside the
    /// kernel when either side carries a fringe. A Cartesian product is
    /// the join with no keys.
    HashJoin {
        /// Left (probe) input.
        left: Box<PhysNode>,
        /// Right (build) input.
        right: Box<PhysNode>,
        /// Join-key column positions `(left, right)`; empty for a product.
        on_idx: Vec<(usize, usize)>,
        /// The concatenated schema.
        schema: Schema,
    },
    /// Grouping/aggregation — a pipeline breaker (materializes its
    /// input). `AVG` outputs divide per row over the grouped result, in
    /// chunk form.
    Aggregate {
        /// Input node.
        input: Box<PhysNode>,
        /// Resolved grouping column names (empty = whole-relation).
        group_by: Vec<String>,
        /// Aggregate computations, in output order.
        aggs: Vec<PlanAgg>,
        /// AVG columns derived from SUM/COUNT pairs.
        avg: Vec<AvgSpec>,
        /// Per AVG spec, the (sum, count) positions in the grouped output.
        avg_idx: Vec<(usize, usize)>,
        /// The output schema (grouped columns ++ avg outputs).
        schema: Schema,
    },
    /// `UNION` / `EXCEPT` — a pipeline breaker on both inputs.
    SetOp {
        /// The operation.
        op: SetOp,
        /// Left input.
        left: Box<PhysNode>,
        /// Right input.
        right: Box<PhysNode>,
        /// The output schema (the left input's).
        schema: Schema,
    },
}

/// An internal-invariant failure: the plan handed to [`lower`] references
/// something its input schemas do not have. Never raised for plans built
/// by [`crate::plan::lower_query`].
fn internal(msg: impl Into<String>) -> RelError {
    RelError::Internal(msg.into())
}

/// Lowers a logical plan to its physical form, resolving every
/// data-independent decision (join-key positions, filter fusion, AVG
/// column pairs) exactly once.
///
/// A malformed plan (a join key or AVG part missing from its input
/// schema) returns [`RelError::Internal`] instead of panicking — plans
/// from `lower_query` are well-formed by construction, but a hand-built
/// or future-optimizer plan must fail loudly *as an error*.
///
/// Every `Plan` variant has its own arm: a new plan node needs a
/// physical form.
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
pub(crate) fn lower(plan: &Plan) -> Result<PhysNode> {
    Ok(match plan {
        Plan::Scan { table, schema } => PhysNode::Scan {
            table: table.clone(),
            schema: schema.clone(),
        },
        Plan::Derived { input, schema } => PhysNode::Rename {
            input: Box::new(lower(input)?),
            schema: schema.clone(),
        },
        Plan::Filter { input, pred } => {
            // Filter fusion: walk the stacked logical filters once and
            // emit one physical node applying them innermost-first.
            let mut preds = vec![pred.clone()];
            let mut below = input.as_ref();
            while let Plan::Filter { input, pred } = below {
                preds.push(pred.clone());
                below = input.as_ref();
            }
            preds.reverse();
            PhysNode::Filter {
                input: Box::new(lower(below)?),
                preds,
            }
        }
        Plan::AddUnitColumn { input, schema } => PhysNode::AddUnitColumn {
            input: Box::new(lower(input)?),
            schema: schema.clone(),
        },
        Plan::Project {
            input,
            columns,
            schema,
        } => PhysNode::Project {
            input: Box::new(lower(input)?),
            columns: columns.clone(),
            schema: schema.clone(),
        },
        Plan::Product {
            left,
            right,
            schema,
        } => PhysNode::HashJoin {
            left: Box::new(lower(left)?),
            right: Box::new(lower(right)?),
            on_idx: Vec::new(),
            schema: schema.clone(),
        },
        Plan::Join {
            left,
            right,
            on,
            schema,
        } => {
            let on_idx = on
                .iter()
                .map(|(l, r)| {
                    let li = left.schema().index_of(l).map_err(|_| {
                        internal(format!("join key `{l}` missing from the left input schema"))
                    })?;
                    let ri = right.schema().index_of(r).map_err(|_| {
                        internal(format!(
                            "join key `{r}` missing from the right input schema"
                        ))
                    })?;
                    Ok((li, ri))
                })
                .collect::<Result<_>>()?;
            PhysNode::HashJoin {
                left: Box::new(lower(left)?),
                right: Box::new(lower(right)?),
                on_idx,
                schema: schema.clone(),
            }
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
            avg,
            schema,
        } => {
            // The grouped output (before AVG columns) is `group_by` then
            // the aggregate outputs; AVG pairs resolve against it.
            let grouped: Vec<&str> = group_by
                .iter()
                .map(|g| g.as_str())
                .chain(aggs.iter().map(|a| a.out.as_str()))
                .collect();
            let avg_idx = avg
                .iter()
                .map(|spec| {
                    let pos = |name: &str| {
                        grouped.iter().position(|n| *n == name).ok_or_else(|| {
                            internal(format!("AVG part `{name}` missing from the grouped output"))
                        })
                    };
                    Ok((pos(&spec.sum)?, pos(&spec.count)?))
                })
                .collect::<Result<_>>()?;
            PhysNode::Aggregate {
                input: Box::new(lower(input)?),
                group_by: group_by.clone(),
                aggs: aggs.clone(),
                avg: avg.clone(),
                avg_idx,
                schema: schema.clone(),
            }
        }
        Plan::SetOp {
            op,
            left,
            right,
            schema,
        } => PhysNode::SetOp {
            op: *op,
            left: Box::new(lower(left)?),
            right: Box::new(lower(right)?),
            schema: schema.clone(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::plan::lower_query;
    use crate::ProvDb;

    fn db() -> ProvDb {
        let mut db = ProvDb::new();
        db.exec(
            "CREATE TABLE r (emp NUM, dept TEXT, sal NUM);
             CREATE TABLE heads (dept TEXT, head TEXT);",
        )
        .unwrap();
        db
    }

    fn phys(db: &ProvDb, sql: &str) -> PhysNode {
        lower(&lower_query(db, &parse_query(sql).unwrap()).unwrap().plan).unwrap()
    }

    #[test]
    fn join_keys_lower_to_positions() {
        let db = db();
        let root = phys(&db, "SELECT r.emp FROM r JOIN heads ON r.dept = heads.dept");
        let PhysNode::Project { input, .. } = root else {
            panic!("expected projection root");
        };
        let PhysNode::HashJoin { on_idx, .. } = *input else {
            panic!("expected a hash join under the projection");
        };
        assert_eq!(on_idx, vec![(1, 0)]);
    }

    #[test]
    fn duplicated_projection_lowers_to_its_positions() {
        // Duplicates stay in `columns`; what a fringe needs of them (the
        // distinct set, the positional expansion) is the kernel's to
        // derive, only when it meets one.
        let db = db();
        let root = phys(&db, "SELECT dept AS a, dept AS b, sal FROM r");
        let PhysNode::Project { columns, input, .. } = root else {
            panic!("expected projection root");
        };
        assert_eq!(columns, vec![1, 1, 2]);
        assert!(matches!(*input, PhysNode::Scan { .. }));
    }

    #[test]
    fn stacked_filters_fuse_into_one_physical_node() {
        let db = db();
        let root = phys(&db, "SELECT emp FROM r WHERE sal > 10 AND dept = 'd1'");
        let PhysNode::Project { input, .. } = root else {
            panic!("expected projection root");
        };
        let PhysNode::Filter { preds, input } = *input else {
            panic!("expected a fused filter under the projection");
        };
        assert_eq!(preds.len(), 2, "both WHERE conjuncts in one node");
        // Innermost conjunct first: `sal > 10` was lowered first.
        assert_eq!(preds[0].left, crate::plan::PlanOperand::Col(2));
        assert!(matches!(*input, PhysNode::Scan { .. }));
    }

    #[test]
    fn malformed_plans_lower_to_internal_errors_not_panics() {
        use aggprov_krel::error::RelError;
        let db = db();
        let lowered = lower_query(
            &db,
            &parse_query("SELECT r.emp FROM r JOIN heads ON r.dept = heads.dept").unwrap(),
        )
        .unwrap();
        // Corrupt the join key under the projection: a future hand-built
        // (or buggy-optimizer) plan must surface as RelError::Internal on
        // the lowering path, not abort the process.
        let Plan::Project {
            input,
            columns,
            schema,
        } = lowered.plan
        else {
            panic!("expected projection root");
        };
        let Plan::Join {
            left,
            right,
            schema: jschema,
            ..
        } = *input
        else {
            panic!("expected join");
        };
        let bad = Plan::Project {
            input: Box::new(Plan::Join {
                left,
                right,
                on: vec![("nope.nope".into(), "heads.dept".into())],
                schema: jschema,
            }),
            columns,
            schema,
        };
        let err = lower(&bad).unwrap_err();
        assert!(matches!(err, RelError::Internal(_)), "{err:?}");
        assert!(err.to_string().contains("join key"), "{err}");
    }

    #[test]
    fn avg_pairs_lower_to_grouped_positions() {
        let db = db();
        let root = phys(&db, "SELECT dept, AVG(sal) AS mean FROM r GROUP BY dept");
        let PhysNode::Project { input, .. } = root else {
            panic!("expected projection root");
        };
        let PhysNode::Aggregate {
            avg_idx, schema, ..
        } = *input
        else {
            panic!("expected an aggregate under the projection");
        };
        // Grouped output: dept, __avg_sum_1, __avg_cnt_1 (then `mean`).
        assert_eq!(avg_idx, vec![(1, 2)]);
        assert_eq!(schema.arity(), 4);
    }
}
