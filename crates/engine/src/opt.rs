//! The plan optimizer: semiring-sound rewrites between [`Plan`] lowering
//! and execution.
//!
//! Classic relational rewrites are **not** free under the paper's extended
//! semantics: a rewrite may only fire if it provably preserves the output
//! relation *bit for bit* — support, values, and every annotation of the
//! `(M, K)`-relation — over an arbitrary commutative semiring, including
//! the symbolic `K^M` aggregate values of §4–§5. A rewrite that merely
//! preserves results *up to valuation* would silently change recorded
//! provenance. The discipline here is the same one ProvSQL and
//! rewriting-based capture engines apply when grafting provenance onto an
//! optimizing host: every rule carries an explicit sound/unsound gate.
//!
//! ## The gate: static per-column groundness
//!
//! All gates reduce to one statically decidable property, computed from
//! the [`Catalog`] snapshot taken at prepare time: **which plan columns
//! can possibly hold a symbolic aggregate value**. A predicate over
//! provably ground columns evaluates to the semiring constants `0`/`1` on
//! every row — such a filter only *drops rows* and never multiplies a
//! non-trivial token into an annotation, so it commutes exactly with the
//! operators it moves past (the equality tokens of §4.3 between distinct
//! ground constants are structurally `0`, so a dropped row contributes
//! nothing anywhere downstream). The catalog cannot go stale under a
//! prepared statement: `Prepared` borrows the database immutably, and the
//! plan cache is invalidated by every DDL/DML mutation.
//!
//! ## Rules
//!
//! * **Predicate pushdown** (`push_filters`): a `Filter` whose column
//!   operands are all statically ground moves through `Derived` renames,
//!   `Project` (operand positions remapped across the projection map),
//!   and into the matching side of `Product`/`Join`.
//!   It never crosses `Aggregate` or `SetOp`: those operators sum
//!   annotations *across* rows (δ-groups, counting, union/difference
//!   cross terms), so selection before and after them are genuinely
//!   different queries. Nor does it cross another
//!   `Filter`: annotations would not change, but stacked conjuncts keep
//!   the order they were written in, because the order decides which
//!   rows reach an ordering comparison across types — swapped, the
//!   optimized plan could fail with a `TypeError` where the literal plan
//!   returns rows, or the other way round. Predicates over
//!   possibly-symbolic columns (e.g. a `HAVING` over an aggregate output)
//!   never move — their tokens multiply into annotations and
//!   multiplication order is part of the recorded provenance expression.
//! * **Join/product reordering** (`reorder_joins`): a maximal
//!   `Join`/`Product` chain of three or more inputs, every one statically
//!   fully ground, is re-sequenced greedily by estimated cardinality (smallest
//!   estimated input first, then the cheapest *connected* input, products
//!   only when forced), and the original column order is restored by one
//!   compensating positional `Project`. Over ground inputs every join
//!   token is structural and annotation products are canonical-form
//!   commutative, so the reordered chain is bit-identical; a chain with
//!   any possibly-symbolic input is left untouched (the §4.3 token cross
//!   terms are order-sensitive expressions there). A chain of two inputs
//!   keeps its lowered shape too: the join kernel indexes whichever input
//!   has fewer selected rows, whatever the plan's orientation, so swapping
//!   the two would change only the column order a compensating projection
//!   then restores — it would neither pick the indexed side nor save a
//!   probe.
//! * **Identity projections** (`rename_identity_projections`): `Π` onto
//!   every column in order of a statically fully ground input is a pure
//!   rename (each row keeps its own annotation), so it becomes a
//!   `Derived` node and the executor shares the input's tuple store
//!   instead of rebuilding it. Over a possibly-symbolic input the same
//!   projection carries cross-row token terms and is left alone.
//! * **Stacked filters** need no rewrite: the executor runs a chain of
//!   `Filter` nodes in one frame, narrowing a single selection vector.
//!
//! Equivalence is enforced the way PR 2–4 enforced their layers:
//! property tests assert optimized plans are bit-identical to
//! unoptimized plans (and to the `specops` oracles) over mixed
//! ground/symbolic relations at `threads ∈ {1, 4}` — see
//! `crates/engine/tests/opt_equivalence_proptests.rs`.

use crate::annot::ParseAnnotation;
use crate::ast::{CmpOp, SetOp};
use crate::database::Database;
use crate::plan::{Plan, PlanOperand, Predicate};
use aggprov_core::annotation::AggAnnotation;
use std::collections::{BTreeMap, BTreeSet};

/// Statistics for one base table, snapshotted at prepare time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableStats {
    /// The table's tuple count.
    pub rows: usize,
    /// Per column, `true` iff every value in that column is a ground
    /// constant (no symbolic aggregate anywhere).
    pub ground_cols: Vec<bool>,
}

/// A base-table cardinality/groundness catalog: the optimizer's only view
/// of the data. Built by [`Catalog::of`] from the database's current
/// tables; `Database::prepare` snapshots one per cache miss.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Catalog {
    tables: BTreeMap<String, TableStats>,
}

impl Catalog {
    /// Snapshots every table of the database: one pass per table for the
    /// tuple count and per-column groundness.
    pub fn of<A: AggAnnotation + ParseAnnotation>(db: &Database<A>) -> Catalog {
        Self::snapshot(db, db.table_names().map(str::to_string).collect())
    }

    /// Snapshots only the tables a plan scans — what `prepare` uses, so
    /// planning one query never pays a groundness pass over unrelated
    /// tables.
    pub fn of_plan<A: AggAnnotation + ParseAnnotation>(db: &Database<A>, plan: &Plan) -> Catalog {
        Self::snapshot(db, plan.scanned_tables())
    }

    fn snapshot<A: AggAnnotation + ParseAnnotation>(
        db: &Database<A>,
        names: std::collections::BTreeSet<String>,
    ) -> Catalog {
        // Per-column groundness is maintained incrementally on the table
        // entries (`INSERT` only adds constants; `register` scans once),
        // so each snapshot is O(columns) per table — planning never pays
        // a per-prepare pass over the rows.
        let mut tables = BTreeMap::new();
        for name in names {
            if let Some(stats) = db.table_stats(&name) {
                tables.insert(name, stats);
            }
        }
        Catalog { tables }
    }

    /// The stats for one table, if known.
    pub fn table(&self, name: &str) -> Option<&TableStats> {
        self.tables.get(name)
    }
}

/// Runs all rewrite passes over a lowered plan. The returned plan has the
/// same output schema and — property-tested — produces bit-identical
/// results over every input the gates admit rewrites for.
pub fn optimize(plan: &Plan, catalog: &Catalog) -> Plan {
    let renamed = rename_identity_projections(plan.clone(), catalog);
    reorder_joins(push_filters(renamed, catalog), catalog)
}

// ---------------------------------------------------------------------------
// Static groundness
// ---------------------------------------------------------------------------

/// Per output column of `plan`, `true` iff the column can possibly hold a
/// symbolic aggregate value. Conservative: aggregate outputs are always
/// flagged; scans read the catalog's observed per-column groundness.
///
/// Every `Plan` variant has its own arm: a new plan node must declare
/// which output columns can go symbolic, or every rewrite is vetoed.
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
fn symbolic_cols(plan: &Plan, catalog: &Catalog) -> Vec<bool> {
    match plan {
        Plan::Scan { table, schema } => catalog
            .table(table)
            .map(|s| s.ground_cols.iter().map(|g| !g).collect())
            .unwrap_or_else(|| vec![true; schema.arity()]),
        Plan::Derived { input, .. } | Plan::Filter { input, .. } => symbolic_cols(input, catalog),
        Plan::Product { left, right, .. } | Plan::Join { left, right, .. } => {
            let mut flags = symbolic_cols(left, catalog);
            flags.extend(symbolic_cols(right, catalog));
            flags
        }
        Plan::Project { input, columns, .. } => {
            // An out-of-range position can only come from a malformed
            // hand-built plan; flagging it symbolic vetoes every rewrite,
            // so the plan passes through for execution to reject.
            let inner = symbolic_cols(input, catalog);
            columns
                .iter()
                .map(|i| inner.get(*i).copied().unwrap_or(true))
                .collect()
        }
        Plan::Aggregate {
            input,
            group_by,
            schema,
            ..
        } => {
            // Group columns inherit their input column's flag; aggregate
            // (and AVG) outputs can always be symbolic under symbolic
            // annotations.
            let inner = symbolic_cols(input, catalog);
            let mut flags = Vec::with_capacity(schema.arity());
            for g in group_by {
                let flag = input
                    .schema()
                    .index_of(g)
                    .map(|i| inner.get(i).copied().unwrap_or(true))
                    .unwrap_or(true);
                flags.push(flag);
            }
            flags.resize(schema.arity(), true);
            flags
        }
        Plan::SetOp { left, right, .. } => {
            // Positional alignment, as the set op executes.
            let l = symbolic_cols(left, catalog);
            let r = symbolic_cols(right, catalog);
            l.iter().zip(&r).map(|(a, b)| *a || *b).collect()
        }
    }
}

/// The column positions a predicate reads.
fn pred_cols(pred: &Predicate) -> Vec<usize> {
    [&pred.left, &pred.right]
        .into_iter()
        .filter_map(|op| match op {
            PlanOperand::Col(i) => Some(*i),
            _ => None,
        })
        .collect()
}

/// True iff every column the predicate reads is statically ground in the
/// given flags — the pushdown gate.
fn pred_is_ground(pred: &Predicate, flags: &[bool]) -> bool {
    // An out-of-range column (malformed hand-built plan) counts as
    // symbolic: the filter stays put and the malformed plan surfaces as
    // `RelError::Internal` downstream instead of a panic here.
    pred_cols(pred)
        .iter()
        .all(|c| flags.get(*c).is_some_and(|s| !*s))
}

/// Rewrites the predicate's column positions through `f`.
fn remap_pred(pred: &Predicate, f: impl Fn(usize) -> usize) -> Predicate {
    let map = |op: &PlanOperand| match op {
        PlanOperand::Col(i) => PlanOperand::Col(f(*i)),
        other => other.clone(),
    };
    Predicate {
        left: map(&pred.left),
        op: pred.op,
        right: map(&pred.right),
    }
}

// ---------------------------------------------------------------------------
// Predicate pushdown
// ---------------------------------------------------------------------------

/// Rebuilds `plan` with every direct input replaced by `f(input)`; the
/// node itself (and so its output schema) is kept as is.
fn map_inputs(plan: Plan, f: &mut impl FnMut(Plan) -> Plan) -> Plan {
    let mut boxed = |input: Box<Plan>| Box::new(f(*input));
    match plan {
        Plan::Scan { .. } => plan,
        Plan::Derived { input, schema } => Plan::Derived {
            input: boxed(input),
            schema,
        },
        Plan::Filter { input, pred } => Plan::Filter {
            input: boxed(input),
            pred,
        },
        Plan::Project {
            input,
            columns,
            schema,
        } => Plan::Project {
            input: boxed(input),
            columns,
            schema,
        },
        Plan::Aggregate {
            input,
            group_by,
            aggs,
            avg,
            schema,
        } => Plan::Aggregate {
            input: boxed(input),
            group_by,
            aggs,
            avg,
            schema,
        },
        Plan::Product {
            left,
            right,
            schema,
        } => Plan::Product {
            left: boxed(left),
            right: boxed(right),
            schema,
        },
        Plan::Join {
            left,
            right,
            on,
            schema,
        } => Plan::Join {
            left: boxed(left),
            right: boxed(right),
            on,
            schema,
        },
        Plan::SetOp {
            op,
            left,
            right,
            schema,
        } => Plan::SetOp {
            op,
            left: boxed(left),
            right: boxed(right),
            schema,
        },
    }
}

/// The identity-projection pass: `Π` onto every column, in order, of a
/// statically fully ground input becomes the `Derived` rename it is
/// (between constants every §4.3 token is `0`/`1`, so each row keeps
/// exactly its own annotation). Over a possibly-symbolic input the same
/// projection sums cross-row token terms and stays a `Project`.
fn rename_identity_projections(plan: Plan, catalog: &Catalog) -> Plan {
    let plan = map_inputs(plan, &mut |p| rename_identity_projections(p, catalog));
    match plan {
        Plan::Project {
            input,
            columns,
            schema,
        } if columns.iter().copied().eq(0..input.schema().arity())
            && !symbolic_cols(&input, catalog).contains(&true) =>
        {
            Plan::Derived { input, schema }
        }
        other => other,
    }
}

/// The pushdown pass: recursively pushes every `Filter` with a statically
/// ground predicate as deep as the soundness gate allows.
fn push_filters(plan: Plan, catalog: &Catalog) -> Plan {
    match plan {
        Plan::Filter { input, pred } => {
            let input = push_filters(*input, catalog);
            push_into(input, pred, catalog)
        }
        other => map_inputs(other, &mut |p| push_filters(p, catalog)),
    }
}

/// Pushes one predicate into (already-pushed) `input` as deep as soundness
/// allows, leaving a `Filter` node at the deepest admissible spot.
fn push_into(input: Plan, pred: Predicate, catalog: &Catalog) -> Plan {
    // The gate: only predicates over statically ground columns move at
    // all. Checked against the node the filter currently sits on; the
    // property is preserved by every remapping below (a ground output
    // column of Project/Derived maps to a ground input column).
    if !pred_is_ground(&pred, &symbolic_cols(&input, catalog)) {
        return Plan::Filter {
            input: Box::new(input),
            pred,
        };
    }
    match input {
        // A derived-table rename does not move columns: descend as is.
        Plan::Derived {
            input: inner,
            schema,
        } => Plan::Derived {
            input: Box::new(push_into(*inner, pred, catalog)),
            schema,
        },
        // Through a projection: output position `i` reads input position
        // `columns[i]`. A predicate column outside the view (a planner
        // bug) stops the push instead of panicking.
        Plan::Project {
            input: inner,
            columns,
            schema,
        } => {
            let col_of = |op: &PlanOperand| match op {
                PlanOperand::Col(i) => Some(*i),
                _ => None,
            };
            let out_of_range = [&pred.left, &pred.right]
                .into_iter()
                .filter_map(col_of)
                .any(|i| i >= columns.len());
            if out_of_range {
                return Plan::Filter {
                    input: Box::new(Plan::Project {
                        input: inner,
                        columns,
                        schema,
                    }),
                    pred,
                };
            }
            let remapped = remap_pred(&pred, |i| columns.get(i).copied().unwrap_or(i));
            Plan::Project {
                input: Box::new(push_into(*inner, remapped, catalog)),
                columns,
                schema,
            }
        }
        Plan::Product {
            left,
            right,
            schema,
        } => push_beside(left, right, pred, catalog, |left, right| Plan::Product {
            left,
            right,
            schema,
        }),
        Plan::Join {
            left,
            right,
            on,
            schema,
        } => push_beside(left, right, pred, catalog, |left, right| Plan::Join {
            left,
            right,
            on,
            schema,
        }),
        // The hard boundaries: Aggregate and SetOp sum annotations across
        // rows — selection before ≠ selection after.
        // A Filter is a boundary too: stacked conjuncts keep their
        // written order, which decides the rows an ordering comparison
        // across types sees, and so whether the query errors.
        boundary @ (Plan::Scan { .. }
        | Plan::Filter { .. }
        | Plan::Aggregate { .. }
        | Plan::SetOp { .. }) => Plan::Filter {
            input: Box::new(boundary),
            pred,
        },
    }
}

/// Pushes `pred` into the side of a product or join (rebuilt by `node`)
/// whose columns it reads; a predicate straddling both sides stays above
/// the node.
fn push_beside(
    left: Box<Plan>,
    right: Box<Plan>,
    pred: Predicate,
    catalog: &Catalog,
    node: impl FnOnce(Box<Plan>, Box<Plan>) -> Plan,
) -> Plan {
    let la = left.schema().arity();
    let cols = pred_cols(&pred);
    if cols.iter().all(|c| *c < la) {
        node(Box::new(push_into(*left, pred, catalog)), right)
    } else if cols.iter().all(|c| *c >= la) {
        let remapped = remap_pred(&pred, |i| i - la);
        node(left, Box::new(push_into(*right, remapped, catalog)))
    } else {
        Plan::Filter {
            input: Box::new(node(left, right)),
            pred,
        }
    }
}

// ---------------------------------------------------------------------------
// Cardinality estimation and join reordering
// ---------------------------------------------------------------------------

/// Per-comparison selectivity heuristic (no histograms — base cardinality
/// only, per the ROADMAP's remaining-items note).
fn selectivity(op: CmpOp) -> f64 {
    match op {
        CmpOp::Eq => 0.1,
        CmpOp::Ne => 0.9,
        CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => 0.5,
    }
}

/// Estimated output cardinality, driven by the catalog's base-table row
/// counts.
fn estimate(plan: &Plan, catalog: &Catalog) -> f64 {
    match plan {
        Plan::Scan { table, .. } => catalog
            .table(table)
            .map(|s| s.rows as f64)
            .unwrap_or(1000.0),
        Plan::Filter { input, pred } => estimate(input, catalog) * selectivity(pred.op),
        Plan::Derived { input, .. } | Plan::Project { input, .. } => estimate(input, catalog),
        Plan::Aggregate {
            input, group_by, ..
        } => {
            if group_by.is_empty() {
                1.0
            } else {
                // Grouping collapses duplicates; the square root is the
                // usual guess with no per-column statistics.
                estimate(input, catalog).sqrt()
            }
        }
        Plan::Product { left, right, .. } => estimate(left, catalog) * estimate(right, catalog),
        Plan::Join {
            left, right, on, ..
        } => {
            let mut est = estimate(left, catalog) * estimate(right, catalog);
            for _ in on {
                est *= 0.1;
            }
            est
        }
        Plan::SetOp { left, right, .. } => estimate(left, catalog) + estimate(right, catalog),
    }
}

/// The reorder pass: finds maximal `Join`/`Product` chains and greedily
/// re-sequences those whose every input is statically fully ground.
fn reorder_joins(plan: Plan, catalog: &Catalog) -> Plan {
    match plan {
        chain @ (Plan::Join { .. } | Plan::Product { .. }) => reorder_chain(chain, catalog),
        other => map_inputs(other, &mut |p| reorder_joins(p, catalog)),
    }
}

/// Flattens a `Join`/`Product` chain into its non-join inputs and the
/// equality pairs connecting them.
fn flatten_chain(plan: Plan, leaves: &mut Vec<Plan>, pairs: &mut Vec<(String, String)>) {
    match plan {
        Plan::Join {
            left, right, on, ..
        } => {
            flatten_chain(*left, leaves, pairs);
            flatten_chain(*right, leaves, pairs);
            pairs.extend(on);
        }
        Plan::Product { left, right, .. } => {
            flatten_chain(*left, leaves, pairs);
            flatten_chain(*right, leaves, pairs);
        }
        other => leaves.push(other),
    }
}

/// Reorders one maximal chain. Returns the original plan untouched when
/// the all-ground gate fails (recursing into sub-plans only), or the
/// greedily re-sequenced chain capped by a compensating projection that
/// restores the original column order.
fn reorder_chain(plan: Plan, catalog: &Catalog) -> Plan {
    let original_schema = plan.schema().clone();
    // Keep a pristine copy to fall back to: the rewrite below is pure
    // plan surgery, so any unexpected inconsistency (a pair not spanning
    // two leaves, a failed concat) abandons the rewrite, never the query.
    let fallback = plan.clone();

    let mut leaves: Vec<Plan> = Vec::new();
    let mut pairs: Vec<(String, String)> = Vec::new();
    flatten_chain(plan, &mut leaves, &mut pairs);

    // The soundness gate: every input statically fully ground. A chain
    // with any possibly-symbolic column keeps its lowered shape — the
    // §4.3 token cross terms there are order-sensitive expressions. So
    // does a chain of two leaves: the join kernel indexes the side with
    // fewer selected rows whatever the orientation, so a swap would buy
    // only the compensating projection.
    let all_ground = leaves
        .iter()
        .all(|l| symbolic_cols(l, catalog).iter().all(|s| !s));
    if leaves.len() < 3 || !all_ground {
        return descend_original(fallback, catalog);
    }

    // Recurse into the leaves themselves (derived subqueries may contain
    // further chains), then greedily order by estimated cardinality.
    let leaves: Vec<Plan> = leaves
        .into_iter()
        .map(|l| reorder_joins(l, catalog))
        .collect();
    let ests: Vec<f64> = leaves.iter().map(|l| estimate(l, catalog)).collect();

    // Which two leaves does each pair connect?
    let leaf_of = |name: &str| leaves.iter().position(|l| l.schema().contains(name));
    let mut pair_leaves: Vec<(usize, usize)> = Vec::with_capacity(pairs.len());
    for (a, b) in &pairs {
        match (leaf_of(a), leaf_of(b)) {
            (Some(x), Some(y)) if x != y => pair_leaves.push((x, y)),
            _ => return descend_original(fallback, catalog),
        }
    }

    // Greedy sequence: cheapest leaf first, then always the cheapest leaf
    // *connected* to the accumulated set (a cross product only when no
    // connected leaf remains). Deterministic: ties break on leaf index.
    let n = leaves.len();
    let mut used: BTreeSet<usize> = BTreeSet::new();
    let better = |a: usize, b: Option<usize>| match b {
        None => true,
        Some(b) => {
            let (ea, eb) = (ests.get(a), ests.get(b));
            ea < eb || (ea == eb && a < b)
        }
    };
    let mut first: Option<usize> = None;
    for i in 0..n {
        if better(i, first) {
            first = Some(i);
        }
    }
    let Some(first) = first else {
        return descend_original(fallback, catalog);
    };
    let mut order = vec![first];
    used.insert(first);
    while order.len() < n {
        let connected = |i: usize| {
            pair_leaves
                .iter()
                .any(|&(x, y)| (x == i && used.contains(&y)) || (y == i && used.contains(&x)))
        };
        let mut pick: Option<usize> = None;
        let mut pick_connected = false;
        for i in 0..n {
            if used.contains(&i) {
                continue;
            }
            let c = connected(i);
            if (c && !pick_connected) || (c == pick_connected && better(i, pick)) {
                pick = Some(i);
                pick_connected = c;
            }
        }
        let Some(pick) = pick else {
            return descend_original(fallback, catalog);
        };
        used.insert(pick);
        order.push(pick);
    }

    if order.iter().enumerate().all(|(i, o)| i == *o) {
        // Already in the cheapest order: rebuild nothing, keep the
        // lowered association (bit-identical by construction).
        return descend_original(fallback, catalog);
    }

    // Rebuild left-deep in greedy order, attaching each pair at the join
    // that brings its second leaf in. Pair orientation follows the tree:
    // accumulated side first.
    let mut leaf_slots: Vec<Option<Plan>> = leaves.into_iter().map(Some).collect();
    let mut in_acc: BTreeSet<usize> = BTreeSet::new();
    let mut order_iter = order.iter().copied();
    let first_leaf = order_iter
        .next()
        .and_then(|i| leaf_slots.get_mut(i).and_then(Option::take).map(|l| (i, l)));
    let Some((first_idx, mut acc)) = first_leaf else {
        return descend_original(fallback, catalog);
    };
    in_acc.insert(first_idx);
    for idx in order_iter {
        let Some(leaf) = leaf_slots.get_mut(idx).and_then(Option::take) else {
            return descend_original(fallback, catalog);
        };
        let mut on: Vec<(String, String)> = Vec::new();
        for ((a, b), &(x, y)) in pairs.iter().zip(&pair_leaves) {
            if x == idx && in_acc.contains(&y) {
                on.push((b.clone(), a.clone()));
            } else if y == idx && in_acc.contains(&x) {
                on.push((a.clone(), b.clone()));
            }
        }
        let schema = match acc.schema().concat(leaf.schema()) {
            Ok(s) => s,
            Err(_) => return descend_original(fallback, catalog),
        };
        acc = if on.is_empty() {
            Plan::Product {
                left: Box::new(acc),
                right: Box::new(leaf),
                schema,
            }
        } else {
            Plan::Join {
                left: Box::new(acc),
                right: Box::new(leaf),
                on,
                schema,
            }
        };
        in_acc.insert(idx);
    }

    // Compensating projection: restore the original column order (over
    // statically ground inputs this is an exact positional gather — no
    // token cross terms can arise).
    let columns: Vec<usize> = match original_schema
        .attrs()
        .iter()
        .map(|a| acc.schema().index_of(a.name()))
        .collect::<aggprov_krel::error::Result<Vec<usize>>>()
    {
        Ok(c) => c,
        Err(_) => return descend_original(fallback, catalog),
    };
    Plan::Project {
        input: Box::new(acc),
        columns,
        schema: original_schema,
    }
}

/// Keeps a chain's lowered shape but still recurses into its non-join
/// sub-plans (derived subqueries may contain rewritable chains).
fn descend_original(plan: Plan, catalog: &Catalog) -> Plan {
    // Descent preserves every child's output schema (a reordered
    // sub-chain restores its column order with a compensating
    // projection), so each node keeps its own schema untouched.
    match plan {
        chain @ (Plan::Join { .. } | Plan::Product { .. }) => {
            map_inputs(chain, &mut |p| descend_original(p, catalog))
        }
        other => reorder_joins(other, catalog),
    }
}

// ---------------------------------------------------------------------------
// EXPLAIN rendering
// ---------------------------------------------------------------------------

fn cmp_str(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "=",
        CmpOp::Ne => "<>",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
    }
}

fn operand_str(op: &PlanOperand, input: &Plan) -> String {
    match op {
        PlanOperand::Col(i) => input
            .schema()
            .attrs()
            .get(*i)
            .map(|a| a.name().to_string())
            .unwrap_or_else(|| format!("#{i}")),
        PlanOperand::Lit(c) => c.to_string(),
        PlanOperand::Param(slot) => format!("${}", slot + 1),
    }
}

fn node_line(plan: &Plan) -> String {
    match plan {
        Plan::Scan { table, schema } => format!("Scan {table} [{schema}]"),
        Plan::Derived { schema, .. } => format!("Derived [{schema}]"),
        Plan::Filter { input, pred } => format!(
            "Filter {} {} {}",
            operand_str(&pred.left, input),
            cmp_str(pred.op),
            operand_str(&pred.right, input),
        ),
        Plan::Product { .. } => "Product".to_string(),
        Plan::Join { on, .. } => {
            let conds: Vec<String> = on.iter().map(|(a, b)| format!("{a} = {b}")).collect();
            format!("Join on {}", conds.join(" AND "))
        }
        Plan::Aggregate { group_by, aggs, .. } => {
            let outs: Vec<String> = aggs
                .iter()
                .map(|a| format!("{:?}({}) AS {}", a.kind, a.attr, a.out))
                .collect();
            format!(
                "Aggregate group_by=[{}] aggs=[{}]",
                group_by.join(", "),
                outs.join(", ")
            )
        }
        Plan::Project { schema, .. } => format!("Project [{schema}]"),
        Plan::SetOp { op, .. } => match op {
            SetOp::Union => "Union".to_string(),
            SetOp::Except => "Except".to_string(),
        },
    }
}

fn render_into(plan: &Plan, indent: usize, out: &mut String) {
    out.push_str(&"  ".repeat(indent));
    out.push_str(&node_line(plan));
    out.push('\n');
    match plan {
        Plan::Scan { .. } => {}
        Plan::Derived { input, .. }
        | Plan::Filter { input, .. }
        | Plan::Aggregate { input, .. }
        | Plan::Project { input, .. } => render_into(input, indent + 1, out),
        Plan::Product { left, right, .. }
        | Plan::Join { left, right, .. }
        | Plan::SetOp { left, right, .. } => {
            render_into(left, indent + 1, out);
            render_into(right, indent + 1, out);
        }
    }
}

/// Renders a plan as an indented operator tree — the building block of
/// [`crate::database::Prepared::plan_display`].
pub fn render_plan(plan: &Plan) -> String {
    let mut out = String::new();
    render_into(plan, 0, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::plan::lower_query;
    use crate::ProvDb;
    use aggprov_algebra::monoid::MonoidKind;
    use aggprov_algebra::tensor::Tensor;
    use aggprov_core::{Km, Value};
    use aggprov_krel::relation::Relation;
    use aggprov_krel::schema::Schema;

    /// Tables sized so cardinalities differ by an order of magnitude:
    /// big(a, b) 60 rows, mid(c, d) 12 rows, small(e, f) 3 rows.
    fn db() -> ProvDb {
        let mut db = ProvDb::new();
        db.exec("CREATE TABLE big (a NUM, b NUM); CREATE TABLE mid (c NUM, d NUM); CREATE TABLE small (e NUM, f NUM)")
            .unwrap();
        for i in 0..60 {
            db.exec(&format!("INSERT INTO big VALUES ({}, {})", i, i % 7))
                .unwrap();
        }
        for i in 0..12 {
            db.exec(&format!("INSERT INTO mid VALUES ({}, {})", i % 7, i))
                .unwrap();
        }
        for i in 0..3 {
            db.exec(&format!("INSERT INTO small VALUES ({}, {})", i, i))
                .unwrap();
        }
        db
    }

    fn optimized(db: &ProvDb, sql: &str) -> Plan {
        let lowered = lower_query(db, &parse_query(sql).unwrap()).unwrap();
        optimize(&lowered.plan, &Catalog::of(db))
    }

    /// Collects the node kinds on the spine from the root down (left
    /// children only).
    fn spine(plan: &Plan) -> Vec<&'static str> {
        let mut out = Vec::new();
        let mut cur = plan;
        loop {
            out.push(match cur {
                Plan::Scan { .. } => "Scan",
                Plan::Derived { .. } => "Derived",
                Plan::Product { .. } => "Product",
                Plan::Join { .. } => "Join",
                Plan::Filter { .. } => "Filter",
                Plan::Aggregate { .. } => "Aggregate",
                Plan::Project { .. } => "Project",
                Plan::SetOp { .. } => "SetOp",
            });
            cur = match cur {
                Plan::Scan { .. } => return out,
                Plan::Derived { input, .. }
                | Plan::Filter { input, .. }
                | Plan::Aggregate { input, .. }
                | Plan::Project { input, .. } => input,
                Plan::Product { left, .. } | Plan::Join { left, .. } | Plan::SetOp { left, .. } => {
                    left
                }
            };
        }
    }

    /// Finds the `Filter` directly above the scan of `table`, anywhere in
    /// the plan — pushdown tests don't care which join side reordering
    /// later placed the scan on.
    fn filter_on_scan<'a>(plan: &'a Plan, table: &str) -> Option<&'a Predicate> {
        match plan {
            Plan::Filter { input, pred } => match input.as_ref() {
                Plan::Scan { table: t, .. } if t == table => Some(pred),
                other => filter_on_scan(other, table),
            },
            Plan::Scan { .. } => None,
            Plan::Derived { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Project { input, .. } => filter_on_scan(input, table),
            Plan::Product { left, right, .. }
            | Plan::Join { left, right, .. }
            | Plan::SetOp { left, right, .. } => {
                filter_on_scan(left, table).or_else(|| filter_on_scan(right, table))
            }
        }
    }

    #[test]
    fn where_above_join_pushes_to_the_scan_side() {
        let db = db();
        let plan = optimized(
            &db,
            "SELECT big.a FROM big JOIN mid ON big.b = mid.c WHERE big.a < 5",
        );
        // The filter moved below the join, directly onto the big scan.
        let pred = filter_on_scan(&plan, "big").expect("filter on the scan");
        // `big.a` is position 0 of both the join output and the scan.
        assert_eq!(pred.left, PlanOperand::Col(0));
    }

    #[test]
    fn right_side_predicates_remap_positions() {
        let db = db();
        let plan = optimized(
            &db,
            "SELECT big.a FROM big JOIN mid ON big.b = mid.c WHERE mid.d < 5",
        );
        // `mid.d` was position 3 of the join output, 1 of the scan.
        let pred = filter_on_scan(&plan, "mid").expect("filter on the scan");
        assert_eq!(pred.left, PlanOperand::Col(1));
    }

    #[test]
    fn straddling_predicates_stay_above_the_join() {
        let db = db();
        let plan = optimized(
            &db,
            "SELECT big.a FROM big JOIN mid ON big.b = mid.c WHERE big.a < mid.d",
        );
        let Plan::Project { input, .. } = &plan else {
            panic!("projection root");
        };
        assert!(
            matches!(input.as_ref(), Plan::Filter { .. }),
            "cross-side predicate must not move: {input:?}"
        );
    }

    #[test]
    fn pushdown_crosses_derived_and_project_with_renaming() {
        let db = db();
        // The filter on the subquery output column `x` (a rename of
        // `big.b` through the inner projection) must cross the Derived
        // rename *and* the inner Project, landing on the scan.
        let plan = optimized(
            &db,
            "SELECT q.x FROM (SELECT b AS x, a FROM big) q WHERE q.x = 3",
        );
        assert_eq!(
            spine(&plan),
            vec!["Project", "Derived", "Project", "Filter", "Scan"]
        );
        // And the remapped operand points at `b` (scan position 1).
        let Plan::Project { input, .. } = &plan else {
            panic!()
        };
        let Plan::Derived { input, .. } = input.as_ref() else {
            panic!()
        };
        let Plan::Project { input, .. } = input.as_ref() else {
            panic!()
        };
        let Plan::Filter { pred, .. } = input.as_ref() else {
            panic!()
        };
        assert_eq!(pred.left, PlanOperand::Col(1));
    }

    #[test]
    fn identity_projection_over_ground_input_becomes_a_rename() {
        let db = db();
        // Every column in order over ground tables: a rename, at the root
        // and inside the derived table alike.
        let plan = optimized(&db, "SELECT q.a, q.b FROM (SELECT * FROM big) q");
        assert_eq!(spine(&plan), vec!["Derived", "Derived", "Derived", "Scan"]);
        // A permutation, a duplicate and a strict subset all move values.
        for sql in [
            "SELECT b, a FROM big",
            "SELECT a, a AS a2 FROM big",
            "SELECT a FROM big",
        ] {
            assert_eq!(spine(&optimized(&db, sql)), vec!["Project", "Scan"]);
        }
        // An aggregate output can be symbolic: Π over all of its columns
        // sums cross-row token terms and must stay a projection.
        let plan = optimized(&db, "SELECT b, SUM(a) AS s FROM big GROUP BY b");
        assert_eq!(spine(&plan), vec!["Project", "Aggregate", "Scan"]);
    }

    #[test]
    fn pushdown_refuses_to_cross_aggregate_and_setop() {
        let db = db();
        // HAVING on the (ground) group key still must not cross the
        // aggregate: grouping sums annotations across rows, and an
        // ungrouped aggregate even changes support on empty input.
        let plan = optimized(
            &db,
            "SELECT b, SUM(a) AS s FROM big GROUP BY b HAVING b = 3",
        );
        assert_eq!(
            spine(&plan),
            vec!["Project", "Filter", "Aggregate", "Scan"],
            "HAVING stays above the aggregate"
        );

        // A filter above a set operation stops at the SetOp boundary —
        // it crosses the Derived rename but not the union.
        let plan = optimized(
            &db,
            "SELECT q.a FROM (SELECT a FROM big UNION SELECT c AS a FROM mid) q WHERE q.a = 1",
        );
        assert_eq!(
            spine(&plan),
            vec!["Derived", "Derived", "Filter", "SetOp", "Project", "Scan"],
            "the filter must sit directly above the SetOp, not inside a branch"
        );
    }

    #[test]
    fn pushdown_refuses_add_unit_column() {
        // `COUNT(*)` is an aggregate spec over `*`, with no node of its
        // own below the Aggregate; a ground filter above a COUNT
        // Aggregate (HAVING on the group key) stays above it.
        let db = db();
        let plan = optimized(
            &db,
            "SELECT b, COUNT(*) AS n FROM big GROUP BY b HAVING b = 3",
        );
        assert_eq!(spine(&plan), vec!["Project", "Filter", "Aggregate", "Scan"]);
        let Plan::Project { input, .. } = &plan else {
            panic!()
        };
        let Plan::Filter { input, .. } = input.as_ref() else {
            panic!()
        };
        let Plan::Aggregate { aggs, .. } = input.as_ref() else {
            panic!()
        };
        assert_eq!(aggs[0].attr, aggprov_core::ops::STAR);
    }

    #[test]
    fn predicates_over_symbolic_columns_never_move() {
        // A registered table with a symbolic aggregate value in column
        // `v`: filters on `v` must stay exactly where lowering put them,
        // even above a join they could otherwise enter.
        let mut db = ProvDb::new();
        let tok = |n: &str| Km::embed(aggprov_algebra::poly::NatPoly::token(n));
        let sym = Value::agg_normalized(
            MonoidKind::Sum,
            Tensor::from_terms(
                &MonoidKind::Sum,
                [(tok("x"), aggprov_algebra::domain::Const::int(3))],
            ),
        );
        let rel = Relation::from_rows(
            Schema::new(["k", "v"]).unwrap(),
            [
                (vec![Value::int(1), sym], tok("r0")),
                (vec![Value::int(2), Value::int(5)], tok("r1")),
            ],
        )
        .unwrap();
        db.register("t", rel);
        db.exec("CREATE TABLE u (k2 NUM, w NUM); INSERT INTO u VALUES (1, 9)")
            .unwrap();
        let plan = optimized(&db, "SELECT t.k FROM t JOIN u ON t.k = u.k2 WHERE t.v = 3");
        let Plan::Project { input, .. } = &plan else {
            panic!()
        };
        assert!(
            matches!(input.as_ref(), Plan::Filter { .. }),
            "symbolic-column predicate must not cross the join: {input:?}"
        );
        // …while a predicate on the ground column `k` still moves.
        let plan = optimized(&db, "SELECT t.k FROM t JOIN u ON t.k = u.k2 WHERE t.k = 1");
        let Plan::Project { input, .. } = &plan else {
            panic!()
        };
        assert!(matches!(input.as_ref(), Plan::Join { .. }), "{input:?}");
    }

    #[test]
    fn ground_join_chains_reorder_smallest_first() {
        let db = db();
        // Written largest-first: big ⋈ mid ⋈ small. Greedy starts from
        // `small` (3 rows), and the compensating projection restores the
        // original column order, so the output schema is unchanged.
        let sql = "SELECT big.a, mid.d, small.f FROM big \
                   JOIN mid ON big.b = mid.c JOIN small ON mid.d = small.e";
        let lowered = lower_query(&db, &parse_query(sql).unwrap()).unwrap();
        let plan = optimize(&lowered.plan, &Catalog::of(&db));
        assert_eq!(plan.schema(), lowered.plan.schema());
        // Root Project (display) → compensating Project → reordered chain.
        let Plan::Project { input, .. } = &plan else {
            panic!()
        };
        let Plan::Project { input: chain, .. } = input.as_ref() else {
            panic!("expected the compensating projection, got {input:?}");
        };
        let Plan::Join { left, .. } = chain.as_ref() else {
            panic!()
        };
        let Plan::Join { left: first, .. } = left.as_ref() else {
            panic!()
        };
        assert!(
            matches!(first.as_ref(), Plan::Scan { table, .. } if table == "small"),
            "cheapest input first: {first:?}"
        );
    }

    #[test]
    fn two_leaf_chains_keep_their_lowered_shape() {
        // Written largest-first, big ⋈ small and big × small stay as
        // lowered: the join kernel indexes the smaller side itself, so a
        // swap would add only a compensating projection.
        let db = db();
        for sql in [
            "SELECT big.a, small.f FROM big JOIN small ON big.b = small.e WHERE big.a < 50",
            "SELECT big.a, small.f FROM big, small",
        ] {
            let lowered = lower_query(&db, &parse_query(sql).unwrap()).unwrap();
            let plan = optimize(&lowered.plan, &Catalog::of(&db));
            let Plan::Project { input, .. } = &plan else {
                panic!("projection root: {plan:?}");
            };
            let (Plan::Join { left, right, .. } | Plan::Product { left, right, .. }) =
                input.as_ref()
            else {
                panic!("the chain right under the root projection: {input:?}");
            };
            let scanned = |p: &Plan| p.scanned_tables().into_iter().collect::<Vec<_>>();
            assert_eq!(
                (scanned(left), scanned(right)),
                (vec!["big".into()], vec!["small".into()])
            );
        }
    }

    #[test]
    fn chains_with_symbolic_inputs_keep_their_shape() {
        let mut db = ProvDb::new();
        let tok = |n: &str| Km::embed(aggprov_algebra::poly::NatPoly::token(n));
        let sym = Value::agg_normalized(
            MonoidKind::Sum,
            Tensor::from_terms(
                &MonoidKind::Sum,
                [(tok("x"), aggprov_algebra::domain::Const::int(3))],
            ),
        );
        let rel = Relation::from_rows(
            Schema::new(["k", "v"]).unwrap(),
            [(vec![Value::int(1), sym], tok("r0"))],
        )
        .unwrap();
        db.register("t", rel);
        db.exec(
            "CREATE TABLE u (k2 NUM, w NUM); INSERT INTO u VALUES (1, 9);
             CREATE TABLE w (k3 NUM, z NUM); INSERT INTO w VALUES (1, 9);
             INSERT INTO w VALUES (2, 9); INSERT INTO w VALUES (3, 9)",
        )
        .unwrap();
        let sql = "SELECT w.z FROM w JOIN u ON w.k3 = u.k2 JOIN t ON u.k2 = t.k";
        let lowered = lower_query(&db, &parse_query(sql).unwrap()).unwrap();
        let plan = optimize(&lowered.plan, &Catalog::of(&db));
        // `t` has a symbolic column: the chain keeps its lowered shape.
        assert_eq!(plan, lowered.plan);
    }

    #[test]
    fn optimize_passes_malformed_plans_through_without_panicking() {
        // A hand-built plan with out-of-range column positions must flow
        // through the optimizer unrewritten (out-of-range counts as
        // symbolic, vetoing every rule) and surface as an error at
        // execution — never as a panic here.
        let db = db();
        let scan = lower_query(&db, &parse_query("SELECT b, a FROM big").unwrap())
            .unwrap()
            .plan;
        let lit = PlanOperand::Lit(aggprov_algebra::domain::Const::int(1));
        let bad_filter = Plan::Filter {
            input: Box::new(scan.clone()),
            pred: Predicate {
                left: PlanOperand::Col(99),
                op: CmpOp::Eq,
                right: lit.clone(),
            },
        };
        let out = optimize(&bad_filter, &Catalog::of(&db));
        assert_eq!(out, bad_filter, "malformed filter stays put");

        let bad_project = Plan::Filter {
            input: Box::new(Plan::Project {
                input: Box::new(scan),
                columns: vec![99],
                schema: Schema::new(["x"]).unwrap(),
            }),
            pred: Predicate {
                left: PlanOperand::Col(0),
                op: CmpOp::Eq,
                right: lit,
            },
        };
        let out = optimize(&bad_project, &Catalog::of(&db));
        assert_eq!(
            out, bad_project,
            "filter over a malformed projection stays put"
        );
    }

    #[test]
    fn catalog_snapshots_rows_and_groundness() {
        let db = db();
        let cat = Catalog::of(&db);
        assert_eq!(cat.table("big").unwrap().rows, 60);
        assert_eq!(cat.table("big").unwrap().ground_cols, vec![true, true]);
        assert!(cat.table("nope").is_none());
    }

    #[test]
    fn plan_restricted_catalog_skips_unreferenced_tables() {
        // Preparing a query must never pay a groundness scan over tables
        // the plan does not touch.
        let db = db();
        let lowered = lower_query(
            &db,
            &parse_query("SELECT e FROM small JOIN mid ON small.e = mid.c").unwrap(),
        )
        .unwrap();
        let cat = Catalog::of_plan(&db, &lowered.plan);
        assert!(cat.table("small").is_some());
        assert!(cat.table("mid").is_some());
        assert!(cat.table("big").is_none(), "big is not scanned");
    }

    #[test]
    fn render_shows_both_trees_via_plan_display() {
        let db = db();
        let stmt = db
            .prepare("SELECT big.a FROM big JOIN mid ON big.b = mid.c WHERE big.a < 5")
            .unwrap();
        let text = stmt.plan_display();
        assert!(text.contains("logical plan (as lowered):"), "{text}");
        assert!(text.contains("optimized plan:"), "{text}");
        assert!(text.contains("Join on big.b = mid.c"), "{text}");
        assert!(text.contains("Filter big.a < 5"), "{text}");
        // Pre-optimization the filter is above the join; optimized it is
        // below (deeper indentation).
        let logical = text.split("optimized plan:").next().unwrap();
        let optimized_part = text.split("optimized plan:").nth(1).unwrap();
        let depth = |part: &str| {
            part.lines()
                .find(|l| l.contains("Filter"))
                .map(|l| l.len() - l.trim_start().len())
                .unwrap()
        };
        assert!(depth(optimized_part) > depth(logical), "{text}");
    }
}
