//! The logical-plan IR: queries lowered from the AST with name resolution,
//! schema computation and validation done **once**, at prepare time.
//!
//! [`lower_query`] turns a parsed [`Query`] into a [`Plan`] tree of
//! Scan / Filter / Project / Join / Aggregate / SetOp nodes. Every node
//! carries its resolved output [`Schema`]; predicates refer to columns by
//! position, aggregate specs and group-by columns by their resolved
//! internal names. Executing a plan (see [`crate::exec`]) therefore never
//! re-parses SQL or re-resolves identifiers — the architectural seam for
//! prepared-statement reuse, plan-level optimization and caching.
//!
//! Name handling matches the paper-facing SQL surface: scanned tables are
//! renamed wholesale to `alias.column` (one schema-level rename, not a
//! per-column loop), unqualified references resolve by unique suffix match,
//! and aggregate outputs take their `AS` alias (or a `FUNC(col)` display
//! name) right at the [`Plan::Aggregate`] node so `HAVING` can see them.

use crate::annot::ParseAnnotation;
use crate::ast::{
    AggArg, AggFunc, CmpOp, ColRef, Condition, Lit, Operand, Query, SelectItem, SelectStmt, SetOp,
    TableRef, TableSource,
};
use crate::database::Database;
use aggprov_algebra::domain::Const;
use aggprov_algebra::monoid::MonoidKind;
use aggprov_core::annotation::AggAnnotation;
use aggprov_core::ops::AggSpec;
use aggprov_krel::error::{RelError, Result};
use aggprov_krel::schema::Schema;

fn unsup(msg: impl Into<String>) -> RelError {
    RelError::Unsupported(msg.into())
}

/// The internal column name of the constant-1 column used by COUNT/AVG.
pub(crate) const ONE_COL: &str = "__one";

/// The deepest plan [`lower_query`] builds, in operators stacked on one
/// root-to-leaf path. Optimization, execution and `Drop` all recurse
/// once per level (execution runs a chain of stacked filters in one
/// frame), so without a cap one statement of `AND` conjuncts, joined
/// tables, `UNION` arms or nested derived tables overflows the stack and
/// aborts the process. Sized so the deepest accepted plan runs well
/// inside a 2 MiB thread stack in a release build.
pub const MAX_PLAN_DEPTH: usize = 512;

/// A resolved operand of a [`Predicate`]: a column position, a constant, or
/// a `$n` parameter slot.
#[derive(Clone, PartialEq, Debug)]
pub enum PlanOperand {
    /// The value at a column position of the input relation.
    Col(usize),
    /// A constant.
    Lit(Const),
    /// The `$n` placeholder (0-based slot; surface syntax is 1-based).
    Param(usize),
}

/// A fully resolved comparison predicate of a [`Plan::Filter`] node.
#[derive(Clone, PartialEq, Debug)]
pub struct Predicate {
    /// Left operand.
    pub left: PlanOperand,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right operand.
    pub right: PlanOperand,
}

/// One aggregate computation of a [`Plan::Aggregate`] node.
#[derive(Clone, PartialEq, Debug)]
pub struct PlanAgg {
    /// The aggregation monoid.
    pub kind: MonoidKind,
    /// The resolved input column name.
    pub attr: String,
    /// The output column name.
    pub out: String,
}

impl PlanAgg {
    /// The borrowed spec the aggregation operators take.
    pub(crate) fn spec(&self) -> AggSpec<'_> {
        AggSpec {
            kind: self.kind,
            attr: &self.attr,
            out: &self.out,
        }
    }
}

/// An `AVG` output computed from its SUM/COUNT parts after aggregation.
#[derive(Clone, PartialEq, Debug)]
pub struct AvgSpec {
    /// The internal SUM column.
    pub sum: String,
    /// The internal COUNT column.
    pub count: String,
    /// The output column name.
    pub out: String,
}

/// A logical query plan node. Every node knows its output [`Schema`].
#[derive(Clone, PartialEq, Debug)]
pub enum Plan {
    /// A base-table scan, columns renamed wholesale to `alias.column`.
    ///
    /// Cost: `O(1)` — the relation tuple store is `Arc`-shared
    /// (copy-on-write), so a scan is a cheap handle clone plus a
    /// schema-level rename, never a deep copy of the table.
    Scan {
        /// The catalog table name.
        table: String,
        /// The alias-prefixed output schema (resolved at prepare time).
        schema: Schema,
    },
    /// A derived table: a subquery in `FROM`, re-aliased wholesale.
    Derived {
        /// The subquery plan.
        input: Box<Plan>,
        /// The alias-prefixed output schema.
        schema: Schema,
    },
    /// Cartesian product of two inputs (comma-separated `FROM`).
    Product {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// The concatenated schema.
        schema: Schema,
    },
    /// `JOIN … ON` with resolved equality column pairs.
    ///
    /// Cost: executed as a hash equi-join on the ground join keys that
    /// indexes the input with fewer rows (the right one on a tie) and
    /// probes with the other — `O(|L| + |R|)` expected, the index
    /// `O(min(|L|, |R|))` in memory whatever the plan's orientation — plus a
    /// token-weighted nested loop over tuples whose join key holds a
    /// symbolic aggregate (`O(|ground|·|symbolic| + |symbolic|²)`).
    Join {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// Resolved `(left column, right column)` equality pairs.
        on: Vec<(String, String)>,
        /// The concatenated schema.
        schema: Schema,
    },
    /// A tokened selection (`WHERE` / `HAVING` conjunct).
    Filter {
        /// Input plan.
        input: Box<Plan>,
        /// The resolved predicate.
        pred: Predicate,
    },
    /// Appends the constant-1 column for COUNT/AVG.
    AddUnitColumn {
        /// Input plan.
        input: Box<Plan>,
        /// The input schema extended with `ONE_COL`.
        schema: Schema,
    },
    /// Grouping/aggregation (`GROUP BY` + aggregate select items, or
    /// whole-relation aggregation when `group_by` is empty).
    ///
    /// Cost: hash-partitioned grouping on ground group keys (`O(n)`
    /// expected, plus tensor accumulation); symbolic group keys form
    /// token-weighted candidate groups against every hash bucket.
    Aggregate {
        /// Input plan.
        input: Box<Plan>,
        /// Resolved grouping column names.
        group_by: Vec<String>,
        /// Aggregate computations, in output order.
        aggs: Vec<PlanAgg>,
        /// AVG columns derived from SUM/COUNT pairs.
        avg: Vec<AvgSpec>,
        /// The output schema (`group_by ++ agg outputs ++ avg outputs`).
        schema: Schema,
    },
    /// The final projection: picks columns by position and installs the
    /// display-name schema in one schema-level rename.
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// Input column positions, in output order.
        columns: Vec<usize>,
        /// The display schema.
        schema: Schema,
    },
    /// `UNION` / `EXCEPT`. The right side is aligned to the left schema by
    /// position with a single schema-level rename (SQL set-op semantics).
    ///
    /// Cost: ground tuples merge additively in `O(n log n)`; only tuples
    /// carrying symbolic aggregates pay the §4.3 token cross terms.
    SetOp {
        /// The operation.
        op: SetOp,
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// The output schema (the left input's schema).
        schema: Schema,
    },
}

impl Plan {
    /// The output schema of this node.
    pub fn schema(&self) -> &Schema {
        match self {
            Plan::Scan { schema, .. }
            | Plan::Derived { schema, .. }
            | Plan::Product { schema, .. }
            | Plan::Join { schema, .. }
            | Plan::AddUnitColumn { schema, .. }
            | Plan::Aggregate { schema, .. }
            | Plan::Project { schema, .. }
            | Plan::SetOp { schema, .. } => schema,
            Plan::Filter { input, .. } => input.schema(),
        }
    }

    /// The number of nodes in the plan (for tests and inspection).
    pub fn node_count(&self) -> usize {
        1 + match self {
            Plan::Scan { .. } => 0,
            Plan::Derived { input, .. }
            | Plan::Filter { input, .. }
            | Plan::AddUnitColumn { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Project { input, .. } => input.node_count(),
            Plan::Product { left, right, .. }
            | Plan::Join { left, right, .. }
            | Plan::SetOp { left, right, .. } => left.node_count() + right.node_count(),
        }
    }

    /// The base-table names this plan scans, deduplicated. The plan
    /// cache keys its per-table invalidation and version dependencies on
    /// this set; the optimizer restricts its catalog snapshot to it.
    pub fn scanned_tables(&self) -> std::collections::BTreeSet<String> {
        fn walk(plan: &Plan, out: &mut std::collections::BTreeSet<String>) {
            match plan {
                Plan::Scan { table, .. } => {
                    out.insert(table.clone());
                }
                Plan::Derived { input, .. }
                | Plan::Filter { input, .. }
                | Plan::AddUnitColumn { input, .. }
                | Plan::Aggregate { input, .. }
                | Plan::Project { input, .. } => walk(input, out),
                Plan::Product { left, right, .. }
                | Plan::Join { left, right, .. }
                | Plan::SetOp { left, right, .. } => {
                    walk(left, out);
                    walk(right, out);
                }
            }
        }
        let mut names = std::collections::BTreeSet::new();
        walk(self, &mut names);
        names
    }

    /// The number of nodes that shard their ground partition across worker
    /// threads at execution (join, grouped aggregation, projection,
    /// `UNION`) — `EXPLAIN`-style introspection for sizing
    /// `AGGPROV_THREADS` against a prepared plan. `EXCEPT` runs through
    /// the difference operator, *ungrouped* aggregation is a single linear
    /// fold (`agg_all`), and products/filters stay on linear single-pass
    /// paths, so none of those count.
    ///
    /// The count is a static *upper bound*: some fast paths are
    /// data-dependent and only decided inside the kernels at execution
    /// time (a projection over symbol-free rows is a column-view remap;
    /// the same node over symbolic values runs the sharded §4.3 fold),
    /// so a counted node may still execute serially on friendly data.
    pub fn partition_parallel_nodes(&self) -> usize {
        let own = match self {
            Plan::Join { .. } | Plan::Project { .. } => 1,
            Plan::Aggregate { group_by, .. } => usize::from(!group_by.is_empty()),
            Plan::SetOp {
                op: SetOp::Union, ..
            } => 1,
            _ => 0,
        };
        own + match self {
            Plan::Scan { .. } => 0,
            Plan::Derived { input, .. }
            | Plan::Filter { input, .. }
            | Plan::AddUnitColumn { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Project { input, .. } => input.partition_parallel_nodes(),
            Plan::Product { left, right, .. }
            | Plan::Join { left, right, .. }
            | Plan::SetOp { left, right, .. } => {
                left.partition_parallel_nodes() + right.partition_parallel_nodes()
            }
        }
    }
}

/// A lowered query: the plan plus the number of `$n` parameter slots it
/// expects (the highest placeholder number seen).
#[derive(Clone, PartialEq, Debug)]
pub struct LoweredQuery {
    /// The root plan node.
    pub plan: Plan,
    /// How many parameters `execute_with` must supply.
    pub param_count: usize,
}

/// Lowers a parsed query to a logical plan against the database's current
/// catalog: resolves every table and column name, computes every node's
/// schema, and validates grouping/aggregation — all exactly once.
pub fn lower_query<A>(db: &Database<A>, q: &Query) -> Result<LoweredQuery>
where
    A: AggAnnotation + ParseAnnotation,
{
    let mut lowerer = Lowerer {
        db,
        params_seen: std::collections::BTreeSet::new(),
        depth: 0,
    };
    let plan = lowerer.query(q)?;
    let param_count = lowerer.params_seen.last().copied().unwrap_or(0);
    // Reject numbering gaps eagerly: a caller who wrote `$2` but never
    // `$1` has almost certainly miscounted, and accepting the gap would
    // silently swallow one bound value.
    for n in 1..=param_count {
        if !lowerer.params_seen.contains(&n) {
            return Err(unsup(format!(
                "query references ${param_count} but never ${n}; parameters must be \
                 numbered contiguously from $1"
            )));
        }
    }
    Ok(LoweredQuery { plan, param_count })
}

struct Lowerer<'db, A: AggAnnotation + ParseAnnotation> {
    db: &'db Database<A>,
    params_seen: std::collections::BTreeSet<usize>,
    /// How many plan nodes will sit above whatever is lowered next — the
    /// plan is built bottom-up, but its shape is known top-down.
    depth: usize,
}

/// Resolves a column reference against a schema: exact match first, then a
/// unique `.column` suffix match for unqualified references.
pub(crate) fn resolve_col(schema: &Schema, col: &ColRef) -> Result<String> {
    let want = col.display();
    if schema.contains(&want) {
        return Ok(want);
    }
    if col.table.is_none() {
        let suffix = format!(".{}", col.column);
        let matches: Vec<&str> = schema
            .attrs()
            .iter()
            .map(|a| a.name())
            .filter(|n| n.ends_with(suffix.as_str()))
            .collect();
        match matches.as_slice() {
            [only] => return Ok(only.to_string()),
            [] => {}
            _ => {
                return Err(unsup(format!(
                    "ambiguous column `{}` (candidates: {})",
                    col.column,
                    matches.join(", ")
                )))
            }
        }
    }
    Err(RelError::UnknownAttr(want))
}

/// For `SELECT *`: strips the alias prefix when the bare column name is
/// unambiguous.
fn bare_display(schema: &Schema, internal: &str) -> String {
    let bare = internal.rsplit('.').next().unwrap_or(internal);
    let suffix = format!(".{bare}");
    let count = schema
        .attrs()
        .iter()
        .filter(|a| a.name() == bare || a.name().ends_with(suffix.as_str()))
        .count();
    if count == 1 {
        bare.to_string()
    } else {
        internal.to_string()
    }
}

fn lit_to_const(lit: &Lit) -> Const {
    match lit {
        Lit::Num(n) => Const::Num(*n),
        Lit::Str(s) => Const::str(s),
        Lit::Bool(b) => Const::Bool(*b),
    }
}

/// The planned output shape of a `SELECT` list.
struct Planned {
    /// Internal output column per select item, in order.
    internal: Vec<String>,
    /// Display name per select item, in order.
    display: Vec<String>,
}

impl<A: AggAnnotation + ParseAnnotation> Lowerer<'_, A> {
    /// Runs `lower` with `nodes` more plan nodes accounted for above
    /// whatever it lowers, refusing a plan deeper than [`MAX_PLAN_DEPTH`]
    /// before any of it is built (or recursed into).
    fn under<T>(&mut self, nodes: usize, lower: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        self.depth += nodes;
        if self.depth > MAX_PLAN_DEPTH {
            return Err(unsup(format!(
                "query plan is deeper than {MAX_PLAN_DEPTH} operators \
                 (nested subqueries, set-operation arms, joined tables and \
                 AND conjuncts each add one)"
            )));
        }
        let lowered = lower(self)?;
        self.depth -= nodes;
        Ok(lowered)
    }

    fn query(&mut self, q: &Query) -> Result<Plan> {
        match q {
            Query::Select(s) => {
                // What this block stacks above its first FROM item: the
                // product/join chain, one Filter per conjunct, the
                // Project, and (counted whether or not the block
                // aggregates) AddUnitColumn + Aggregate.
                let stacked = s.from.len() + s.joins.len() + s.where_.len() + s.having.len() + 2;
                self.under(stacked, |lowerer| lowerer.select(s))
            }
            Query::SetOp { op, left, right } => {
                let (l, r) = self.under(1, |lowerer| {
                    Ok((lowerer.query(left)?, lowerer.query(right)?))
                })?;
                if l.schema().arity() != r.schema().arity() {
                    return Err(RelError::SchemaMismatch {
                        left: l.schema().to_string(),
                        right: r.schema().to_string(),
                        op: "set operation (arities differ)",
                    });
                }
                let schema = l.schema().clone();
                Ok(Plan::SetOp {
                    op: *op,
                    left: Box::new(l),
                    right: Box::new(r),
                    schema,
                })
            }
        }
    }

    /// Lowers one `FROM` table reference: a scan or a derived subquery,
    /// with all columns renamed to `alias.column` in one step.
    fn table_ref(&mut self, tref: &TableRef) -> Result<Plan> {
        let alias = tref.effective_alias();
        if alias.contains('.') {
            return Err(unsup(format!("alias `{alias}` may not contain `.`")));
        }
        let prefixed = |base: &Schema| -> Result<Schema> {
            Schema::new(
                base.attrs()
                    .iter()
                    .map(|a| format!("{alias}.{}", a.name()))
                    .collect::<Vec<_>>()
                    .iter()
                    .map(|s| s.as_str()),
            )
        };
        match &tref.source {
            TableSource::Named(name) => Ok(Plan::Scan {
                table: name.clone(),
                schema: prefixed(self.db.table(name)?.schema())?,
            }),
            TableSource::Subquery(q) => {
                let sub = self.under(1, |lowerer| lowerer.query(q))?;
                let schema = prefixed(sub.schema())?;
                Ok(Plan::Derived {
                    input: Box::new(sub),
                    schema,
                })
            }
        }
    }

    fn operand(&mut self, schema: &Schema, operand: &Operand) -> Result<PlanOperand> {
        Ok(match operand {
            Operand::Col(c) => PlanOperand::Col(schema.index_of(&resolve_col(schema, c)?)?),
            Operand::Lit(l) => PlanOperand::Lit(lit_to_const(l)),
            Operand::Param(n) => {
                self.params_seen.insert(*n as usize);
                PlanOperand::Param(*n as usize - 1)
            }
        })
    }

    fn filter(&mut self, input: Plan, cond: &Condition) -> Result<Plan> {
        let pred = Predicate {
            left: self.operand(input.schema(), &cond.left)?,
            op: cond.op,
            right: self.operand(input.schema(), &cond.right)?,
        };
        Ok(Plan::Filter {
            input: Box::new(input),
            pred,
        })
    }

    fn select(&mut self, s: &SelectStmt) -> Result<Plan> {
        let Some((first, rest)) = s.from.split_first() else {
            return Err(unsup("FROM clause is required"));
        };
        // FROM and JOIN.
        let mut plan = self.table_ref(first)?;
        for tref in rest {
            let right = self.table_ref(tref)?;
            let schema = plan.schema().concat(right.schema())?;
            plan = Plan::Product {
                left: Box::new(plan),
                right: Box::new(right),
                schema,
            };
        }
        for join in &s.joins {
            let right = self.table_ref(&join.table)?;
            let mut on: Vec<(String, String)> = Vec::new();
            for (l, r) in &join.on {
                // Orient each pair: one side in the accumulated relation,
                // the other in the joined table.
                let (lc, rc) = match (
                    resolve_col(plan.schema(), l),
                    resolve_col(right.schema(), r),
                ) {
                    (Ok(a), Ok(b)) => (a, b),
                    _ => {
                        let a = resolve_col(plan.schema(), r)?;
                        let b = resolve_col(right.schema(), l)?;
                        (a, b)
                    }
                };
                on.push((lc, rc));
            }
            let schema = plan.schema().concat(right.schema())?;
            plan = Plan::Join {
                left: Box::new(plan),
                right: Box::new(right),
                on,
                schema,
            };
        }
        // WHERE.
        for cond in &s.where_ {
            plan = self.filter(plan, cond)?;
        }

        let has_agg = s.items.iter().any(|i| matches!(i, SelectItem::Agg(..)));

        let planned = if has_agg || !s.group_by.is_empty() {
            let (aggregated, planned) = self.aggregate(plan, s)?;
            plan = aggregated;
            planned
        } else {
            if !s.having.is_empty() {
                return Err(unsup("HAVING requires aggregation"));
            }
            self.plain_items(plan.schema(), s)?
        };

        // HAVING (aggregate outputs are already named).
        for cond in &s.having {
            plan = self.filter(plan, cond)?;
        }

        // Final projection straight to display names: positions resolved
        // here, the display schema installed in one schema-level rename.
        let columns: Vec<usize> = planned
            .internal
            .iter()
            .map(|n| plan.schema().index_of(n))
            .collect::<Result<_>>()?;
        let schema = Schema::new(planned.display.iter().map(|s| s.as_str()))?;
        Ok(Plan::Project {
            input: Box::new(plan),
            columns,
            schema,
        })
    }

    /// Plans SELECT items when no aggregation is involved.
    fn plain_items(&mut self, schema: &Schema, s: &SelectStmt) -> Result<Planned> {
        let mut internal = Vec::new();
        let mut display = Vec::new();
        for item in &s.items {
            match item {
                SelectItem::Star => {
                    for a in schema.attrs() {
                        internal.push(a.name().to_string());
                        display.push(bare_display(schema, a.name()));
                    }
                }
                SelectItem::Col(c, alias) => {
                    let name = resolve_col(schema, c)?;
                    internal.push(name);
                    display.push(alias.clone().unwrap_or_else(|| c.column.clone()));
                }
                SelectItem::Agg(..) => {
                    return Err(RelError::Internal("plain path has no aggregates".into()))
                }
            }
        }
        Ok(Planned { internal, display })
    }

    /// Lowers grouping/aggregation and names the outputs.
    fn aggregate(&mut self, input: Plan, s: &SelectStmt) -> Result<(Plan, Planned)> {
        // Resolve grouping columns.
        let group_by: Vec<String> = s
            .group_by
            .iter()
            .map(|c| resolve_col(input.schema(), c))
            .collect::<Result<_>>()?;

        let needs_one = s
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Agg(AggFunc::Count | AggFunc::Avg, _, _)));
        let input = if needs_one {
            let mut names: Vec<String> = input
                .schema()
                .attrs()
                .iter()
                .map(|a| a.name().to_string())
                .collect();
            names.push(ONE_COL.to_string());
            let schema = Schema::new(names.iter().map(|s| s.as_str()))?;
            Plan::AddUnitColumn {
                input: Box::new(input),
                schema,
            }
        } else {
            input
        };

        let mut aggs: Vec<PlanAgg> = Vec::new();
        let mut avg: Vec<AvgSpec> = Vec::new();
        let mut internal = Vec::new();
        let mut display = Vec::new();

        for (i, item) in s.items.iter().enumerate() {
            match item {
                SelectItem::Star => {
                    return Err(unsup("`*` cannot be mixed with aggregation; list columns"))
                }
                SelectItem::Col(c, alias) => {
                    let name = resolve_col(input.schema(), c)?;
                    if !group_by.contains(&name) {
                        return Err(unsup(format!(
                            "column `{}` must appear in GROUP BY or inside an aggregate",
                            c.display()
                        )));
                    }
                    internal.push(name);
                    display.push(alias.clone().unwrap_or_else(|| c.column.clone()));
                }
                SelectItem::Agg(func, arg, alias) => {
                    let (attr, arg_name) = match arg {
                        AggArg::Star => {
                            if !matches!(func, AggFunc::Count) {
                                return Err(unsup(format!("{}(*) is not supported", func.name())));
                            }
                            (ONE_COL.to_string(), "*".to_string())
                        }
                        AggArg::Col(c) => (resolve_col(input.schema(), c)?, c.display()),
                    };
                    let out = alias
                        .clone()
                        .unwrap_or_else(|| format!("{}({})", func.name(), arg_name));
                    match func {
                        AggFunc::Count => aggs.push(PlanAgg {
                            kind: MonoidKind::Sum,
                            attr: ONE_COL.to_string(),
                            out: out.clone(),
                        }),
                        AggFunc::Avg => {
                            let sum = format!("__avg_sum_{i}");
                            let count = format!("__avg_cnt_{i}");
                            aggs.push(PlanAgg {
                                kind: MonoidKind::Sum,
                                attr,
                                out: sum.clone(),
                            });
                            aggs.push(PlanAgg {
                                kind: MonoidKind::Sum,
                                attr: ONE_COL.to_string(),
                                out: count.clone(),
                            });
                            avg.push(AvgSpec {
                                sum,
                                count,
                                out: out.clone(),
                            });
                        }
                        _ => aggs.push(PlanAgg {
                            kind: agg_kind(*func),
                            attr,
                            out: out.clone(),
                        }),
                    }
                    internal.push(out.clone());
                    display.push(out);
                }
            }
        }

        // The aggregate node's schema: group columns, then aggregate
        // outputs, then derived AVG outputs.
        let mut names: Vec<String> = group_by.clone();
        names.extend(aggs.iter().map(|a| a.out.clone()));
        names.extend(avg.iter().map(|a| a.out.clone()));
        let schema = Schema::new(names.iter().map(|s| s.as_str()))?;

        let plan = Plan::Aggregate {
            input: Box::new(input),
            group_by,
            aggs,
            avg,
            schema,
        };
        Ok((plan, Planned { internal, display }))
    }
}

fn agg_kind(func: AggFunc) -> MonoidKind {
    match func {
        AggFunc::Sum | AggFunc::Count | AggFunc::Avg => MonoidKind::Sum,
        AggFunc::Min => MonoidKind::Min,
        AggFunc::Max => MonoidKind::Max,
        AggFunc::Prod => MonoidKind::Prod,
        AggFunc::BoolOr => MonoidKind::Or,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
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

    fn lower(db: &ProvDb, sql: &str) -> LoweredQuery {
        lower_query(db, &parse_query(sql).unwrap()).unwrap()
    }

    #[test]
    fn scan_schemas_are_alias_prefixed() {
        let db = db();
        let lowered = lower(&db, "SELECT emp FROM r");
        let Plan::Project { input, schema, .. } = &lowered.plan else {
            panic!("expected a projection root, got {:?}", lowered.plan)
        };
        assert_eq!(schema.to_string(), "emp");
        assert_eq!(input.schema().to_string(), "r.emp, r.dept, r.sal");
    }

    #[test]
    fn group_by_plans_resolve_names_once() {
        let db = db();
        let lowered = lower(
            &db,
            "SELECT dept, SUM(sal) AS total FROM r GROUP BY dept HAVING total = 25",
        );
        assert_eq!(lowered.param_count, 0);
        assert_eq!(lowered.plan.schema().to_string(), "dept, total");
        // Root is Project over Filter (HAVING) over Aggregate.
        let Plan::Project { input, .. } = &lowered.plan else {
            panic!()
        };
        let Plan::Filter { input, pred } = input.as_ref() else {
            panic!()
        };
        assert_eq!(pred.left, PlanOperand::Col(1), "HAVING sees the agg output");
        let Plan::Aggregate { group_by, aggs, .. } = input.as_ref() else {
            panic!()
        };
        assert_eq!(group_by, &["r.dept".to_string()]);
        assert_eq!(aggs.len(), 1);
        assert_eq!(aggs[0].out, "total");
    }

    #[test]
    fn params_are_counted_and_indexed() {
        let db = db();
        let lowered = lower(&db, "SELECT emp FROM r WHERE sal >= $2 AND dept = $1");
        assert_eq!(lowered.param_count, 2);
    }

    #[test]
    fn unknown_names_fail_at_lowering_time() {
        let db = db();
        let q = parse_query("SELECT nope FROM r").unwrap();
        assert!(lower_query(&db, &q).is_err());
        let q = parse_query("SELECT emp FROM missing").unwrap();
        assert!(lower_query(&db, &q).is_err());
    }

    #[test]
    fn set_ops_take_the_left_schema() {
        let db = db();
        let lowered = lower(&db, "SELECT dept FROM r EXCEPT SELECT dept FROM heads");
        let Plan::SetOp { schema, .. } = &lowered.plan else {
            panic!()
        };
        assert_eq!(schema.to_string(), "dept");
    }
}
