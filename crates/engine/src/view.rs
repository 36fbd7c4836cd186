//! Materialized views with incremental semiring-delta maintenance.
//!
//! [`Database::materialize`] classifies the query's plan, evaluates it
//! once, retains the annotated result (provenance polynomials intact), and
//! registers the view in the current epoch. Every subsequent mutation then
//! propagates an annotation **delta** through the stored plan instead of
//! re-executing:
//!
//! - `INSERT` builds a one-row delta database (the scanned table replaced
//!   by just the new row, every other table at its current state) and runs
//!   the stored optimized plan over it. Because every incremental plan
//!   scans each base table at most once, the plan is *linear* in that
//!   table's annotations — `P(T + Δ) = P(T) + P(Δ)` — so the delta result
//!   merges additively into the view.
//! - [`Database::delete_tokens`] fires provenance tokens (the paper's
//!   deletion propagation: set a token to `0` and renormalize). The same
//!   homomorphism that maps the base tables maps the view's retained
//!   group state — coefficients of deleted members vanish under the
//!   tensor's canonicalization — and only the touched groups re-render.
//!
//! ## Maintenance strategies
//!
//! The classifier inspects the *optimized* plan at materialization time,
//! before anything runs — the class decides what is run:
//!
//! - **SPJ** (no aggregation, no set ops, each table scanned once, all
//!   base tables ground): deltas merge additively into the view relation.
//! - **Grouped aggregation** over such an SPJ input, with every group key
//!   surviving to the view's output: the view keeps a **group state** —
//!   one row per group holding the raw (un-normalized)
//!   [`Value::Agg`] tensors and the pre-δ membership sums — updated by
//!   [`ops::group_state_update`] and rendered by [`ops::delta_collapse`],
//!   both oracled against their literal `specops` twins. Materializing
//!   one runs the aggregate's *input* and folds it **once**, into the
//!   state; the view's relation is the rendered state, not a second run of
//!   the `GROUP BY` (a debug build runs that too, as an assertion — see
//!   `build`).
//! - Anything else (`HAVING`, `AVG`, ungrouped aggregates, set ops,
//!   self-joins, symbolic base tables) degrades to **recomputation**:
//!   still maintained eagerly and still correct, just not O(delta).
//!
//! A maintenance failure never poisons the base mutation: the view is
//! marked *broken* (reads report the stored reason) and the `INSERT` /
//! `delete_tokens` itself succeeds.

use super::{
    next_version, scan_ground_cols, CachedStatement, Database, DbSnapshot, EpochTables, PlanCache,
};
use crate::annot::ParseAnnotation;
use crate::exec::execute_plan;
use crate::plan::{Plan, PlanAgg};
use crate::result::{deleted_vars, deletion_hom};
use aggprov_algebra::poly::NatPoly;
use aggprov_algebra::semiring::CommutativeSemiring;
use aggprov_core::annotation::AggAnnotation;
use aggprov_core::eval::{map_hom_mk_where, row_mentions};
use aggprov_core::ops::{self, AggSpec, MKRel};
use aggprov_core::par::ExecOptions;
use aggprov_core::{Prov, Value};
use aggprov_krel::error::{RelError, Result};
use aggprov_krel::relation::{Merge, Relation, Tuple};
use aggprov_krel::schema::Schema;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// How a materialized view is kept current under mutations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MaintenanceStrategy {
    /// Mutations propagate an annotation delta through the stored plan —
    /// O(delta · groups), never a re-execution.
    Incremental,
    /// Mutations re-execute the stored plan (the plan shape or a symbolic
    /// base table rules delta maintenance out; the view stays correct).
    Recompute,
}

/// The retained delta-maintenance machinery of one grouped-aggregation
/// view.
#[derive(Clone, Debug)]
struct AggState<A: AggAnnotation> {
    /// The `Aggregate` node's input subtree of the optimized plan: the
    /// delta pipeline (one table swapped for the delta row) runs this.
    input: Arc<Plan>,
    /// The resolved grouping column names (in the input schema).
    group_by: Vec<String>,
    /// The aggregate computations, in state-column order.
    aggs: Vec<PlanAgg>,
    /// For each view output column, the position it reads in the collapsed
    /// aggregate row (the composed root projection; retains every key).
    out_cols: Vec<usize>,
    /// The group state: `group keys ++ raw Value::Agg cells`, annotations
    /// the pre-δ membership sums (see [`ops::group_state_update`]).
    state: MKRel<A>,
}

impl<A: AggAnnotation> AggState<A> {
    /// Folds a delta of the aggregate's input into the group state.
    fn fold(&mut self, delta: &MKRel<A>) -> Result<()> {
        let group_refs: Vec<&str> = self.group_by.iter().map(|s| s.as_str()).collect();
        let specs: Vec<AggSpec<'_>> = self.aggs.iter().map(PlanAgg::spec).collect();
        let placeholder = Relation::empty(self.state.schema().clone());
        let taken = std::mem::replace(&mut self.state, placeholder);
        self.state = ops::group_state_update(taken, delta, &group_refs, &specs)?;
        Ok(())
    }
}

/// How the view's relation is brought up to date after a mutation.
#[derive(Clone, Debug)]
enum Maint<A: AggAnnotation> {
    /// Re-execute the stored plan.
    Recompute,
    /// Aggregate-free linear plan: delta results merge additively.
    Spj,
    /// Grouped aggregation: fold deltas into the group state.
    Agg(AggState<A>),
}

/// One materialized view, as stored in the epoch's view map.
#[derive(Clone, Debug)]
pub(crate) struct ViewEntry<A: AggAnnotation> {
    /// The defining SQL (re-planned on [`Database::register`] refreshes).
    sql: String,
    /// The full optimized plan (the recomputation path).
    plan: Arc<Plan>,
    /// The base tables the view reads — its invalidation footprint.
    deps: Arc<[String]>,
    /// The maintenance machinery chosen at materialization time.
    maint: Maint<A>,
    /// The maintained result, provenance intact.
    rel: MKRel<A>,
    /// Set when maintenance failed: reads report the reason instead of a
    /// silently stale relation.
    broken: Option<String>,
}

fn unknown_view(name: &str) -> RelError {
    RelError::UnknownAttr(format!("view `{name}`"))
}

// ---------------------------------------------------------------------
// Classification
// ---------------------------------------------------------------------

/// Counts how often each base table is scanned (NOT deduplicated —
/// `Plan::scanned_tables` is — because a table scanned twice makes the
/// plan quadratic in that table's annotations and rules deltas out).
///
/// Every `Plan` variant has its own arm: a new plan node must make a
/// delta-maintenance decision (linear or recompute).
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
fn count_scans(plan: &Plan, counts: &mut BTreeMap<String, usize>) {
    match plan {
        Plan::Scan { table, .. } => *counts.entry(table.clone()).or_insert(0) += 1,
        Plan::Derived { input, .. }
        | Plan::Filter { input, .. }
        | Plan::AddUnitColumn { input, .. }
        | Plan::Aggregate { input, .. }
        | Plan::Project { input, .. } => count_scans(input, counts),
        Plan::Product { left, right, .. }
        | Plan::Join { left, right, .. }
        | Plan::SetOp { left, right, .. } => {
            count_scans(left, counts);
            count_scans(right, counts);
        }
    }
}

/// `true` if the plan contains an `Aggregate` or `SetOp` node anywhere —
/// the nodes that are not linear in a single table's annotations
/// (`EXCEPT` is the §5 difference guard; aggregation folds into tensors).
///
/// Every `Plan` variant has its own arm, for the same reason as in
/// `count_scans`.
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
fn contains_agg_or_setop(plan: &Plan) -> bool {
    match plan {
        Plan::Aggregate { .. } | Plan::SetOp { .. } => true,
        Plan::Scan { .. } => false,
        Plan::Derived { input, .. }
        | Plan::Filter { input, .. }
        | Plan::AddUnitColumn { input, .. }
        | Plan::Project { input, .. } => contains_agg_or_setop(input),
        Plan::Product { left, right, .. } | Plan::Join { left, right, .. } => {
            contains_agg_or_setop(left) || contains_agg_or_setop(right)
        }
    }
}

/// The shape an incrementally maintainable aggregation must have: a
/// single grouped `Aggregate` (no `AVG`, SPJ-only input) under a chain of
/// pure projections/re-aliasings that keeps every group key.
struct AggSkeleton<'p> {
    input: &'p Plan,
    group_by: &'p [String],
    aggs: &'p [PlanAgg],
    out_cols: Vec<usize>,
}

fn agg_skeleton(plan: &Plan) -> Option<AggSkeleton<'_>> {
    // `cols[i]` = the position in the *current* node's output that view
    // column `i` reads; composed downward through each projection.
    let mut cols: Vec<usize> = (0..plan.schema().arity()).collect();
    let mut cur = plan;
    loop {
        match cur {
            Plan::Project { input, columns, .. } => {
                let mut next = Vec::with_capacity(cols.len());
                for c in &cols {
                    next.push(*columns.get(*c)?);
                }
                cols = next;
                cur = input;
            }
            Plan::Derived { input, .. } => cur = input,
            Plan::Aggregate {
                input,
                group_by,
                aggs,
                avg,
                ..
            } => {
                // Ungrouped aggregation emits a row even for an empty
                // input (not delta-shaped); AVG renormalizes after the
                // fold; a nested aggregate breaks input linearity.
                if group_by.is_empty() || !avg.is_empty() || contains_agg_or_setop(input) {
                    return None;
                }
                // Every group key must survive to the view output, or two
                // state rows could render onto one view row — and semiring
                // annotations have no subtraction to take them apart
                // again.
                for key in 0..group_by.len() {
                    if !cols.contains(&key) {
                        return None;
                    }
                }
                return Some(AggSkeleton {
                    input,
                    group_by,
                    aggs,
                    out_cols: cols,
                });
            }
            _ => return None,
        }
    }
}

/// Classifies the optimized plan by its shape alone — no result is needed
/// — degrading to [`Maint::Recompute`] whenever delta soundness is not
/// syntactically evident. The grouped class comes back with its machinery
/// resolved and an **empty** group state; [`build`] folds the input into it.
fn classify<A: AggAnnotation + ParseAnnotation>(
    db: &Database<A>,
    optimized: &Plan,
) -> Result<Maint<A>> {
    let mut counts = BTreeMap::new();
    count_scans(optimized, &mut counts);
    let single_scan = counts.values().all(|&c| c == 1);
    // Symbolic base tables (registered, not INSERTed) are rare and make
    // delta linearity depend on value-level token algebra — recompute.
    let all_ground = counts.keys().all(|t| {
        db.epoch
            .tables
            .get(t)
            .is_some_and(|e| e.ground_cols.iter().all(|g| *g))
    });
    if !single_scan || !all_ground {
        return Ok(Maint::Recompute);
    }
    if !contains_agg_or_setop(optimized) {
        return Ok(Maint::Spj);
    }
    let Some(sk) = agg_skeleton(optimized) else {
        return Ok(Maint::Recompute);
    };
    let aggs = sk.aggs.to_vec();
    for g in sk.group_by {
        sk.input.schema().index_of(g)?;
    }
    let keys = sk.group_by.iter().map(String::as_str);
    let state_schema = Schema::new(keys.chain(aggs.iter().map(|a| a.out.as_str())))?;
    Ok(Maint::Agg(AggState {
        input: Arc::new(sk.input.clone()),
        group_by: sk.group_by.to_vec(),
        aggs,
        out_cols: sk.out_cols,
        state: Relation::empty(state_schema),
    }))
}

/// Builds a view from its planned statement: the maintenance machinery
/// [`classify`] chose and the view's relation, from **one** run of the
/// plan. `Recompute` and `Spj` views execute the full plan. A grouped view
/// executes only the aggregate's input subtree, folds it into the group
/// state (the whole input is the first "delta") and *renders* the relation
/// from that state: the `GROUP BY` the full plan would run is the same
/// keyed fold under [`ops::delta_collapse`], so running it too would sum
/// every group twice.
///
/// `render_view(state)` equals the executor's result by construction
/// ([`ops::group_by_opts`] *is* the collapsed state fold, and `out_cols`
/// is the composed root projection). The `debug_assert!` compares them
/// anyway: every debug-build test that materializes runs the full plan
/// beside the fold, a release build has no second fold, and
/// `view_maintenance_proptests` pins the equality over populated tables
/// in either profile.
fn build<A: AggAnnotation + ParseAnnotation>(
    db: &Database<A>,
    stmt: &CachedStatement,
    opts: &ExecOptions,
) -> Result<(Maint<A>, MKRel<A>)> {
    let mut maint = classify(db, &stmt.optimized)?;
    let rel = match &mut maint {
        Maint::Recompute | Maint::Spj => execute_plan(db, &stmt.optimized, &[], 0, opts)?,
        Maint::Agg(agg) => {
            let input = execute_plan(db, &agg.input, &[], 0, opts)?;
            agg.fold(&input)?;
            let rel = render_view(agg, stmt.optimized.schema())?;
            debug_assert!(
                execute_plan(db, &stmt.optimized, &[], 0, opts).is_ok_and(|full| full == rel),
                "the rendered group state is not the executor's result"
            );
            rel
        }
    };
    Ok((maint, rel))
}

// ---------------------------------------------------------------------
// Rendering and delta plumbing
// ---------------------------------------------------------------------

/// Renders the group state into the view's output relation: collapse
/// (normalize tensors, δ the membership sums, drop empty groups), then
/// apply the composed root projection. Injective on rows because
/// `out_cols` retains every group key.
fn render_view<A: AggAnnotation>(agg: &AggState<A>, out_schema: &Schema) -> Result<MKRel<A>> {
    let collapsed = ops::delta_collapse(&agg.state)?;
    let mut out = Relation::empty(out_schema.clone());
    for (t, k) in collapsed.iter() {
        out.add(t.project(&agg.out_cols), k.clone())?;
    }
    Ok(out)
}

/// The subset of state rows whose group key (the first `key_positions`
/// columns) is in `keys`.
fn state_rows_for<A: AggAnnotation>(
    state: &MKRel<A>,
    keys: &BTreeSet<Tuple<Value<A>>>,
    key_positions: &[usize],
) -> Result<MKRel<A>> {
    let mut out = Relation::empty(state.schema().clone());
    for (t, k) in state.iter() {
        if keys.contains(&t.project(key_positions)) {
            out.add(t, k.clone())?;
        }
    }
    Ok(out)
}

/// Replaces the view rows rendered from the `old_sub` state rows with
/// those rendered from `new_sub` — the touched-groups-only counterpart
/// of [`render_view`]. Sound because rendering is injective per group
/// (`out_cols` keeps every key), so the full render is the disjoint
/// union of per-group renders and a group's rows can be swapped in
/// place. This keeps per-mutation work O(touched groups), not O(view).
fn patch_rendered<A: AggAnnotation>(
    rel: &mut MKRel<A>,
    out_cols: &[usize],
    old_sub: &MKRel<A>,
    new_sub: &MKRel<A>,
) -> Result<()> {
    for (t, _) in ops::delta_collapse(old_sub)?.iter() {
        rel.remove(&t.project(out_cols));
    }
    for (t, k) in ops::delta_collapse(new_sub)?.iter() {
        rel.add(t.project(out_cols), k.clone())?;
    }
    Ok(())
}

/// A database whose epoch holds `table` replaced by the single delta row
/// and every other table at its current state — the input the linear
/// plans turn into a result delta.
fn delta_db<A: AggAnnotation + ParseAnnotation>(
    db: &Database<A>,
    table: &str,
    row: Tuple<Value<A>>,
    ann: A,
) -> Result<Database<A>> {
    let mut tables = db.epoch.tables.clone();
    let entry = tables
        .get_mut(table)
        .ok_or_else(|| RelError::UnknownAttr(format!("table `{table}`")))?;
    let mut delta = Relation::empty(entry.rel.schema().clone());
    delta.add(row, ann)?;
    entry.rel = delta;
    Ok(Database {
        epoch: Arc::new(EpochTables {
            tables,
            views: BTreeMap::new(),
        }),
        epoch_id: db.epoch_id,
        cache: Arc::new(PlanCache::default()),
    })
}

/// Applies one inserted row to one view, per its strategy.
fn apply_insert<A: AggAnnotation + ParseAnnotation>(
    db: &Database<A>,
    entry: &mut ViewEntry<A>,
    table: &str,
    row: Tuple<Value<A>>,
    ann: A,
    opts: &ExecOptions,
) -> Result<()> {
    match &mut entry.maint {
        Maint::Recompute => {
            entry.rel = execute_plan(db, &entry.plan, &[], 0, opts)?;
        }
        Maint::Spj => {
            let d = delta_db(db, table, row, ann)?;
            let delta = execute_plan(&d, &entry.plan, &[], 0, opts)?;
            // Additive merge: `Relation::add` sums annotations of equal
            // tuples and drops zero rows — exactly bag-semiring union.
            for (t, k) in delta.iter() {
                entry.rel.add(t, k.clone())?;
            }
        }
        Maint::Agg(agg) => {
            let d = delta_db(db, table, row, ann)?;
            let delta = execute_plan(&d, &agg.input, &[], 0, opts)?;
            if !delta.is_empty() {
                // The touched group keys, projected out of the delta rows.
                let mut gidx = Vec::with_capacity(agg.group_by.len());
                for g in &agg.group_by {
                    gidx.push(delta.schema().index_of(g)?);
                }
                let keys: BTreeSet<Tuple<Value<A>>> =
                    delta.iter().map(|(t, _)| t.project(&gidx)).collect();
                let key_positions: Vec<usize> = (0..gidx.len()).collect();
                let old_sub = state_rows_for(&agg.state, &keys, &key_positions)?;
                agg.fold(&delta)?;
                let new_sub = state_rows_for(&agg.state, &keys, &key_positions)?;
                patch_rendered(&mut entry.rel, &agg.out_cols, &old_sub, &new_sub)?;
            }
        }
    }
    Ok(())
}

/// The `INSERT` hook: propagates the new row into every live view that
/// depends on `table`. A per-view failure marks that view broken and
/// never fails the insert itself.
pub(super) fn maintain_after_insert<A: AggAnnotation + ParseAnnotation>(
    db: &mut Database<A>,
    table: &str,
    row: Tuple<Value<A>>,
    ann: A,
) -> Result<()> {
    let affected = dependents(db, table);
    if affected.is_empty() {
        return Ok(());
    }
    let opts = ExecOptions::from_env()?;
    for name in affected {
        let Some(mut entry) = Arc::make_mut(&mut db.epoch).views.remove(&name) else {
            continue;
        };
        if let Err(e) = apply_insert(db, &mut entry, table, row.clone(), ann.clone(), &opts) {
            entry.broken = Some(format!(
                "maintenance failed after INSERT into `{table}`: {e}"
            ));
        }
        Arc::make_mut(&mut db.epoch).views.insert(name, entry);
    }
    Ok(())
}

/// The live (non-broken) views that read `table`.
fn dependents<A: AggAnnotation + ParseAnnotation>(db: &Database<A>, table: &str) -> Vec<String> {
    db.epoch
        .views
        .iter()
        .filter(|(_, v)| v.broken.is_none() && v.deps.iter().any(|d| d == table))
        .map(|(n, _)| n.clone())
        .collect()
}

/// Marks every view depending on `table` broken (used by `DROP TABLE`,
/// where there is no state left to maintain against).
pub(super) fn break_dependents<A: AggAnnotation + ParseAnnotation>(
    db: &mut Database<A>,
    table: &str,
    why: &str,
) {
    let epoch = Arc::make_mut(&mut db.epoch);
    for v in epoch.views.values_mut() {
        if v.broken.is_none() && v.deps.iter().any(|d| d == table) {
            v.broken = Some(format!("depends on `{table}`: {why}"));
        }
    }
}

/// Re-materializes every view depending on `table` from its SQL — the
/// [`Database::register`] hook, where the table was replaced wholesale
/// and no delta exists. Re-plans, re-executes, and re-classifies (the
/// replacement may have changed groundness). Failures mark the view
/// broken.
pub(super) fn refresh_dependents<A: AggAnnotation + ParseAnnotation>(
    db: &mut Database<A>,
    table: &str,
) {
    let affected = dependents(db, table);
    for name in affected {
        let Some(mut entry) = Arc::make_mut(&mut db.epoch).views.remove(&name) else {
            continue;
        };
        if let Err(e) = rematerialize(db, &mut entry) {
            entry.broken = Some(format!(
                "re-materialization after register(`{table}`) failed: {e}"
            ));
        }
        Arc::make_mut(&mut db.epoch).views.insert(name, entry);
    }
}

/// Re-plans and rebuilds a view from its defining SQL (classification
/// first, one run — see [`build`]), refreshing its plan, dependency set,
/// strategy, and relation in place.
fn rematerialize<A: AggAnnotation + ParseAnnotation>(
    db: &Database<A>,
    entry: &mut ViewEntry<A>,
) -> Result<()> {
    let stmt = db.cached_statement(&entry.sql)?;
    let opts = ExecOptions::from_env()?;
    let (maint, rel) = build(db, &stmt, &opts)?;
    let deps: Vec<String> = stmt.logical.scanned_tables().into_iter().collect();
    entry.plan = stmt.optimized;
    entry.deps = deps.into();
    entry.maint = maint;
    entry.rel = rel;
    entry.broken = None;
    Ok(())
}

// ---------------------------------------------------------------------
// Public surface
// ---------------------------------------------------------------------

impl<A: AggAnnotation + ParseAnnotation> Database<A> {
    /// Materializes `sql` as the view `name`: classifies its plan,
    /// evaluates it once — a grouped incremental view by folding the
    /// aggregate's input into its group state and rendering the result
    /// from that, every other view by executing the plan — retains the
    /// annotated result, and maintains it under every subsequent mutation:
    /// incrementally when the plan shape allows (see
    /// [`view_strategy`](Database::view_strategy)), by eager
    /// recomputation otherwise.
    ///
    /// Views live in a namespace of their own (they never shadow a
    /// table), are part of the epoch ([`Database::snapshot`] freezes
    /// them), and cannot take `$n` parameters.
    ///
    /// ```
    /// use aggprov_engine::{MaintenanceStrategy, ProvDb};
    ///
    /// let mut db = ProvDb::new();
    /// db.exec("CREATE TABLE emp (dept TEXT, sal NUM)").unwrap();
    /// db.materialize("mass", "SELECT dept, SUM(sal) AS total FROM emp GROUP BY dept")
    ///     .unwrap();
    /// assert_eq!(db.view_strategy("mass").unwrap(), MaintenanceStrategy::Incremental);
    ///
    /// db.exec("INSERT INTO emp VALUES ('d1', 20) PROVENANCE p1").unwrap();
    /// db.exec("INSERT INTO emp VALUES ('d1', 10) PROVENANCE p2").unwrap();
    /// // The view tracked both inserts without re-running the query:
    /// assert_eq!(db.view("mass").unwrap().len(), 1);
    /// ```
    pub fn materialize(&mut self, name: &str, sql: &str) -> Result<()> {
        if self.epoch.views.contains_key(name) {
            return Err(RelError::DuplicateAttr(format!("view `{name}`")));
        }
        let stmt = self.cached_statement(sql)?;
        if stmt.param_count > 0 {
            return Err(RelError::Unsupported(
                "materialized views cannot take `$n` parameters".into(),
            ));
        }
        let opts = ExecOptions::from_env()?;
        let (maint, rel) = build(self, &stmt, &opts)?;
        let deps: Vec<String> = stmt.logical.scanned_tables().into_iter().collect();
        let entry = ViewEntry {
            sql: sql.to_string(),
            plan: stmt.optimized,
            deps: deps.into(),
            maint,
            rel,
            broken: None,
        };
        self.epoch_mut().views.insert(name.to_string(), entry);
        Ok(())
    }

    /// Drops the view `name`.
    pub fn drop_view(&mut self, name: &str) -> Result<()> {
        if !self.epoch.views.contains_key(name) {
            return Err(unknown_view(name));
        }
        self.epoch_mut().views.remove(name);
        Ok(())
    }

    fn view_entry(&self, name: &str) -> Result<&ViewEntry<A>> {
        self.epoch.views.get(name).ok_or_else(|| unknown_view(name))
    }

    /// The maintained result of view `name`, provenance intact. Errors if
    /// the view is broken (its base table was dropped, or maintenance
    /// failed) rather than returning stale rows.
    pub fn view(&self, name: &str) -> Result<&MKRel<A>> {
        let entry = self.view_entry(name)?;
        match &entry.broken {
            Some(why) => Err(RelError::Unsupported(format!(
                "view `{name}` is broken: {why}"
            ))),
            None => Ok(&entry.rel),
        }
    }

    /// The names of all materialized views (broken ones included).
    pub fn view_names(&self) -> impl Iterator<Item = &str> {
        self.epoch.views.keys().map(|s| s.as_str())
    }

    /// How view `name` is maintained (chosen at materialization from the
    /// optimized plan's shape; see the module docs for the criteria).
    pub fn view_strategy(&self, name: &str) -> Result<MaintenanceStrategy> {
        Ok(match self.view_entry(name)?.maint {
            Maint::Recompute => MaintenanceStrategy::Recompute,
            Maint::Spj | Maint::Agg(_) => MaintenanceStrategy::Incremental,
        })
    }

    /// The SQL the view was materialized from.
    pub fn view_sql(&self, name: &str) -> Result<&str> {
        Ok(&self.view_entry(name)?.sql)
    }
}

impl Database<Prov> {
    /// Deletes source tuples by firing their provenance `tokens` — the
    /// paper's deletion propagation, applied to the database itself: every
    /// base-table annotation maps under the hom sending each fired token
    /// to `0` (rows whose annotation vanishes disappear), and every
    /// dependent view is delta-maintained — incremental views re-render
    /// only their touched groups, never re-executing their plan.
    ///
    /// The one-shot, result-level special case of this is
    /// [`ResultSet::delete_tokens`](crate::ResultSet::delete_tokens); the
    /// two agree bit for bit (an integration test pins the contract).
    pub fn delete_tokens<I, S>(&mut self, tokens: I) -> Result<()>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let deleted = deleted_vars(tokens);
        if deleted.is_empty() {
            return Ok(());
        }
        let h = deletion_hom(&deleted);
        let fired = |p: &NatPoly| p.vars().any(|v| deleted.contains(v));
        // 1) Fire the tokens in every base table. A row that mentions no
        //    fired token is carried over as is, and a table without such a
        //    row is not touched at all — the tables that come back are the
        //    precise invalidation footprint.
        let mut remapped: Vec<(String, MKRel<Prov>)> = Vec::new();
        for (name, entry) in &self.epoch.tables {
            if let Some(mapped) = map_hom_mk_where(&entry.rel, &fired, &h) {
                remapped.push((name.clone(), mapped));
            }
        }
        if remapped.is_empty() {
            return Ok(());
        }
        let changed: BTreeSet<String> = remapped.iter().map(|(n, _)| n.clone()).collect();
        for (name, rel) in remapped {
            self.cache.invalidate_table(&name);
            let version = next_version();
            let Some(entry) = self.tables_mut().get_mut(&name) else {
                continue;
            };
            // Token deletion never makes a ground column symbolic, so an
            // all-ground table keeps its flags without a rescan.
            if entry.ground_cols.iter().any(|g| !*g) {
                entry.ground_cols = scan_ground_cols(&rel);
            }
            entry.rel = rel;
            entry.version = version;
        }
        // 2) Maintain the views whose dependencies changed.
        let affected: Vec<String> = self
            .epoch
            .views
            .iter()
            .filter(|(_, v)| v.broken.is_none() && v.deps.iter().any(|d| changed.contains(d)))
            .map(|(n, _)| n.clone())
            .collect();
        if affected.is_empty() {
            return Ok(());
        }
        let opts = ExecOptions::from_env()?;
        for name in affected {
            let Some(mut entry) = Arc::make_mut(&mut self.epoch).views.remove(&name) else {
                continue;
            };
            if let Err(e) = apply_delete(self, &mut entry, &fired, &h, &opts) {
                entry.broken = Some(format!("maintenance failed after delete_tokens: {e}"));
            }
            Arc::make_mut(&mut self.epoch).views.insert(name, entry);
        }
        Ok(())
    }
}

/// Applies a token-deletion hom to one view, per its strategy.
fn apply_delete(
    db: &Database<Prov>,
    entry: &mut ViewEntry<Prov>,
    fired: &impl Fn(&NatPoly) -> bool,
    h: &impl Fn(&NatPoly) -> NatPoly,
    opts: &ExecOptions,
) -> Result<()> {
    match &mut entry.maint {
        Maint::Recompute => {
            entry.rel = execute_plan(db, &entry.plan, &[], 0, opts)?;
        }
        Maint::Spj => {
            // The plan is linear in base annotations and all cells are
            // ground, so the lifted hom commutes with the plan: mapping
            // the retained result *is* re-executing over mapped inputs.
            // Only the rows that mention a fired token are edited; a view
            // no fired token reaches keeps its store, shared with any
            // snapshot.
            if let Some(mapped) = map_hom_mk_where(&entry.rel, fired, h) {
                entry.rel = mapped;
            }
        }
        Maint::Agg(agg) => {
            // Edit the group state: only a row whose membership sum or
            // tensor coefficients mention a fired token is taken out,
            // mapped and put back — the sum through the hom (zero ⇒ the
            // whole group is gone), the coefficients through the lifted
            // hom, whose canonical form drops the deleted members' terms,
            // exactly matching a from-scratch fold over the surviving
            // rows. Cells stay *raw* (`map_hom` on a `Value` would
            // normalize and lose the tensor). Group keys are ground, so
            // the hom never merges two state rows, and only the rows it
            // changed re-render.
            let schema = agg.state.schema().clone();
            let touched: Vec<(Tuple<Value<Prov>>, Prov)> = agg
                .state
                .iter()
                .filter(|(t, k)| row_mentions(*t, k, fired))
                .map(|(t, k)| (t.to_tuple(), k.clone()))
                .collect();
            let mut new_sub = Relation::empty(schema.clone());
            for (t, k) in &touched {
                agg.state.remove(t);
                let ann = k.map_hom(h);
                if ann.is_zero() {
                    continue;
                }
                let row: Vec<Value<Prov>> = t
                    .values()
                    .iter()
                    .map(|v| match v {
                        Value::Agg(kind, tv) => {
                            Value::Agg(*kind, tv.map_coeffs(kind, &mut |a| a.map_hom(h)))
                        }
                        Value::Const(c) => Value::Const(c.clone()),
                    })
                    .collect();
                let new_t = Tuple::new(row);
                new_sub.add(new_t.clone(), ann.clone())?;
                agg.state.add(new_t, ann)?;
            }
            let old_sub = Relation::from_tuples(schema, touched, Merge::Sum)?;
            patch_rendered(&mut entry.rel, &agg.out_cols, &old_sub, &new_sub)?;
        }
    }
    Ok(())
}

impl<A: AggAnnotation + ParseAnnotation> DbSnapshot<A> {
    /// The maintained result of view `name` in the frozen epoch (views
    /// are epoch state: a snapshot sees them exactly as of its epoch).
    pub fn view(&self, name: &str) -> Result<&MKRel<A>> {
        self.db.view(name)
    }

    /// The view names of the frozen epoch.
    pub fn view_names(&self) -> impl Iterator<Item = &str> {
        self.db.view_names()
    }

    /// How view `name` is maintained (see [`Database::view_strategy`]).
    pub fn view_strategy(&self, name: &str) -> Result<MaintenanceStrategy> {
        self.db.view_strategy(name)
    }
}
