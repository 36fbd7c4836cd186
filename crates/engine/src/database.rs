//! The annotated database: catalog, DDL/DML execution, prepared
//! statements, epoch snapshots, and queries.
//!
//! ## Epochs and snapshots
//!
//! The table map lives behind an [`Arc`]: every mutation goes through
//! [`Arc::make_mut`], so a mutation either edits the map in place (no
//! snapshot outstanding) or copies it out first — whole-database
//! copy-on-write, the same discipline [`Relation`]'s tuple store uses two
//! levels down (the per-table copies are themselves `Arc` bumps, so
//! "copying the map" never duplicates tuple data). Inside a table,
//! copy-on-write is **per block**: the rows sit in sorted blocks of 512,
//! each behind its own `Arc`, so the first `INSERT` after a snapshot
//! copies the table's block pointers and the one block the row lands in,
//! a `delete_tokens` the blocks its fired rows sit in, and every block a
//! writer has not touched since stays shared with the snapshots that pin
//! it — a pinned snapshot costs a writer a block per first touch, never
//! the table.
//! [`Database::snapshot`] clones the `Arc` — an immutable **epoch** any
//! number of reader threads can prepare and execute against with no
//! locks, while the single writer (`&mut self` — Rust enforces the
//! single-writer discipline at compile time) installs the next epoch
//! atomically. A server wraps the writer in one `RwLock` whose read
//! critical section is just the `Arc` bump; execution itself never holds
//! a lock.

use crate::annot::ParseAnnotation;
use crate::ast::{ColType, Lit, Stmt};
use crate::exec::execute_plan;
use crate::opt::{self, Catalog};
use crate::parser::parse_script;
use crate::plan::{lower_query, Plan};
use crate::result::ResultSet;
use aggprov_algebra::domain::Const;
use aggprov_core::annotation::AggAnnotation;
use aggprov_core::ops::MKRel;
use aggprov_core::par::ExecOptions;
use aggprov_core::Value;
use aggprov_krel::error::{RelError, Result};
use aggprov_krel::relation::{Relation, Tuple};
use aggprov_krel::schema::Schema;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

#[path = "view.rs"]
pub mod view;

/// The process-wide version clock behind table versions and epoch ids.
///
/// Versions must be unique across *diverged* databases (clones that
/// mutated independently share one plan cache lineage through snapshots),
/// so the clock is global, not per-database: two different states of a
/// table can never carry the same version, and a cached plan's
/// `(table, version)` dependencies identify exactly one table state.
static VERSION_CLOCK: AtomicU64 = AtomicU64::new(1);

fn next_version() -> u64 {
    VERSION_CLOCK.fetch_add(1, Ordering::Relaxed)
}

/// How many prepared plans the cache keeps by default before evicting the
/// least-recently-used entry.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 128;

/// A database of `(M, K)`-relations annotated with `A`.
///
/// The annotation semiring is chosen at the type level:
/// [`ProvDb`](crate::ProvDb) tracks full aggregate provenance, while
/// `Database<Nat>` runs plain bag semantics, `Database<Security>` security
/// clearances, and so on — the factorization property in action.
///
/// Prepared plans are **cached** keyed by SQL text, with per-table
/// dependency tracking: every cached plan records the `(table, version)`
/// pairs it was optimized against, a mutation of one table (DDL, `INSERT`,
/// [`register`](Database::register)) invalidates only the entries that
/// scan it, and the cache holds at most
/// [`DEFAULT_PLAN_CACHE_CAPACITY`] entries (least-recently-used eviction;
/// see [`set_plan_cache_capacity`](Database::set_plan_cache_capacity)).
/// The version check makes the cache safe to share between the live
/// database and its [snapshots](Database::snapshot): an entry is served
/// only to a reader whose epoch holds exactly the table states the plan
/// was optimized for — the optimizer's rewrites are gated on cardinality
/// and groundness, so a stale plan could be mis-optimized, not merely
/// slow.
#[derive(Debug)]
pub struct Database<A: AggAnnotation + ParseAnnotation> {
    epoch: Arc<EpochTables<A>>,
    epoch_id: u64,
    cache: Arc<PlanCache>,
}

impl<A: AggAnnotation + ParseAnnotation> Default for Database<A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A: AggAnnotation + ParseAnnotation> Clone for Database<A> {
    fn clone(&self) -> Self {
        Database {
            // An Arc bump: the clone and the original copy-on-write away
            // from each other on the first mutation of either.
            epoch: self.epoch.clone(),
            epoch_id: self.epoch_id,
            // The clone gets its own cache holding the same entries
            // (cheap `Arc` bumps); version dependencies keep every entry
            // safe even after the two databases diverge.
            cache: Arc::new(self.cache.duplicate()),
        }
    }
}

/// The frozen table map of one epoch. Immutable once published: mutation
/// goes through `Arc::make_mut` on the owning [`Database`].
#[derive(Clone, Debug)]
struct EpochTables<A: AggAnnotation> {
    tables: BTreeMap<String, TableEntry<A>>,
    /// Materialized views, maintained by [`view`]'s delta machinery.
    /// Part of the epoch: a snapshot freezes views and tables together.
    views: BTreeMap<String, view::ViewEntry<A>>,
}

impl<A: AggAnnotation> EpochTables<A> {
    fn table_version(&self, name: &str) -> Option<u64> {
        self.tables.get(name).map(|e| e.version)
    }
}

/// One fully prepared statement, as stored in the plan cache.
#[derive(Clone, Debug)]
struct CachedStatement {
    /// The lowered logical plan, pre-optimization.
    logical: Arc<Plan>,
    /// The optimized logical plan — what executes.
    optimized: Arc<Plan>,
    /// The number of `$n` slots.
    param_count: usize,
    /// The `(table, version)` states the optimizer snapshot was taken
    /// against — the cache serves this statement only to epochs holding
    /// exactly these table states.
    deps: Arc<[(String, u64)]>,
}

/// One cache slot: the statement plus its LRU recency stamp. The stamp is
/// atomic so a cache *hit* (under the shared read lock) can refresh
/// recency without taking the write lock.
#[derive(Debug)]
struct CacheEntry {
    stmt: CachedStatement,
    stamp: AtomicU64,
}

impl CacheEntry {
    fn duplicate(&self) -> CacheEntry {
        CacheEntry {
            stmt: self.stmt.clone(),
            stamp: AtomicU64::new(self.stamp.load(Ordering::Relaxed)),
        }
    }
}

/// The `Prepared`-plan cache: SQL text → fully lowered statement, bounded
/// LRU, per-table invalidation, readers share an [`RwLock`] read guard (a
/// hit never serializes concurrent preparers on a write lock).
///
/// The lock is taken in [`PlanCache::read`] and [`PlanCache::write`]
/// alone, for the span of a closure over [`CacheInner`] — which holds no
/// lock and calls out to nothing that takes one. So the cache is a leaf:
/// no other lock is ever acquired under its guard, and the server's
/// database lock, which this crate cannot name, can only be taken before
/// it.
#[derive(Debug)]
struct PlanCache {
    inner: RwLock<CacheInner>,
    /// The LRU clock: bumped on every hit and insert.
    clock: AtomicU64,
}

#[derive(Debug)]
struct CacheInner {
    map: HashMap<String, CacheEntry>,
    capacity: usize,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache {
            inner: RwLock::new(CacheInner {
                map: HashMap::new(),
                capacity: DEFAULT_PLAN_CACHE_CAPACITY,
            }),
            clock: AtomicU64::new(1),
        }
    }
}

impl PlanCache {
    /// Runs `f` under the read lock. A poisoned lock only means another
    /// thread panicked mid-insert; the map itself is always in a
    /// consistent state.
    #[expect(
        clippy::disallowed_methods,
        reason = "the plan cache's one read guard, scoped to `f`"
    )]
    fn read<R>(&self, f: impl FnOnce(&CacheInner) -> R) -> R {
        f(&self.inner.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Runs `f` under the write lock.
    #[expect(
        clippy::disallowed_methods,
        reason = "the plan cache's one write guard, scoped to `f`"
    )]
    fn write<R>(&self, f: impl FnOnce(&mut CacheInner) -> R) -> R {
        f(&mut self.inner.write().unwrap_or_else(PoisonError::into_inner))
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Looks `sql` up, serving the entry only if every table dependency
    /// still has the version the plan was optimized against in the
    /// caller's epoch. A hit refreshes the LRU stamp under the read lock.
    fn get<A: AggAnnotation>(&self, sql: &str, epoch: &EpochTables<A>) -> Option<CachedStatement> {
        self.read(|inner| {
            let entry = inner.map.get(sql)?;
            if !entry
                .stmt
                .deps
                .iter()
                .all(|(table, version)| epoch.table_version(table) == Some(*version))
            {
                return None;
            }
            entry.stamp.store(self.tick(), Ordering::Relaxed);
            Some(entry.stmt.clone())
        })
    }

    /// Inserts a statement, evicting the least-recently-used entry when
    /// the cache is full.
    fn insert(&self, sql: &str, stmt: CachedStatement) {
        self.write(|inner| {
            while inner.map.len() >= inner.capacity && !inner.map.contains_key(sql) {
                let Some(lru) = inner
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.stamp.load(Ordering::Relaxed))
                    .map(|(sql, _)| sql.clone())
                else {
                    break;
                };
                inner.map.remove(&lru);
            }
            let stamp = AtomicU64::new(self.tick());
            inner
                .map
                .insert(sql.to_string(), CacheEntry { stmt, stamp });
        });
    }

    /// Drops every entry whose plan depends on `table` — the per-table
    /// invalidation run by `INSERT`/DDL/`register`.
    fn invalidate_table(&self, table: &str) {
        self.write(|inner| {
            inner
                .map
                .retain(|_, e| !e.stmt.deps.iter().any(|(t, _)| t == table));
        });
    }

    fn len(&self) -> usize {
        self.read(|inner| inner.map.len())
    }

    fn set_capacity(&self, capacity: usize) {
        self.write(|inner| {
            inner.capacity = capacity.max(1);
            while inner.map.len() > inner.capacity {
                let Some(lru) = inner
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.stamp.load(Ordering::Relaxed))
                    .map(|(sql, _)| sql.clone())
                else {
                    break;
                };
                inner.map.remove(&lru);
            }
        });
    }

    /// An independent cache holding the same entries (for `Clone`).
    fn duplicate(&self) -> PlanCache {
        let inner = self.read(|inner| CacheInner {
            map: inner
                .map
                .iter()
                .map(|(sql, e)| (sql.clone(), e.duplicate()))
                .collect(),
            capacity: inner.capacity,
        });
        PlanCache {
            inner: RwLock::new(inner),
            clock: AtomicU64::new(self.clock.load(Ordering::Relaxed)),
        }
    }
}

#[derive(Clone, Debug)]
struct TableEntry<A: AggAnnotation> {
    types: Option<Vec<ColType>>,
    rel: MKRel<A>,
    /// Per column, `true` iff every value is a ground constant —
    /// maintained incrementally (SQL `INSERT` only adds constants;
    /// [`Database::register`] scans once), so a catalog snapshot is
    /// `O(columns)`, never a per-prepare pass over the rows.
    ground_cols: Vec<bool>,
    /// The globally unique version of this table state; reassigned on
    /// every mutation. Cached plans pin the versions they planned
    /// against.
    version: u64,
}

/// One pass over a relation for its per-column groundness, stopping
/// early once every column is flagged symbolic.
fn scan_ground_cols<A: AggAnnotation>(rel: &MKRel<A>) -> Vec<bool> {
    let mut ground = vec![true; rel.schema().arity()];
    for (t, _) in rel.iter() {
        for (g, v) in ground.iter_mut().zip(t.values()) {
            if v.is_agg() {
                *g = false;
            }
        }
        if ground.iter().all(|g| !g) {
            break;
        }
    }
    ground
}

impl<A: AggAnnotation + ParseAnnotation> Database<A> {
    /// An empty database.
    pub fn new() -> Self {
        Database {
            epoch: Arc::new(EpochTables {
                tables: BTreeMap::new(),
                views: BTreeMap::new(),
            }),
            epoch_id: next_version(),
            cache: Arc::new(PlanCache::default()),
        }
    }

    /// The mutable epoch (tables *and* views): copies the epoch out if a
    /// snapshot still holds it, and stamps the database with a fresh epoch
    /// id — every caller is a mutation about to happen.
    fn epoch_mut(&mut self) -> &mut EpochTables<A> {
        self.epoch_id = next_version();
        Arc::make_mut(&mut self.epoch)
    }

    /// The mutable table map (see [`epoch_mut`](Database::epoch_mut)).
    fn tables_mut(&mut self) -> &mut BTreeMap<String, TableEntry<A>> {
        &mut self.epoch_mut().tables
    }

    /// Looks a table up.
    pub fn table(&self, name: &str) -> Result<&MKRel<A>> {
        self.epoch
            .tables
            .get(name)
            .map(|t| &t.rel)
            .ok_or_else(|| RelError::UnknownAttr(format!("table `{name}`")))
    }

    /// Registers (or replaces) a table built programmatically. Invalidates
    /// the cached plans that scan this table and re-materializes the
    /// views that depend on it (a wholesale replacement has no delta).
    pub fn register(&mut self, name: &str, rel: MKRel<A>) {
        let ground_cols = scan_ground_cols(&rel);
        let version = next_version();
        self.tables_mut().insert(
            name.to_string(),
            TableEntry {
                types: None,
                rel,
                ground_cols,
                version,
            },
        );
        self.cache.invalidate_table(name);
        view::refresh_dependents(self, name);
    }

    /// The optimizer-facing statistics of one table: tuple count plus the
    /// incrementally maintained per-column groundness. `O(columns)`.
    pub(crate) fn table_stats(&self, name: &str) -> Option<crate::opt::TableStats> {
        self.epoch.tables.get(name).map(|e| crate::opt::TableStats {
            rows: e.rel.len(),
            ground_cols: e.ground_cols.clone(),
        })
    }

    /// The table names.
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.epoch.tables.keys().map(|s| s.as_str())
    }

    /// The id of the current epoch: globally unique, reassigned by every
    /// mutation. Two databases (or a database and a snapshot) with the
    /// same epoch id hold identical data.
    pub fn epoch(&self) -> u64 {
        self.epoch_id
    }

    /// An immutable whole-database snapshot of the current epoch.
    ///
    /// The snapshot is an `Arc` bump — no tuple is copied — and is
    /// [`Send`] + [`Sync`] + `'static`: any number of reader threads can
    /// [`prepare`](DbSnapshot::prepare) and execute against it with no
    /// locks while the writer keeps mutating the live database
    /// (copy-on-write publishes each new epoch without disturbing
    /// readers). The snapshot shares the live database's plan cache;
    /// version-stamped dependencies keep entries planned for different
    /// epochs apart.
    pub fn snapshot(&self) -> DbSnapshot<A> {
        DbSnapshot {
            db: Arc::new(Database {
                epoch: self.epoch.clone(),
                epoch_id: self.epoch_id,
                cache: self.cache.clone(),
            }),
        }
    }

    /// Executes a script of `;`-separated statements. Returns the result of
    /// the last query in the script, if any. Every DDL/`INSERT` statement
    /// invalidates the cached plans scanning the affected table (the
    /// optimizer's groundness and cardinality snapshot is only valid for
    /// unchanged data) and publishes a fresh epoch.
    pub fn exec(&mut self, script: &str) -> Result<Option<MKRel<A>>> {
        let stmts = parse_script(script)?;
        let mut last = None;
        for stmt in stmts {
            match stmt {
                Stmt::CreateTable { name, columns } => {
                    if self.epoch.tables.contains_key(&name) {
                        return Err(RelError::DuplicateAttr(format!("table `{name}`")));
                    }
                    let schema = Schema::new(columns.iter().map(|(n, _)| n.as_str()))?;
                    let ground_cols = vec![true; schema.arity()];
                    let version = next_version();
                    // A table that never existed cannot appear in any
                    // cached plan's dependencies, but invalidate anyway:
                    // it is cheap and keeps CREATE/DROP/CREATE symmetric.
                    self.cache.invalidate_table(&name);
                    self.tables_mut().insert(
                        name,
                        TableEntry {
                            types: Some(columns.into_iter().map(|(_, t)| t).collect()),
                            rel: Relation::empty(schema),
                            ground_cols,
                            version,
                        },
                    );
                }
                Stmt::DropTable { name } => {
                    // Checked against the current epoch: a failed DROP
                    // must not publish a new one.
                    if !self.epoch.tables.contains_key(&name) {
                        return Err(RelError::UnknownAttr(format!("table `{name}`")));
                    }
                    self.tables_mut().remove(&name);
                    self.cache.invalidate_table(&name);
                    view::break_dependents(self, &name, "base table dropped");
                }
                Stmt::Insert {
                    table,
                    values,
                    provenance,
                } => {
                    let (row, ann) = self.insert_row(&table, &values, provenance.as_deref())?;
                    self.cache.invalidate_table(&table);
                    view::maintain_after_insert(self, &table, row, ann)?;
                }
                Stmt::Query(q) => {
                    // The same lower→optimize pipeline as prepare()
                    // (scripts have no SQL-text key per statement, so the
                    // plan cache does not apply here).
                    let stmt = self.plan_query(&q)?;
                    if stmt.param_count > 0 {
                        return Err(RelError::Unsupported(
                            "`$n` parameters require prepare()/execute_with()".into(),
                        ));
                    }
                    last = Some(execute_plan(
                        self,
                        &stmt.optimized,
                        &[],
                        0,
                        &ExecOptions::from_env()?,
                    )?);
                }
            }
        }
        Ok(last)
    }

    /// Prepares a query: parses, lowers to the logical-plan IR, resolves
    /// and validates every name, runs the semiring-sound optimizer
    /// ([`crate::opt`]) against a snapshot of the current catalog — once.
    /// The returned [`Prepared`] executes the optimized plan any number
    /// of times (with different `$n` parameters) without re-parsing or
    /// re-resolving.
    ///
    /// Plans are cached by SQL text: preparing the same statement again
    /// (before a mutation of any table it scans) is a lookup, not a
    /// re-plan.
    pub fn prepare(&self, sql: &str) -> Result<Prepared<'_, A>> {
        let stmt = self.cached_statement(sql)?;
        Ok(Prepared { db: self, stmt })
    }

    /// The cache-aware planning entry shared by [`Database::prepare`] and
    /// [`DbSnapshot::prepare`].
    fn cached_statement(&self, sql: &str) -> Result<CachedStatement> {
        if let Some(stmt) = self.cache.get(sql, &self.epoch) {
            return Ok(stmt);
        }
        let q = crate::parser::parse_query(sql)?;
        let stmt = self.plan_query(&q)?;
        self.cache.insert(sql, stmt.clone());
        Ok(stmt)
    }

    /// The shared planning pipeline behind [`prepare`](Database::prepare)
    /// and [`exec`](Database::exec): lower, then optimize against the
    /// plan-restricted catalog snapshot.
    fn plan_query(&self, q: &crate::ast::Query) -> Result<CachedStatement> {
        let lowered = lower_query(self, q)?;
        let optimized = opt::optimize(&lowered.plan, &Catalog::of_plan(self, &lowered.plan));
        let deps: Vec<(String, u64)> = lowered
            .plan
            .scanned_tables()
            .into_iter()
            .filter_map(|t| self.epoch.table_version(&t).map(|v| (t, v)))
            .collect();
        Ok(CachedStatement {
            logical: Arc::new(lowered.plan),
            optimized: Arc::new(optimized),
            param_count: lowered.param_count,
            deps: deps.into(),
        })
    }

    /// Prepares a query with the optimizer switched off — the literal
    /// lowered plan shape, bypassing (and not populating) the plan cache.
    /// The execution-equivalence oracle for the optimizer's property
    /// tests, and a debugging aid next to
    /// [`plan_display`](Prepared::plan_display).
    pub fn prepare_unoptimized(&self, sql: &str) -> Result<Prepared<'_, A>> {
        let q = crate::parser::parse_query(sql)?;
        let lowered = lower_query(self, &q)?;
        let logical = Arc::new(lowered.plan);
        Ok(Prepared {
            db: self,
            stmt: CachedStatement {
                optimized: logical.clone(),
                logical,
                param_count: lowered.param_count,
                deps: Arc::from(Vec::new()),
            },
        })
    }

    /// How many prepared plans the cache currently holds (diagnostic).
    /// Accurate under concurrent readers: the count is taken under the
    /// cache's shared lock.
    pub fn cached_plan_count(&self) -> usize {
        self.cache.len()
    }

    /// Caps the plan cache at `capacity` entries (at least 1), evicting
    /// least-recently-used entries immediately if it is over.
    pub fn set_plan_cache_capacity(&self, capacity: usize) {
        self.cache.set_capacity(capacity);
    }

    /// Snapshots the optimizer's base-table catalog (cardinalities and
    /// per-column groundness) for the database's current state.
    pub fn catalog(&self) -> Catalog {
        Catalog::of(self)
    }

    /// Runs a single query (read-only). Equivalent to
    /// `prepare(sql)?.execute()?.into_relation()` — kept as the one-shot
    /// convenience entry point.
    pub fn query(&self, sql: &str) -> Result<MKRel<A>> {
        Ok(self.prepare(sql)?.execute()?.into_relation())
    }

    /// Inserts one literal row, returning the inserted tuple and its
    /// annotation — the delta the view-maintenance hook propagates.
    fn insert_row(
        &mut self,
        table: &str,
        values: &[Lit],
        provenance: Option<&str>,
    ) -> Result<(Tuple<Value<A>>, A)> {
        let ann = match provenance {
            None => A::one(),
            Some(text) => A::parse_annotation(text).ok_or_else(|| {
                RelError::Unsupported(format!(
                    "`{text}` is not a valid annotation for this semiring"
                ))
            })?,
        };
        // Validate against the *current* epoch before touching anything:
        // a failed INSERT must not publish a new epoch.
        let entry = self
            .epoch
            .tables
            .get(table)
            .ok_or_else(|| RelError::UnknownAttr(format!("table `{table}`")))?;
        let arity = entry.rel.schema().arity();
        if values.len() != arity {
            return Err(RelError::ArityMismatch {
                expected: arity,
                got: values.len(),
            });
        }
        if let Some(types) = &entry.types {
            for (lit, ty) in values.iter().zip(types) {
                let ok = matches!(
                    (lit, ty),
                    (Lit::Num(_), ColType::Num)
                        | (Lit::Str(_), ColType::Text)
                        | (Lit::Bool(_), ColType::Bool)
                );
                if !ok {
                    return Err(RelError::TypeError(format!(
                        "literal {lit:?} does not match declared column type {ty:?}"
                    )));
                }
            }
        }
        // Literal rows hold only constants, so the entry's incremental
        // `ground_cols` stays valid without rescanning.
        let row: Vec<Value<A>> = values
            .iter()
            .map(|l| {
                Value::Const(match l {
                    Lit::Num(n) => Const::Num(*n),
                    Lit::Str(s) => Const::str(s),
                    Lit::Bool(b) => Const::Bool(*b),
                })
            })
            .collect();
        let version = next_version();
        let entry = self
            .tables_mut()
            .get_mut(table)
            .ok_or_else(|| RelError::Internal(format!("table `{table}` vanished mid-INSERT")))?;
        entry.version = version;
        let t = Tuple::new(row);
        entry.rel.add(t.clone(), ann.clone())?;
        Ok((t, ann))
    }
}

/// A prepared query: the logical plan with all names resolved, and its
/// optimized form, bound to the database it was prepared against.
///
/// Executing a `Prepared` runs the optimized [`Plan`] — no re-parsing and
/// no re-resolution of SQL identifiers; a join key or `AVG` part maps to
/// its column position by one scan of a node's schema. Because it
/// borrows the database immutably, the catalog cannot change under a
/// live prepared statement (the borrow checker enforces what other
/// engines need epoch counters for). For an owned handle that outlives
/// the borrow — the serving layer's session model — see
/// [`DbSnapshot::prepare`].
///
/// ```
/// use aggprov_engine::ProvDb;
/// use aggprov_algebra::domain::Const;
///
/// let mut db = ProvDb::new();
/// db.exec(
///     "CREATE TABLE r (dept TEXT, sal NUM);
///      INSERT INTO r VALUES ('d1', 20) PROVENANCE p1;
///      INSERT INTO r VALUES ('d2', 30) PROVENANCE p2;",
/// )
/// .unwrap();
///
/// let by_dept = db.prepare("SELECT sal FROM r WHERE dept = $1").unwrap();
/// let d1 = by_dept.execute_with(&[Const::str("d1")]).unwrap();
/// let d2 = by_dept.execute_with(&[Const::str("d2")]).unwrap();
/// assert_eq!(d1.len(), 1);
/// assert_eq!(d2.len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Prepared<'db, A: AggAnnotation + ParseAnnotation> {
    db: &'db Database<A>,
    stmt: CachedStatement,
}

/// Executes a cached statement against a database state — the shared body
/// of [`Prepared`] and [`SnapPrepared`].
fn execute_stmt<A: AggAnnotation + ParseAnnotation>(
    db: &Database<A>,
    stmt: &CachedStatement,
    params: &[Const],
    opts: &ExecOptions,
) -> Result<ResultSet<A>> {
    if params.len() != stmt.param_count {
        return Err(RelError::ParamArity {
            expected: stmt.param_count,
            got: params.len(),
        });
    }
    Ok(ResultSet::from_relation(execute_plan(
        db,
        &stmt.optimized,
        params,
        stmt.param_count,
        opts,
    )?))
}

impl<'db, A: AggAnnotation + ParseAnnotation> Prepared<'db, A> {
    /// The logical plan as lowered from the SQL, before optimization.
    pub fn plan(&self) -> &Plan {
        &self.stmt.logical
    }

    /// The optimized logical plan — what actually executes (identical to
    /// [`plan`](Prepared::plan) when no rewrite fired).
    pub fn optimized_plan(&self) -> &Plan {
        &self.stmt.optimized
    }

    /// `EXPLAIN`-style introspection: the pre-optimization and
    /// post-optimization operator trees, rendered for humans.
    ///
    /// ```
    /// use aggprov_engine::ProvDb;
    /// let mut db = ProvDb::new();
    /// db.exec("CREATE TABLE r (a NUM, b NUM)").unwrap();
    /// let stmt = db.prepare("SELECT a FROM r WHERE b = 1").unwrap();
    /// assert!(stmt.plan_display().contains("Filter r.b = 1"));
    /// ```
    pub fn plan_display(&self) -> String {
        format!(
            "logical plan (as lowered):\n{}optimized plan:\n{}",
            opt::render_plan(&self.stmt.logical),
            opt::render_plan(&self.stmt.optimized),
        )
    }

    /// How many `$n` parameters the query expects.
    pub fn param_count(&self) -> usize {
        self.stmt.param_count
    }

    /// The result schema (known without executing).
    pub fn schema(&self) -> &Schema {
        self.stmt.logical.schema()
    }

    /// Executes the plan. Fails if the query has `$n` placeholders (use
    /// [`execute_with`](Prepared::execute_with)).
    ///
    /// Physical operators run partition-parallel with the environment's
    /// thread count: `AGGPROV_THREADS` when set (an unparseable value is a
    /// loud [`RelError::InvalidEnv`]), otherwise the machine's available
    /// parallelism. The produced result is identical at every thread count
    /// — use [`execute_with_opts`](Prepared::execute_with_opts) to pin it
    /// explicitly.
    pub fn execute(&self) -> Result<ResultSet<A>> {
        self.execute_with(&[])
    }

    /// Executes the plan with `$1, $2, …` bound to `params` in order,
    /// using the environment's thread count (see
    /// [`execute`](Prepared::execute)).
    pub fn execute_with(&self, params: &[Const]) -> Result<ResultSet<A>> {
        self.execute_with_opts(params, &ExecOptions::from_env()?)
    }

    /// Executes the plan with `$1, $2, …` bound to `params` and an explicit
    /// [`ExecOptions`] — `ExecOptions::serial()` pins the single-threaded
    /// path, `ExecOptions::with_threads(n)` shards ground partitions across
    /// `n` scoped worker threads.
    pub fn execute_with_opts(&self, params: &[Const], opts: &ExecOptions) -> Result<ResultSet<A>> {
        execute_stmt(self.db, &self.stmt, params, opts)
    }
}

/// An immutable whole-database snapshot: one frozen epoch plus the shared
/// plan cache (see [`Database::snapshot`]).
///
/// A snapshot is cheap to clone (`Arc` bumps), is `Send + Sync +
/// 'static`, and never changes: queries prepared and executed against it
/// see exactly the data of the epoch it was taken from, no matter what
/// the live database does concurrently. This is the reader half of the
/// serving layer's single-writer/many-readers model.
#[derive(Clone, Debug)]
pub struct DbSnapshot<A: AggAnnotation + ParseAnnotation> {
    db: Arc<Database<A>>,
}

impl<A: AggAnnotation + ParseAnnotation> DbSnapshot<A> {
    /// The epoch this snapshot froze (see [`Database::epoch`]).
    pub fn epoch(&self) -> u64 {
        self.db.epoch_id
    }

    /// Looks a table up in the frozen epoch.
    pub fn table(&self, name: &str) -> Result<&MKRel<A>> {
        self.db.table(name)
    }

    /// The table names of the frozen epoch.
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.db.table_names()
    }

    /// Prepares a query against the frozen epoch, returning an **owned**
    /// [`SnapPrepared`] handle: it keeps the epoch alive, can move across
    /// threads, and executes with no locks. Cached plans are shared with
    /// the live database where the table versions agree.
    pub fn prepare(&self, sql: &str) -> Result<SnapPrepared<A>> {
        let stmt = self.db.cached_statement(sql)?;
        Ok(SnapPrepared {
            db: self.db.clone(),
            stmt,
        })
    }

    /// Runs a single query against the frozen epoch (the one-shot
    /// convenience wrapper, as [`Database::query`]).
    pub fn query(&self, sql: &str) -> Result<MKRel<A>> {
        self.db.query(sql)
    }
}

/// An owned prepared statement bound to a [`DbSnapshot`]'s frozen epoch.
///
/// Unlike [`Prepared`] this does not borrow the database: sessions can
/// hold it across requests, hand it to worker threads, and execute it
/// concurrently — every execution sees the same frozen epoch.
#[derive(Clone, Debug)]
pub struct SnapPrepared<A: AggAnnotation + ParseAnnotation> {
    db: Arc<Database<A>>,
    stmt: CachedStatement,
}

impl<A: AggAnnotation + ParseAnnotation> SnapPrepared<A> {
    /// The logical plan as lowered from the SQL, before optimization.
    pub fn plan(&self) -> &Plan {
        &self.stmt.logical
    }

    /// The optimized logical plan — what actually executes.
    pub fn optimized_plan(&self) -> &Plan {
        &self.stmt.optimized
    }

    /// How many `$n` parameters the query expects.
    pub fn param_count(&self) -> usize {
        self.stmt.param_count
    }

    /// The result schema (known without executing).
    pub fn schema(&self) -> &Schema {
        self.stmt.logical.schema()
    }

    /// The epoch this statement executes against.
    pub fn epoch(&self) -> u64 {
        self.db.epoch_id
    }

    /// Executes the plan (no `$n` placeholders; see
    /// [`execute_with`](SnapPrepared::execute_with)).
    pub fn execute(&self) -> Result<ResultSet<A>> {
        self.execute_with(&[])
    }

    /// Executes with `$1, $2, …` bound to `params`, using the
    /// environment's thread count.
    pub fn execute_with(&self, params: &[Const]) -> Result<ResultSet<A>> {
        self.execute_with_opts(params, &ExecOptions::from_env()?)
    }

    /// Executes with explicit [`ExecOptions`].
    pub fn execute_with_opts(&self, params: &[Const], opts: &ExecOptions) -> Result<ResultSet<A>> {
        execute_stmt(&self.db, &self.stmt, params, opts)
    }
}
