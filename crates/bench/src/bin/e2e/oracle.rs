//! The correctness gate's reference side.
//!
//! Two oracles, by size. On a ≤400-row **canary** every workload
//! statement is recomputed as a composition of the literal §4.3 operators
//! in `core::specops` (quadratic, so small inputs only) and must be
//! bit-identical to what the engine returns. At **full size** the
//! expected result of every distinct op is the same statement run through
//! `prepare_unoptimized` with `ExecOptions::serial()` — no optimizer, no
//! plan cache, one thread — computed once before timing.

use crate::stats::Digest;
use crate::workloads::err;
use aggprov_algebra::monoid::MonoidKind;
use aggprov_core::km::CmpPred;
use aggprov_core::ops::AggSpec;
use aggprov_core::{specops, AggAnnotation, ExecOptions, MKRel, Prov, Value};
use aggprov_engine::{Const, ProvDb};
use aggprov_krel::relation::Tuple;
use aggprov_krel::schema::Schema;
use aggprov_server::Json;

type Spec = Result<MKRel<Prov>, String>;

fn renamed(rel: MKRel<Prov>, names: &[&str]) -> Spec {
    rel.with_schema(Schema::new(names.iter().copied()).map_err(err)?)
        .map_err(err)
}

/// `σ_{lit < col}` when `lit_left`, `σ_{col < lit}` otherwise — the two
/// orientations the engine normalizes `>` and `<` to.
fn select_lt(rel: &MKRel<Prov>, col: &str, lit: i64, lit_left: bool) -> Spec {
    let idx = rel.schema().index_of(col).map_err(err)?;
    let lit = Value::int(lit);
    specops::select_with_token(rel, |_, t: &Tuple<Value<Prov>>| {
        if lit_left {
            Prov::value_cmp(CmpPred::Lt, &lit, t.get(idx))
        } else {
            Prov::value_cmp(CmpPred::Lt, t.get(idx), &lit)
        }
    })
    .map_err(err)
}

fn sum_by_dept(rel: &MKRel<Prov>) -> Spec {
    specops::group_by(
        rel,
        &["dept"],
        &[AggSpec {
            kind: MonoidKind::Sum,
            attr: "sal",
            out: "mass",
        }],
    )
    .map_err(err)
}

/// `SELECT sal FROM emp WHERE dept = $1`.
pub fn spec_point(emp: &MKRel<Prov>, dept: &Value<Prov>) -> Spec {
    let selected = specops::select_eq(emp, "dept", dept).map_err(err)?;
    specops::project(&selected, &["sal"]).map_err(err)
}

/// `SELECT dept, SUM(sal) AS mass FROM emp WHERE dept < $1 GROUP BY dept
/// HAVING mass > <having>`.
pub fn spec_report(emp: &MKRel<Prov>, below: i64, having: i64) -> Spec {
    let grouped = sum_by_dept(&select_lt(emp, "dept", below, false)?)?;
    let kept = select_lt(&grouped, "mass", having, true)?;
    specops::project(&kept, &["dept", "mass"]).map_err(err)
}

/// `SELECT e.emp, d.region FROM emp e JOIN dim d ON e.dept = d.dept2
/// WHERE e.sal < $1`.
pub fn spec_scan_join(emp: &MKRel<Prov>, dim: &MKRel<Prov>, below: i64) -> Spec {
    let joined = specops::join_on(emp, dim, &[("dept", "dept2")]).map_err(err)?;
    let kept = select_lt(&joined, "sal", below, false)?;
    specops::project(&kept, &["emp", "region"]).map_err(err)
}

/// `SELECT dept, SUM(sal) AS mass FROM emp WHERE sal > $1 GROUP BY dept
/// HAVING mass > <having>`.
pub fn spec_agg(emp: &MKRel<Prov>, above: i64, having: i64) -> Spec {
    let grouped = sum_by_dept(&select_lt(emp, "sal", above, true)?)?;
    let kept = select_lt(&grouped, "mass", having, true)?;
    specops::project(&kept, &["dept", "mass"]).map_err(err)
}

/// The `mass` view: `SELECT dept, SUM(sal) AS mass FROM emp GROUP BY dept`.
pub fn spec_mass(emp: &MKRel<Prov>) -> Spec {
    sum_by_dept(emp)
}

/// The `low_paid` view: `SELECT e.emp, d.region FROM emp e JOIN dept d ON
/// e.dept = d.dept WHERE e.sal < <below>`.
pub fn spec_low_paid(emp: &MKRel<Prov>, dept: &MKRel<Prov>, below: i64) -> Spec {
    let e = renamed(emp.clone(), &["e.emp", "e.dept", "e.sal"])?;
    let d = renamed(dept.clone(), &["d.dept", "d.region"])?;
    let joined = specops::join_on(&e, &d, &[("e.dept", "d.dept")]).map_err(err)?;
    let kept = select_lt(&joined, "e.sal", below, false)?;
    let projected = specops::project(&kept, &["e.emp", "d.region"]).map_err(err)?;
    renamed(projected, &["emp", "region"])
}

/// Bit-identity: same schema, support, values and annotations, and the
/// same rendering (what a wire client or a `Display` user would see).
pub fn identical(what: &str, got: &MKRel<Prov>, want: &MKRel<Prov>) -> Result<(), String> {
    if got != want {
        return Err(format!(
            "{what}: result differs from the oracle ({} rows vs {} rows)",
            got.len(),
            want.len()
        ));
    }
    if got.to_string() != want.to_string() {
        return Err(format!("{what}: equal relations render differently"));
    }
    Ok(())
}

/// The full-size expected result of one op: the statement with the
/// optimizer off, on one thread.
pub fn expected(db: &ProvDb, sql: &str, params: &[Const]) -> Spec {
    Ok(db
        .prepare_unoptimized(sql)
        .map_err(err)?
        .execute_with_opts(params, &ExecOptions::serial())
        .map_err(err)?
        .into_relation())
}

/// The digest of a result as a user reads it: per row, every value's
/// rendering, then the annotation's. Expected results are kept in this
/// form — a few bytes each — so that the workload process's peak memory
/// is the product's, not the oracle's.
pub fn rendered(rel: &MKRel<Prov>) -> u64 {
    let mut d = Digest::new();
    for (tuple, annotation) in rel.iter() {
        for v in tuple.values() {
            d.text(&v.to_string());
        }
        d.text(&annotation.to_string());
    }
    d.value()
}

/// [`rendered`] of a wire response's `"rows"`: the server sends exactly
/// those renderings, so equal results give equal digests. `None` when the
/// response is not shaped like a result.
pub fn rendered_wire(response: &Json) -> Option<u64> {
    let mut d = Digest::new();
    for row in response.get("rows")?.as_arr()? {
        for v in row.get("values")?.as_arr()? {
            d.text(v.as_str()?);
        }
        d.text(row.get("annotation")?.as_str()?);
    }
    Some(d.value())
}
