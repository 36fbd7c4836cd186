//! Generators shared by the operator property suites (`hash_vs_spec`,
//! `specops_oracle`, `par_determinism`, `batch_kernel`): one cell
//! decoder, one relation builder, one two-column relation strategy. Each
//! suite declares `mod common;` and imports the items it uses; a suite's
//! own variants (a ground-only decoder, a group-shaped relation) stay in
//! its file.

#![allow(
    dead_code,
    reason = "every test binary compiles this module and uses a subset of it"
)]

use aggprov_algebra::domain::Const;
use aggprov_algebra::monoid::MonoidKind;
use aggprov_algebra::poly::NatPoly;
use aggprov_algebra::tensor::Tensor;
use aggprov_core::km::Km;
use aggprov_core::ops::MKRel;
use aggprov_core::Value;
use aggprov_krel::relation::Relation;
use aggprov_krel::schema::Schema;
use proptest::prelude::*;

type P = Km<NatPoly>;

/// The base token `name`.
pub fn tok(name: &str) -> P {
    Km::embed(NatPoly::token(name))
}

/// The variables a symbolic cell's token is drawn from.
pub const VARS: [&str; 4] = ["x", "y", "z", "w"];

/// One generated cell: `(kind, var_index, int_value)` with kind 0–5 —
/// 0–2 a ground int, 3 a ground string, 4–5 a symbolic `SUM` tensor
/// (≈1/3 symbolic).
pub type RawVal = (u8, usize, i64);

/// A cell of any kind: ground int, ground string or symbolic tensor.
pub fn decode_val(raw: RawVal) -> Value<P> {
    let (kind, vi, n) = raw;
    match kind {
        0..=2 => Value::int(n),
        3 => Value::str(if n % 2 == 0 { "s0" } else { "s1" }),
        _ => Value::agg_normalized(
            MonoidKind::Sum,
            Tensor::from_terms(&MonoidKind::Sum, [(tok(VARS[vi]), Const::int(n))]),
        ),
    }
}

/// Numeric-only cell (ground int or symbolic tensor) — for aggregated
/// columns and columns under order comparisons, where a string would be a
/// carrier-type or ordering error on both paths.
pub fn decode_num_val(raw: RawVal) -> Value<P> {
    let (kind, vi, n) = raw;
    if kind <= 3 {
        Value::int(n)
    } else {
        Value::agg_normalized(
            MonoidKind::Sum,
            Tensor::from_terms(&MonoidKind::Sum, [(tok(VARS[vi]), Const::int(n))]),
        )
    }
}

pub fn raw_val() -> impl Strategy<Value = RawVal> {
    (0u8..6, 0..VARS.len(), -2i64..5)
}

/// A relation of `rows` under `schema`, row `i` annotated with the token
/// `{prefix}{i}`.
pub fn rel_from(prefix: &str, schema: Schema, rows: Vec<Vec<Value<P>>>) -> MKRel<P> {
    Relation::from_rows(
        schema,
        rows.into_iter()
            .enumerate()
            .map(|(i, row)| (row, tok(&format!("{prefix}{i}")))),
    )
    .unwrap()
}

/// Up to six rows over `(a, b)`, every cell of any kind.
pub fn arb_rel2(
    prefix: &'static str,
    a: &'static str,
    b: &'static str,
) -> impl Strategy<Value = MKRel<P>> {
    prop::collection::vec((raw_val(), raw_val()), 0..7).prop_map(move |rows| {
        rel_from(
            prefix,
            Schema::new([a, b]).unwrap(),
            rows.into_iter()
                .map(|(x, y)| vec![decode_val(x), decode_val(y)])
                .collect(),
        )
    })
}
