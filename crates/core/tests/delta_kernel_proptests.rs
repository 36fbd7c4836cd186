//! Property-tested laws of the incremental grouping kernels
//! ([`aggprov_core::ops::group_state_update`] /
//! [`aggprov_core::ops::delta_collapse`]) against the literal
//! one-tuple-at-a-time reference ([`aggprov_core::specops`]).
//!
//! The central law is **batch invariance + collapse correctness**: folding
//! a relation into an empty group state in *any* batch decomposition
//! yields bit-identical state, and collapsing that state is bit-identical
//! to a from-scratch `group_by` over the whole relation — which is itself
//! oracled against the literal §4.3 `specops::group_by`. Aggregated cells
//! are mixed ground/symbolic; group keys are ground (symbolic keys are a
//! pinned error on both paths).

use aggprov_algebra::domain::Const;
use aggprov_algebra::monoid::MonoidKind;
use aggprov_algebra::poly::NatPoly;
use aggprov_algebra::tensor::Tensor;
use aggprov_core::km::Km;
use aggprov_core::ops::{self, AggSpec, MKRel};
use aggprov_core::par::ExecOptions;
use aggprov_core::{specops, Value};
use aggprov_krel::relation::Relation;
use aggprov_krel::schema::Schema;
use proptest::prelude::*;

type P = Km<NatPoly>;

fn tok(name: &str) -> P {
    Km::embed(NatPoly::token(name))
}

const VARS: [&str; 4] = ["x", "y", "z", "w"];

/// One aggregated cell: `(kind, var_index, int_value)`; kind 0–3 a ground
/// integer, 4–5 a symbolic `SUM` tensor (≈1/3 symbolic).
type RawVal = (u8, usize, i64);

fn decode_num_val(raw: RawVal) -> Value<P> {
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

fn raw_val() -> impl Strategy<Value = RawVal> {
    (0u8..6, 0..VARS.len(), -2i64..5)
}

/// Batches of `(ground key, mixed SUM value, ground MAX value)` rows;
/// tokens are distinct across the whole stream. The MAX column stays
/// ground because a MAX spec over a symbolic SUM tensor is a kind
/// mismatch on every path (incremental and from-scratch alike).
fn arb_batches() -> impl Strategy<Value = Vec<Vec<(i64, RawVal, i64)>>> {
    prop::collection::vec(
        prop::collection::vec((0i64..4, raw_val(), -3i64..6), 0..5),
        0..5,
    )
}

fn schema() -> Schema {
    Schema::new(["g", "v", "w"]).unwrap()
}

fn batch_rel(batch: &[(i64, RawVal, i64)], first_token: usize) -> MKRel<P> {
    Relation::from_rows(
        schema(),
        batch.iter().enumerate().map(|(i, (g, v, w))| {
            (
                vec![Value::int(*g), decode_num_val(*v), Value::int(*w)],
                tok(&format!("p{}", first_token + i)),
            )
        }),
    )
    .unwrap()
}

/// The whole stream as one relation (same tokens as the batched form).
fn full_rel(batches: &[Vec<(i64, RawVal, i64)>]) -> MKRel<P> {
    let rows: Vec<(i64, RawVal, i64)> = batches.iter().flatten().copied().collect();
    batch_rel(&rows, 0)
}

const SPECS: [AggSpec<'static>; 2] = [
    AggSpec {
        kind: MonoidKind::Sum,
        attr: "v",
        out: "total",
    },
    AggSpec {
        kind: MonoidKind::Max,
        attr: "w",
        out: "peak",
    },
];

/// Folds the batches through the physical kernel.
fn fold_ops(batches: &[Vec<(i64, RawVal, i64)>]) -> MKRel<P> {
    let state_schema = Schema::new(["g", "total", "peak"]).unwrap();
    let mut state: MKRel<P> = Relation::empty(state_schema);
    let mut next_token = 0;
    for batch in batches {
        let delta = batch_rel(batch, next_token);
        next_token += batch.len();
        state = ops::group_state_update(state, &delta, &["g"], &SPECS).unwrap();
    }
    state
}

/// Folds the batches through the literal reference kernel.
fn fold_spec(batches: &[Vec<(i64, RawVal, i64)>]) -> MKRel<P> {
    let state_schema = Schema::new(["g", "total", "peak"]).unwrap();
    let mut state: MKRel<P> = Relation::empty(state_schema);
    let mut next_token = 0;
    for batch in batches {
        let delta = batch_rel(batch, next_token);
        next_token += batch.len();
        state = specops::group_state_update(&state, &delta, &["g"], &SPECS).unwrap();
    }
    state
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Physical and literal folds agree bit for bit on the state itself.
    #[test]
    fn state_fold_matches_spec(batches in arb_batches()) {
        prop_assert_eq!(fold_ops(&batches), fold_spec(&batches));
    }

    /// Batch decomposition is invisible: folding batch-by-batch equals
    /// folding the whole stream in one delta.
    #[test]
    fn state_is_batch_invariant(batches in arb_batches()) {
        let whole = vec![batches.iter().flatten().copied().collect::<Vec<_>>()];
        prop_assert_eq!(fold_ops(&batches), fold_ops(&whole));
    }

    /// Collapsing the incrementally built state is bit-identical to a
    /// from-scratch `group_by` — which is itself bit-identical to the
    /// literal §4.3 `specops::group_by` on these (ground-keyed) inputs.
    #[test]
    fn collapse_matches_group_by_and_spec(batches in arb_batches()) {
        let state = fold_ops(&batches);
        let collapsed = ops::delta_collapse(&state).unwrap();
        let full = full_rel(&batches);
        let scratch = ops::group_by(&full, &["g"], &SPECS).unwrap();
        let literal = specops::group_by(&full, &["g"], &SPECS).unwrap();
        prop_assert_eq!(collapsed.clone(), scratch);
        prop_assert_eq!(collapsed.clone(), literal);
        // The rendering map is shared: spec and physical collapse coincide.
        let spec_collapsed = specops::delta_collapse(&state).unwrap();
        prop_assert_eq!(collapsed, spec_collapsed);
    }

    /// `group_by` *is* the collapsed state of the whole relation folded as
    /// one delta — one keyed fold, with and without the rendering — at one
    /// and at four worker threads.
    #[test]
    fn group_by_is_collapse_of_state(batches in arb_batches()) {
        let full = full_rel(&batches);
        let empty = Relation::empty(Schema::new(["g", "total", "peak"]).unwrap());
        let state = ops::group_state_update(empty, &full, &["g"], &SPECS).unwrap();
        let collapsed = ops::delta_collapse(&state).unwrap();
        for threads in [1, 4] {
            let opts = ExecOptions::with_threads(threads);
            let grouped = ops::group_by_opts(&full, &["g"], &SPECS, &opts).unwrap();
            prop_assert_eq!(&grouped, &collapsed, "{} threads", threads);
        }
    }

    /// A symbolic group key in the delta is a pinned error on both paths.
    /// (`n` stays nonzero: `x ⊗ 0` *is* the zero tensor by bilinearity, so
    /// it would normalize to the ground constant `0` and group fine.)
    #[test]
    fn symbolic_group_key_is_rejected(n in 1i64..5) {
        let state: MKRel<P> = Relation::empty(Schema::new(["g", "total", "peak"]).unwrap());
        let delta: MKRel<P> = Relation::from_rows(
            schema(),
            [(
                vec![
                    Value::agg_normalized(
                        MonoidKind::Sum,
                        Tensor::from_terms(&MonoidKind::Sum, [(tok("x"), Const::int(n))]),
                    ),
                    Value::int(1),
                    Value::int(2),
                ],
                tok("p0"),
            )],
        )
        .unwrap();
        prop_assert!(ops::group_state_update(state.clone(), &delta, &["g"], &SPECS).is_err());
        prop_assert!(specops::group_state_update(&state, &delta, &["g"], &SPECS).is_err());
    }
}
