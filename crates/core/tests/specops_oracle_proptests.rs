//! Every physical operator against its literal-spec twin: one arm per
//! row of the operator table ([`aggprov_core::ops::Operator`]), matched
//! without a wildcard, so a row added to the table does not compile here
//! (E0004) until it has an arm, and `every_operator_has_a_test` fails
//! until a test runs that arm. Each arm hands [`agree`] the row's
//! physical functions and its [`aggprov_core::specops`] twin's result;
//! `agree` runs every physical function at one and at four worker threads.
//!
//! Relations mix ground constants with symbolic `SUM` tensors, so both the
//! fast partitions and the token-weighted §4.3 paths are exercised, and
//! equality is full structural equality — schema, support, and every
//! annotation, bit for bit. Where an operator's domain excludes some
//! generated inputs (ordering across types, symbolic natural-join keys,
//! symbolic keys in a group-state delta), both paths must fail with the
//! *same* error.

use aggprov_algebra::monoid::MonoidKind;
use aggprov_algebra::poly::NatPoly;
use aggprov_core::annotation::AggAnnotation;
use aggprov_core::km::{CmpPred, Km};
use aggprov_core::ops::{self, AggSpec, MKRel, Operator};
use aggprov_core::{specops, ExecOptions, Value};
use aggprov_krel::error::Result;
use aggprov_krel::relation::{Relation, Tuple};
use aggprov_krel::schema::Schema;
use proptest::prelude::*;
use std::fmt::Debug;

mod common;
use common::{arb_rel2, decode_num_val, decode_val, raw_val, rel_from, RawVal};

type P = Km<NatPoly>;

/// Like [`arb_rel2`] but with an always-ground (int) second column — the
/// shape the natural-join success path needs on its shared attribute.
fn arb_rel2_ground_b(
    prefix: &'static str,
    a: &'static str,
    b: &'static str,
) -> impl Strategy<Value = MKRel<P>> {
    prop::collection::vec((raw_val(), -2i64..3), 0..7).prop_map(move |rows| {
        rel_from(
            prefix,
            Schema::new([a, b]).unwrap(),
            rows.into_iter()
                .map(|(x, n)| vec![decode_val(x), Value::int(n)])
                .collect(),
        )
    })
}

/// A `(group-key, numeric)` relation for the aggregation operators.
fn arb_group_rel(prefix: &'static str) -> impl Strategy<Value = MKRel<P>> {
    prop::collection::vec((raw_val(), raw_val()), 0..7).prop_map(move |rows| {
        rel_from(
            prefix,
            Schema::new(["g", "v"]).unwrap(),
            rows.into_iter()
                .map(|(x, y)| vec![decode_val(x), decode_num_val(y)])
                .collect(),
        )
    })
}

fn arb_cmp() -> impl Strategy<Value = CmpPred> {
    prop_oneof![Just(CmpPred::Lt), Just(CmpPred::Le), Just(CmpPred::Ne)]
}

/// One generated input for every operator.
#[derive(Debug)]
struct Case {
    /// `(a, b)`: the selections' and the probes' relation.
    r: MKRel<P>,
    /// `(a, b)` under other tokens: `r`'s union partner.
    r_other: MKRel<P>,
    /// `(c, d)`: the product's and the join's right side.
    s: MKRel<P>,
    /// `(a, b)` and `(c, b)` with a ground `b`: the natural join's success path.
    ground_b: (MKRel<P>, MKRel<P>),
    /// `(c, b)` with `b` possibly symbolic: `r`'s natural-join partner, on
    /// which both paths must raise the same error.
    s_b: MKRel<P>,
    /// `(g, v)`, twice: aggregation input, and two deltas of a group state.
    groups: (MKRel<P>, MKRel<P>),
    probe: (RawVal, RawVal),
    pick_support: bool,
    value: RawVal,
    pred: CmpPred,
    keep_b: bool,
    /// The aggregation arms add a `COUNT(*)` spec beside `SUM(v)`.
    count: bool,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        (
            arb_rel2("a", "a", "b"),
            arb_rel2("b", "a", "b"),
            arb_rel2("c", "c", "d"),
            arb_rel2_ground_b("d", "a", "b"),
            arb_rel2_ground_b("e", "c", "b"),
            arb_rel2("f", "c", "b"),
            arb_group_rel("g"),
            arb_group_rel("h"),
        ),
        (
            (raw_val(), raw_val()),
            any::<bool>(),
            raw_val(),
            arb_cmp(),
            any::<bool>(),
            any::<bool>(),
        ),
    )
        .prop_map(
            |(
                (r, r_other, s, gb1, gb2, s_b, g1, g2),
                (probe, pick_support, value, pred, keep_b, count),
            )| Case {
                r,
                r_other,
                s,
                ground_b: (gb1, gb2),
                s_b,
                groups: (g1, g2),
                probe,
                pick_support,
                value,
                pred,
                keep_b,
                count,
            },
        )
}

/// One physical function of a row, applied to the case at given options.
type Path<'a, T> = &'a dyn Fn(&ExecOptions) -> Result<T>;

/// Runs every physical path at one and at four worker threads and holds
/// each result to the twin's: equal values on success, the same error
/// (message and all) when the input is outside the operator's domain.
fn agree<T: PartialEq + Debug>(op: Operator, paths: &[Path<'_, T>], spec: Result<T>) {
    for opts in [ExecOptions::serial(), ExecOptions::with_threads(4)] {
        for (i, path) in paths.iter().enumerate() {
            match (path(&opts), &spec) {
                (Ok(h), Ok(s)) => prop_assert_eq!(&h, s, "{:?} path {} at {:?}", op, i, opts),
                (Err(h), Err(s)) => prop_assert_eq!(h.to_string(), s.to_string()),
                (h, s) => prop_assert!(
                    false,
                    "{:?} path {} at {:?} diverges: physical ok={}, spec ok={}",
                    op,
                    i,
                    opts,
                    h.is_ok(),
                    s.is_ok()
                ),
            }
        }
    }
}

const SUM_V: [AggSpec<'static>; 1] = [AggSpec {
    kind: MonoidKind::Sum,
    attr: "v",
    out: "v",
}];

/// `SUM(v) AS v, COUNT(*) AS n`.
const SUM_V_COUNT: [AggSpec<'static>; 2] = [
    SUM_V[0],
    AggSpec {
        kind: MonoidKind::Sum,
        attr: ops::STAR,
        out: "n",
    },
];

impl Case {
    /// The aggregation arms' specs, and the schema of a group state under
    /// them.
    fn specs(&self) -> (&'static [AggSpec<'static>], Schema) {
        if self.count {
            (&SUM_V_COUNT, Schema::new(["g", "v", "n"]).unwrap())
        } else {
            (&SUM_V, Schema::new(["g", "v"]).unwrap())
        }
    }
}

/// The oracle arm of one operator. Every row of the table has its own
/// arm: a row without one does not compile.
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
fn check(op: Operator, c: &Case) {
    let (r, s) = (&c.r, &c.s);
    let value = decode_val(c.value);
    let (specs, state_schema) = c.specs();
    match op {
        Operator::AnnotationAt => {
            // Probe with a generated tuple — and, when possible, with an
            // exact support tuple (the case the structural fast path serves).
            let t = match r.iter().next().filter(|_| c.pick_support) {
                Some((t, _)) => t.to_tuple(),
                None => Tuple::new(vec![decode_val(c.probe.0), decode_val(c.probe.1)]),
            };
            agree(
                op,
                &[&|_| ops::annotation_at(r, &t)],
                specops::annotation_at(r, &t),
            )
        }
        Operator::Union => agree(
            op,
            &[&|_| ops::union(r, &c.r_other), &|o| {
                ops::union_opts(r, &c.r_other, o)
            }],
            specops::union(r, &c.r_other),
        ),
        Operator::Project => {
            let attrs: &[&str] = if c.keep_b { &["b", "a"] } else { &["a"] };
            agree(
                op,
                &[&|_| ops::project(r, attrs), &|o| {
                    ops::project_opts(r, attrs, o)
                }],
                specops::project(r, attrs),
            )
        }
        Operator::SelectEq => agree(
            op,
            &[&|_| ops::select_eq(r, "a", &value)],
            specops::select_eq(r, "a", &value),
        ),
        Operator::SelectAttrsEq => agree(
            op,
            &[&|_| ops::select_attrs_eq(r, "a", "b")],
            specops::select_attrs_eq(r, "a", "b"),
        ),
        Operator::SelectWithToken => {
            let one = Value::int(1);
            agree(
                op,
                &[&|_| ops::select_with_token(r, |_, t| P::value_eq(t.get(0), &one))],
                specops::select_with_token(r, |_, t| P::value_eq(t.get(0), &one)),
            )
        }
        // Ordering across value types is a type error — on both paths, at
        // the same tuple.
        Operator::SelectCmp => agree(
            op,
            &[&|_| ops::select_cmp(r, "a", c.pred, &value)],
            specops::select_cmp(r, "a", c.pred, &value),
        ),
        Operator::SelectAttrsCmp => agree(
            op,
            &[&|_| ops::select_attrs_cmp(r, "a", c.pred, "b")],
            specops::select_attrs_cmp(r, "a", c.pred, "b"),
        ),
        Operator::SelectWhere => {
            let keep_ground = |_: &Schema, t: &Tuple<Value<P>>| Ok(!t.get(0).is_agg());
            agree(
                op,
                &[&|_| ops::select_where(r, keep_ground)],
                specops::select_where(r, keep_ground),
            )
        }
        // One key column, two, and none (the cartesian product).
        Operator::JoinOn => {
            for on in [&[("a", "c")][..], &[("a", "c"), ("b", "d")], &[]] {
                agree(
                    op,
                    &[&|_| ops::join_on(r, s, on), &|o| {
                        ops::join_on_opts(r, s, on, o)
                    }],
                    specops::join_on(r, s, on),
                )
            }
        }
        Operator::Product => agree(op, &[&|_| ops::product(r, s)], specops::product(r, s)),
        // Shared attribute `b` ground on both sides: the success path. The
        // symbolic-key path has its own test below.
        Operator::NaturalJoin => {
            let (g1, g2) = &c.ground_b;
            agree(
                op,
                &[&|_| ops::natural_join(g1, g2)],
                specops::natural_join(g1, g2),
            )
        }
        Operator::Agg => agree(
            op,
            &[&|_| ops::agg(&c.groups.0, SUM_V[0])],
            specops::agg(&c.groups.0, SUM_V[0]),
        ),
        Operator::AggAll => agree(
            op,
            &[&|_| ops::agg_all(&c.groups.0, specs)],
            specops::agg_all(&c.groups.0, specs),
        ),
        Operator::GroupBy => agree(
            op,
            &[&|_| ops::group_by(&c.groups.0, &["g"], specs), &|o| {
                ops::group_by_opts(&c.groups.0, &["g"], specs, o)
            }],
            specops::group_by(&c.groups.0, &["g"], specs),
        ),
        Operator::GroupStateUpdate => {
            // The first delta builds the state (empty if its keys are
            // symbolic), the second is folded into it on both paths.
            let empty = Relation::empty(state_schema);
            let state =
                specops::group_state_update(&empty, &c.groups.0, &["g"], specs).unwrap_or(empty);
            let delta = &c.groups.1;
            agree(
                op,
                &[&|_| ops::group_state_update(state.clone(), delta, &["g"], specs)],
                specops::group_state_update(&state, delta, &["g"], specs),
            )
        }
        Operator::DeltaCollapse => {
            let empty = Relation::empty(Schema::new(["g", "v"]).unwrap());
            let state =
                specops::group_state_update(&empty, &c.groups.1, &["g"], &SUM_V).unwrap_or(empty);
            agree(
                op,
                &[&|_| ops::delta_collapse(&state)],
                specops::delta_collapse(&state),
            )
        }
    }
}

/// `rel` with a column `one` of `1`s appended: the cells a `*` spec
/// stands for.
fn with_unit_column(rel: &MKRel<P>) -> MKRel<P> {
    let mut out = Relation::empty(Schema::new(["g", "v", "one"]).unwrap());
    for (t, k) in rel.iter() {
        let mut row = t.values().to_vec();
        row.push(Value::int(1));
        out.insert(row, k.clone()).unwrap();
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn star_aggregates_what_a_unit_column_held(c in arb_case()) {
        // `specops`' `*` against `specops` over a hand-appended column of
        // 1s, for the whole-relation fold, `GROUP BY` and a group state.
        let (rel, delta) = (&c.groups.0, &c.groups.1);
        let unit = |attr| AggSpec { kind: MonoidKind::Sum, attr, out: "n" };
        let (star, one) = ([SUM_V[0], unit(ops::STAR)], [SUM_V[0], unit("one")]);
        let (rel1, delta1) = (with_unit_column(rel), with_unit_column(delta));
        prop_assert_eq!(specops::agg_all(rel, &star), specops::agg_all(&rel1, &one));
        prop_assert_eq!(
            specops::group_by(rel, &["g"], &star),
            specops::group_by(&rel1, &["g"], &one)
        );
        let empty = Relation::empty(Schema::new(["g", "v", "n"]).unwrap());
        prop_assert_eq!(
            specops::group_state_update(&empty, delta, &["g"], &star),
            specops::group_state_update(&empty, &delta1, &["g"], &one)
        );
    }

    #[test]
    fn natural_join_rejects_symbolic_keys_on_both_paths(c in arb_case()) {
        // Shared attribute `b` may be symbolic here; when it is, both
        // paths must raise the same rename-and-join_on error.
        agree(
            Operator::NaturalJoin,
            &[&|_| ops::natural_join(&c.r, &c.s_b)],
            specops::natural_join(&c.r, &c.s_b),
        )
    }
}

/// One property test per operator, each running its arm over 128
/// generated cases, so a failure names its operator; and one test that
/// every row of the table is listed here.
macro_rules! oracle_tests {
    ($($test:ident: $op:ident;)+) => {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            $(
                #[test]
                fn $test(c in arb_case()) {
                    check(Operator::$op, &c);
                }
            )+
        }

        #[test]
        fn every_operator_has_a_test() {
            let tested = [$(Operator::$op),+];
            for op in Operator::ALL {
                assert!(tested.contains(op), "{op:?} has no oracle test");
            }
        }
    };
}

oracle_tests! {
    annotation_at_hash_matches_spec: AnnotationAt;
    union_hash_matches_spec: Union;
    project_hash_matches_spec: Project;
    select_eq_hash_matches_spec: SelectEq;
    select_attrs_eq_hash_matches_spec: SelectAttrsEq;
    select_with_token_hash_matches_spec: SelectWithToken;
    select_cmp_hash_matches_spec: SelectCmp;
    select_attrs_cmp_hash_matches_spec: SelectAttrsCmp;
    select_where_hash_matches_spec: SelectWhere;
    join_on_hash_matches_spec: JoinOn;
    product_hash_matches_spec: Product;
    natural_join_hash_matches_spec: NaturalJoin;
    agg_hash_matches_spec: Agg;
    agg_all_hash_matches_spec: AggAll;
    group_by_hash_matches_spec: GroupBy;
    group_state_update_hash_matches_spec: GroupStateUpdate;
    delta_collapse_hash_matches_spec: DeltaCollapse;
}
