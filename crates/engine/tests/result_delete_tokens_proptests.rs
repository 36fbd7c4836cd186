//! `ResultSet::delete_tokens` maps only the rows that mention a deleted
//! token (`eval::map_hom_mk_where`), and must be bit for bit the full
//! image `map_hom(|p| p.drop_vars(..))` — every row mapped, colliding
//! images keeping the first — including results where two rows' images
//! collide after the deletion, and ones no deleted token touches.

use aggprov_algebra::domain::Const;
use aggprov_algebra::monoid::MonoidKind;
use aggprov_algebra::poly::{NatPoly, Var};
use aggprov_algebra::semiring::CommutativeSemiring;
use aggprov_algebra::tensor::Tensor;
use aggprov_core::km::Km;
use aggprov_core::ops::MKRel;
use aggprov_core::Value;
use aggprov_engine::ResultSet;
use aggprov_krel::relation::Relation;
use aggprov_krel::schema::Schema;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::collections::BTreeSet;

type P = Km<NatPoly>;

const TOKENS: [&str; 4] = ["x", "y", "z", "w"];

fn tok(name: &str) -> P {
    Km::embed(NatPoly::token(name))
}

/// One generated row: a ground key, up to two `(token, weight)` terms of a
/// `SUM` cell (none: the cell is the constant `0`), and one or two tokens
/// summed into the annotation. Few tokens and weights, so that deleting
/// some makes distinct rows' images equal.
type RawRow = (i64, Vec<(usize, i64)>, Vec<usize>);

fn arb_rows() -> impl Strategy<Value = Vec<RawRow>> {
    let terms = prop::collection::vec((0..TOKENS.len(), 1i64..3), 0..3);
    let ann = prop::collection::vec(0..TOKENS.len(), 1..3);
    prop::collection::vec((0i64..2, terms, ann), 0..8)
}

fn arb_deleted() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0..TOKENS.len(), 0..3)
}

/// A result of `(key, sum)` rows; equal rows merge as a query's would.
fn result(rows: &[RawRow]) -> ResultSet<P> {
    let kind = MonoidKind::Sum;
    let rows = rows.iter().map(|(key, terms, ann)| {
        let terms = terms.iter().map(|&(t, c)| (tok(TOKENS[t]), Const::int(c)));
        let sum = Value::agg_normalized(kind, Tensor::from_terms(&kind, terms));
        let ann = P::sum(ann.iter().map(|&t| tok(TOKENS[t])).collect());
        (vec![Value::int(*key), sum], ann)
    });
    let rel: MKRel<P> = Relation::from_rows(Schema::new(["k", "s"]).unwrap(), rows).unwrap();
    ResultSet::from_relation(rel)
}

fn names(deleted: &[usize]) -> Vec<&'static str> {
    deleted.iter().map(|&t| TOKENS[t]).collect()
}

/// The full image under the deletion homomorphism: every row mapped.
fn full_image(res: &ResultSet<P>, deleted: &[usize]) -> MKRel<P> {
    let vars: BTreeSet<Var> = names(deleted).into_iter().map(Var::new).collect();
    res.map_hom(|p| p.drop_vars(&mut |v| vars.contains(v)))
        .into_relation()
}

/// True iff two rows of `res` map to one row under the deletion.
fn images_collide(res: &ResultSet<P>, deleted: &[usize]) -> bool {
    full_image(res, deleted).len() < res.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn delete_tokens_is_the_full_image(rows in arb_rows(), deleted in arb_deleted()) {
        let res = result(&rows);
        let got = res.delete_tokens(names(&deleted));
        prop_assert_eq!(got.relation(), &full_image(&res, &deleted));
    }
}

/// The property above checks collisions only if its generator makes them:
/// results whose images collide, results a deletion leaves as they are,
/// and results it changes without a collision.
#[test]
fn generator_reaches_colliding_images() {
    let mut rng = TestRng::for_test("generator_reaches_colliding_images");
    let mut reached = BTreeSet::new();
    for _ in 0..256 {
        let res = result(&arb_rows().generate(&mut rng));
        let deleted = arb_deleted().generate(&mut rng);
        reached.insert(if images_collide(&res, &deleted) {
            "images collide"
        } else if full_image(&res, &deleted) == *res.relation() {
            "untouched"
        } else {
            "changed, no collision"
        });
    }
    assert_eq!(
        reached,
        BTreeSet::from(["changed, no collision", "images collide", "untouched"])
    );
}

#[test]
fn a_colliding_image_keeps_the_first_rows_annotation() {
    // `(0, SUM⟨x⊗1 + y⊗2⟩) @ z` and `(0, SUM⟨x⊗1⟩) @ w` are one row once
    // `y` is deleted; a row that mentions no deleted token keeps its store.
    let rows: Vec<RawRow> = vec![
        (0, vec![(0, 1), (1, 2)], vec![2]),
        (0, vec![(0, 1)], vec![3]),
    ];
    let res = result(&rows);
    let deleted = [1];
    assert!(images_collide(&res, &deleted));
    let got = res.delete_tokens(names(&deleted));
    assert_eq!(got.len(), 1);
    assert_eq!(got.relation(), &full_image(&res, &deleted));
    let untouched = res.delete_tokens(["q"]);
    assert!(untouched.relation().shares_tuples_with(res.relation()));
}
