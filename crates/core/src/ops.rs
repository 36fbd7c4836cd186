//! Relational operators over `(M, K)`-relations (paper §3.2, §3.3, §4.3).
//!
//! An `(M, K)`-relation is a [`Relation`] whose values are [`Value`]s — the
//! type alias [`MKRel`]. The operators here implement the paper's extended
//! semantics: wherever the existence of an output tuple depends on comparing
//! (possibly symbolic) aggregate values, the tuple's annotation is
//! multiplied by equality tokens obtained from [`AggAnnotation`].
//!
//! When every relevant value is an ordinary constant, each token resolves to
//! `0`/`1` on the spot and the operators coincide with the classical
//! `K`-relational algebra of §2.1.
//!
//! ## Physical execution: one keyed token fold, one join
//!
//! The operators here are the *physical* layer. They split their input
//! into **ground** tuples (only constants at the positions the operator
//! compares) and **symbolic** tuples (a tensor-valued aggregate at one of
//! those positions): between constants every §4.3 equality token is `0` or
//! `1` and structural equality decides it, so only symbolic tuples pay for
//! token construction. How many those are is a property of the plan, not
//! a small number by nature: a base table has none, but every row a
//! `GROUP BY` with a symbolic aggregate emits is symbolic (measured: 500 of
//! 500 on the benchmark's `embed_agg_prov`, 31 of 31 on `wire_report`), so
//! whatever runs above one — `HAVING`, the select list — is all token path.
//!
//! The paper defines union, projection and grouping by one rule (§4.3
//! items 2, 3 and 7): every candidate output key `p` collects
//! `R(t') · Π_u [key(t')(u) = p(u)]` from every support tuple `t'`. That
//! rule is written once, as the private `keyed_fold`. A key is a *view* —
//! the cells of a borrowed input tuple at the operator's key positions,
//! hashed and compared where they lie — so no key tuple is built per input
//! row; an owned key exists only inside the row a finisher builds, once
//! per output row. Ground-keyed entries get a dense bucket id from one
//! serial pass, symbolic-keyed entries add their token-weighted
//! coefficients to the buckets, and each distinct symbolic key then forms
//! its own candidate against the buckets (one token per bucket, not per
//! member) and the symbolic-keyed entries. Which pairs
//! meet is narrowed by a **leading-run index** — symbolic keys and ground
//! buckets hashed by the key positions, from the first, that are constant
//! in every symbolic key — under an argument about the literal
//! left-to-right evaluation order that `keyed_fold`'s own documentation
//! gives; a key that is symbolic from its first position stays all-pairs.
//! Every `Σ` is one k-way
//! [`CommutativeSemiring::sum`].
//! The operators differ only in their key and in the *finisher* that
//! turns a candidate's coefficients into an output row:
//!
//! | operator | key | finisher |
//! |---|---|---|
//! | [`union`] | the whole tuple, over both supports | `Σ coeff` |
//! | [`project`] (over a symbolic row) | the projected positions | `Σ coeff` |
//! | group state ([`group_state_update`]'s delta) | the grouping positions | one raw tensor `Σ coeff ∗ t'(attr)` per spec, annotated `Σ coeff` |
//! | [`group_by`] | the grouping positions | the group-state row under [`delta_collapse`]'s per-row map: tensors re-normalized, annotated `δ(Σ coeff)` |
//!
//! So `group_by = delta_collapse ∘ group state` holds by construction: an
//! incrementally maintained `GROUP BY` and a from-scratch one are the same
//! fold, with and without the rendering.
//! `COUNT(*)` is a spec over [`STAR`], whose `t'(*)` is `ι(1)` for every
//! tuple: counting reads no column, so no column of `1`s is built in front
//! of the fold.
//!
//! [`union`] takes no shortcut: over ground rows of any size the keyed
//! fold is the additive merge.
//!
//! [`project`], [`join_on`] and [`product`] are the engine's kernels
//! ([`batch::Chunk::project_opts`], [`batch::hash_join`]) run over chunks
//! of their relations, so the operator oracle tests what a query runs. A
//! fringe-free projection picks columns (duplicates merge at
//! materialization); one with a symbolic row runs the keyed fold over the
//! relation itself, and neither its input nor its output goes through
//! columns. The join is pairwise rather than a keyed sum: a hash
//! build/probe over the ground × ground block — the columnar join, or,
//! with a symbolic row on either side, the same index over the rows whose
//! *key* cells are ground (`join_at`) — and the token-weighted nested
//! loop over pairs with a symbolic key on either side. [`natural_join`]
//! runs `krel`'s §2.1 join, which `krel::reference` also uses.
//!
//! The results are bit-identical to the literal §4.3 evaluation, which is
//! retained in [`crate::specops`] as the reference path (property-tested
//! equivalence; see `tests/specops_oracle_proptests.rs`).
//!
//! ## Vectorized batch execution
//!
//! The [`batch`] submodule carries the same ground/symbolic split through
//! whole pipeline segments, over columns read where the store keeps them;
//! handed a symbolic row, its cross-row kernels run this module's token
//! path by position over the chunk's relation.
//!
//! ## Partition-parallel execution
//!
//! The same bucketing is the seam for multi-threaded execution: under
//! the `*_opts` variants, `keyed_fold` finishes contiguous ranges of its
//! ground buckets — the sums, where the time goes; the bucketing pass
//! itself is serial — on scoped worker threads (see [`crate::par`]), from
//! 8 192 ground entries on.
//! Distinct keys finish into distinct rows, so the workers' outputs are
//! disjoint; each worker finishes its own buckets (symbolic cross terms
//! included) and the rows are concatenated in shard order, while the
//! symbolic candidates stay on the sequential token path. A join builds
//! its index serially and, from 8 192 probe rows on, probes contiguous
//! ranges of them on the workers — the columnar join and `join_at`'s
//! ground-key block alike; the pairs concatenate in probe order. Results
//! are bit-identical at every thread count (see
//! `tests/par_determinism_proptests.rs`).
//!
//! ## Output construction and duplicate groups
//!
//! The §4.3 rules define each output tuple's annotation as a sum over *all*
//! support tuples weighted by equality tokens. Two structurally distinct
//! output tuples may become equal after a homomorphism; both then carry the
//! same (fully cross-weighted) annotation, so on collision we keep one copy
//! — the paper's "duplicates are ignored" (appendix, commutation proof).
//! This is different from the additive merge of `K`-relations, which is why
//! an operator hands its output rows to the relation's bulk builder under
//! [`Merge::First`] (`from_map`), which also drops the zero-annotated ones:
//! the rows go into a `Vec` in the order the operator produces them — the
//! concatenation of the shard outputs in shard order, so "first" does not
//! depend on the thread count — and the builder sorts them once if they
//! did not arrive ascending. No ordered map is built row by row.

//!
//! ## One table of operators
//!
//! The operators live in a private module and leave it only through the
//! `operators!` table below. Each row names an [`Operator`], the functions
//! that execute it and their literal twin in [`crate::specops`]; the
//! table re-exports the functions, imports the twin, and lists the row in
//! [`Operator::ALL`]. So an operator cannot be exported without a twin (a
//! row naming a missing twin fails with E0432), a public function the
//! table does not name fails the build as an unreachable `pub` item, and
//! `tests/specops_oracle_proptests.rs` matches every [`Operator`] without
//! a wildcard, so a row without an oracle arm fails with E0004 (and one
//! whose arm no test runs fails `every_operator_has_a_test`).
//!
//! [`Relation`]: aggprov_krel::relation::Relation
//! [`Merge::First`]: aggprov_krel::relation::Merge::First
//! [`Value`]: crate::value::Value
//! [`AggAnnotation`]: crate::annotation::AggAnnotation
//! [`CommutativeSemiring::sum`]: aggprov_algebra::semiring::CommutativeSemiring::sum

// The execute path returns errors, it never panics — here and in the
// `physical`, `batch` and `typed` submodules below.
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented)]

pub mod batch;
mod physical;
pub(crate) mod typed;

pub(crate) use physical::{
    agg_entries, from_map, group_by_entries, group_by_layout, insert_distinct, join_at,
    project_fold,
};
pub use physical::{has_symbolic, lift, AggSpec, MKRel, STAR};

/// One row per operator: doc line, variant, physical functions, `specops`
/// twin.
macro_rules! operators {
    ($($(#[doc = $doc:literal])+ $op:ident($($f:ident),+) = specops::$twin:ident;)+) => {
        $(
            pub use physical::{$($f),+};
            #[allow(unused_imports, reason = "the import checks that the twin exists")]
            use crate::specops::$twin as _;
        )+

        /// A physical operator of this module: one row of its table.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Operator {
            $($(#[doc = $doc])+ $op,)+
        }

        impl Operator {
            /// Every operator, in table order.
            pub const ALL: &'static [Operator] = &[$(Operator::$op),+];
        }
    };
}

operators! {
    /// The extended annotation lookup `R(t)`.
    AnnotationAt(annotation_at) = specops::annotation_at;
    /// Union (§4.3 item 2).
    Union(union, union_opts) = specops::union;
    /// Projection (§4.3 item 3).
    Project(project, project_opts) = specops::project;
    /// Selection `σ_{attr = v}`.
    SelectEq(select_eq) = specops::select_eq;
    /// Selection `σ_{a = b}` between two attributes.
    SelectAttrsEq(select_attrs_eq) = specops::select_attrs_eq;
    /// Selection by a caller-built token per tuple.
    SelectWithToken(select_with_token) = specops::select_with_token;
    /// Selection `σ_{attr θ v}` by an order predicate.
    SelectCmp(select_cmp) = specops::select_cmp;
    /// Selection `σ_{a θ b}` between two attributes.
    SelectAttrsCmp(select_attrs_cmp) = specops::select_attrs_cmp;
    /// Selection by a plain boolean predicate.
    SelectWhere(select_where) = specops::select_where;
    /// Equi-join on attribute pairs.
    JoinOn(join_on, join_on_opts) = specops::join_on;
    /// Cartesian product.
    Product(product) = specops::product;
    /// Natural join on the shared attributes.
    NaturalJoin(natural_join) = specops::natural_join;
    /// Whole-relation aggregation, one spec.
    Agg(agg) = specops::agg;
    /// Whole-relation aggregation, several specs.
    AggAll(agg_all) = specops::agg_all;
    /// `GROUP BY` (§4.3 item 7).
    GroupBy(group_by, group_by_opts) = specops::group_by;
    /// One delta folded into a group state.
    GroupStateUpdate(group_state_update) = specops::group_state_update;
    /// A group state rendered as the `GROUP BY` output.
    DeltaCollapse(delta_collapse) = specops::delta_collapse;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::km::Km;
    use crate::value::Value;
    use aggprov_algebra::domain::Const;
    use aggprov_algebra::monoid::MonoidKind;
    use aggprov_algebra::poly::NatPoly;
    use aggprov_algebra::semiring::{CommutativeSemiring, Nat};
    use aggprov_algebra::tensor::Tensor;
    use aggprov_krel::relation::Relation;
    use aggprov_krel::schema::Schema;

    type P = Km<NatPoly>;

    fn tok(name: &str) -> P {
        Km::embed(NatPoly::token(name))
    }

    fn sch(names: &[&str]) -> Schema {
        Schema::new(names.iter().copied()).unwrap()
    }

    /// Example 3.8's relation: (dept, sal) with tokens r1, r2, r3.
    fn example_3_8() -> MKRel<P> {
        Relation::from_rows(
            sch(&["dept", "sal"]),
            [
                (vec![Value::str("d1"), Value::int(20)], tok("r1")),
                (vec![Value::str("d1"), Value::int(10)], tok("r2")),
                (vec![Value::str("d2"), Value::int(10)], tok("r3")),
            ],
        )
        .unwrap()
    }

    #[test]
    fn example_3_4_agg() {
        // Single-attribute relation {20↦r1, 10↦r2, 30↦r3}; AGG_SUM gives one
        // tuple annotated 1 with value r1⊗20 + r2⊗10 + r3⊗30.
        let rel: MKRel<P> = Relation::from_rows(
            sch(&["sal"]),
            [
                (vec![Value::int(20)], tok("r1")),
                (vec![Value::int(10)], tok("r2")),
                (vec![Value::int(30)], tok("r3")),
            ],
        )
        .unwrap();
        let out = agg(&rel, AggSpec::new(MonoidKind::Sum, "sal")).unwrap();
        assert_eq!(out.len(), 1);
        let (t, k) = out.iter().next().unwrap();
        assert!(k.is_one());
        assert_eq!(t.get(0).to_string(), "SUM⟨(r2)⊗10 + (r1)⊗20 + (r3)⊗30⟩");
    }

    #[test]
    fn empty_agg_yields_zero_of_monoid() {
        let rel: MKRel<P> = Relation::empty(sch(&["sal"]));
        let out = agg(&rel, AggSpec::new(MonoidKind::Sum, "sal")).unwrap();
        assert_eq!(out.len(), 1, "AGG of empty relation is not empty (§3.2)");
        let (t, k) = out.iter().next().unwrap();
        assert!(k.is_one());
        assert_eq!(t.get(0), &Value::int(0));
    }

    #[test]
    fn example_3_8_group_by() {
        // GB dept, SUM(sal): d1 ↦ r1⊗20+r2⊗10 @ δ(r1+r2); d2 ↦ r3⊗10 @ δ(r3).
        let out = group_by(
            &example_3_8(),
            &["dept"],
            &[AggSpec::new(MonoidKind::Sum, "sal")],
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        let rows: Vec<String> = out
            .iter()
            .map(|(t, k)| format!("{} {} @ {}", t.get(0), t.get(1), k))
            .collect();
        assert_eq!(
            rows,
            vec![
                "'d1' SUM⟨(r2)⊗10 + (r1)⊗20⟩ @ δ(r1 + r2)",
                "'d2' SUM⟨(r3)⊗10⟩ @ δ(r3)",
            ]
        );
    }

    #[test]
    fn group_by_over_bags_matches_plain_sql() {
        // With K = ℕ everything resolves: group sums are constants and the
        // group annotation is multiplicity 1.
        let rel: MKRel<Nat> = Relation::from_rows(
            sch(&["dept", "sal"]),
            [
                (vec![Value::str("d1"), Value::int(20)], Nat(2)),
                (vec![Value::str("d1"), Value::int(10)], Nat(1)),
                (vec![Value::str("d2"), Value::int(5)], Nat(3)),
            ],
        )
        .unwrap();
        let out = group_by(&rel, &["dept"], &[AggSpec::new(MonoidKind::Sum, "sal")]).unwrap();
        let rows: Vec<(String, String, Nat)> = out
            .iter()
            .map(|(t, k)| (t.get(0).to_string(), t.get(1).to_string(), *k))
            .collect();
        assert_eq!(
            rows,
            vec![
                ("'d1'".into(), "50".into(), Nat(1)),
                ("'d2'".into(), "15".into(), Nat(1)),
            ]
        );
    }

    #[test]
    fn selection_on_aggregate_multiplies_token() {
        // Example 4.3: select groups whose summed salary equals 20.
        let grouped = group_by(
            &example_3_8(),
            &["dept"],
            &[AggSpec::new(MonoidKind::Sum, "sal")],
        )
        .unwrap();
        let selected = select_eq(&grouped, "sal", &Value::int(20)).unwrap();
        assert_eq!(selected.len(), 2, "both tuples kept with symbolic tokens");
        let anns: Vec<String> = selected.iter().map(|(_, k)| k.to_string()).collect();
        assert!(
            anns[0].contains("δ(r1 + r2)") && anns[0].contains("=SUM="),
            "δ·token product: {}",
            anns[0]
        );
        assert!(
            anns[1].contains("δ(r3)") && anns[1].contains("=SUM="),
            "δ·token product: {}",
            anns[1]
        );
    }

    #[test]
    fn union_requires_matching_schemas() {
        let r1: MKRel<P> = Relation::empty(sch(&["a"]));
        let r2: MKRel<P> = Relation::empty(sch(&["b"]));
        assert!(union(&r1, &r2).is_err());
    }

    #[test]
    fn symbolic_union_cross_counts() {
        // Two one-attribute tuples holding symbolic aggregates that may or
        // may not be equal: each output annotation includes the other
        // tuple's contribution weighted by a token.
        let t1 = Value::Agg(
            MonoidKind::Sum,
            Tensor::from_terms(&MonoidKind::Sum, [(tok("x"), Const::int(10))]),
        );
        let t2 = Value::Agg(
            MonoidKind::Sum,
            Tensor::from_terms(&MonoidKind::Sum, [(tok("y"), Const::int(10))]),
        );
        let r1: MKRel<P> = Relation::from_rows(sch(&["v"]), [(vec![t1], tok("a"))]).unwrap();
        let r2: MKRel<P> = Relation::from_rows(sch(&["v"]), [(vec![t2], tok("b"))]).unwrap();
        let u = union(&r1, &r2).unwrap();
        assert_eq!(u.len(), 2);
        for (_, k) in u.iter() {
            let s = k.to_string();
            assert!(s.contains('['), "annotation has a token: {s}");
        }
        // Valuating x = y = 1 makes the tensors equal: both annotations
        // become a + b, and the tuples merge structurally.
        let v = crate::eval::map_hom_mk(&u, &|p: &NatPoly| {
            aggprov_algebra::hom::Valuation::<Nat>::ones().eval(p)
        });
        assert_eq!(v.len(), 1);
        let (_, k) = v.iter().next().unwrap();
        assert_eq!(k.try_collapse(), Some(Nat(2)));
    }

    #[test]
    fn join_on_aggregate_values() {
        // Join two aggregated relations on their (symbolic) sums.
        let g = group_by(
            &example_3_8(),
            &["dept"],
            &[AggSpec::new(MonoidKind::Sum, "sal")],
        )
        .unwrap();
        let g2 = {
            let r = g.rename("dept", "dept2").unwrap();
            r.rename("sal", "sal2").unwrap()
        };
        let j = join_on(&g, &g2, &[("sal", "sal2")]).unwrap();
        // 2×2 candidate pairs, all kept symbolically (d1⋈d1 and d2⋈d2 have
        // syntactically equal sides → token 1).
        assert_eq!(j.len(), 4);
    }

    #[test]
    fn natural_join_fast_path_on_constants() {
        let dept: MKRel<P> = Relation::from_rows(
            sch(&["dept", "head"]),
            [(vec![Value::str("d1"), Value::str("alice")], P::one())],
        )
        .unwrap();
        let j = natural_join(&example_3_8(), &dept).unwrap();
        assert_eq!(j.len(), 2);
        for (_, k) in j.iter() {
            assert!(k.try_collapse().is_some(), "no tokens on constant join");
        }
    }

    #[test]
    fn group_and_agg_attr_must_differ() {
        assert!(group_by(
            &example_3_8(),
            &["sal"],
            &[AggSpec::new(MonoidKind::Sum, "sal")],
        )
        .is_err());
    }
}
