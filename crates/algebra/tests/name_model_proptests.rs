//! The inline short name against its model, the `str` it holds.
//!
//! A [`Name`] of at most 7 bytes is stored inline and a longer one as an
//! `Arc<str>`; nothing that compares, hashes or prints a name may tell the
//! forms apart. Every property is checked over pairs of names of 0–16
//! bytes, NUL bytes and multi-byte UTF-8 included, so both forms and the
//! boundary between them (a 2-byte `é` ending at byte 6, 7 or 8) are
//! exercised: equality, byte order and hasher input of [`Name`], [`Var`]
//! and [`Const::Str`] are those of `String` / `Arc<str>`.

use aggprov_algebra::domain::Const;
use aggprov_algebra::name::Name;
use aggprov_algebra::poly::Var;
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// 1-, 2-, 3- and 4-byte characters, NUL and the top of ASCII.
const CHARS: [char; 9] = ['a', 'b', 'z', '\0', '\u{7f}', 'é', 'ü', '€', '😀'];

/// The boundary cases, spelled out.
const EDGES: [&str; 14] = [
    "",
    "\0",
    "a\0",
    "\0\0\0\0\0\0\0",
    "\0\0\0\0\0\0\0\0",
    "abcdefg",
    "abcdefgh",
    "ééé",
    "éééé",
    "aééé",
    "€€",
    "a€€",
    "€€€",
    "😀😀",
];

/// A string of at most 16 bytes over [`CHARS`].
fn arb_name() -> impl Strategy<Value = String> {
    let chars = prop::collection::vec(prop::sample::select(CHARS.to_vec()), 0..17);
    prop_oneof![
        chars.prop_map(|cs| {
            let mut s: String = cs.into_iter().collect();
            while s.len() > 16 {
                s.pop();
            }
            s
        }),
        prop::sample::select(EDGES.to_vec()).prop_map(str::to_string),
    ]
}

fn hash_of(x: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

/// Every property of one name against its model.
fn check_one(s: &str) {
    let name = Name::new(s);
    assert_eq!(name.as_str(), s);
    assert_eq!(name.is_inline(), s.len() <= Name::INLINE, "{s:?}");
    assert_eq!(name.to_string(), s);
    assert_eq!(format!("{name:>20}|"), format!("{s:>20}|"));
    assert_eq!(format!("{name:?}"), format!("{s:?}"));
    assert_eq!(hash_of(&name), hash_of(&s));
    assert_eq!(hash_of(&name), hash_of(&Arc::<str>::from(s)));
    let var = Var::new(s);
    assert_eq!(var.name(), s);
    assert_eq!(var.to_string(), s);
    assert_eq!(hash_of(&var), hash_of(&Arc::<str>::from(s)));
    let c = Const::str(s);
    assert_eq!(c.as_str(), Some(s));
    assert_eq!(c.to_string(), format!("'{s}'"));
    // Strings still sort after booleans and numbers.
    assert!(c > Const::Bool(true) && c > Const::int(i64::MAX));
}

/// Equality and order of two names, tokens and string constants against
/// those of their strings.
fn check_pair(a: &str, b: &str) {
    let expected = a.cmp(b);
    let (na, nb) = (Name::new(a), Name::new(b));
    assert_eq!(na.cmp(&nb), expected, "{a:?} against {b:?}");
    assert_eq!(na == nb, a == b, "{a:?} against {b:?}");
    assert_eq!(
        Arc::<str>::from(a).cmp(&Arc::<str>::from(b)),
        expected,
        "the model itself"
    );
    let (va, vb) = (Var::new(a), Var::new(b));
    assert_eq!((va.cmp(&vb), va == vb), (expected, a == b));
    let (ca, cb) = (Const::str(a), Const::str(b));
    assert_eq!((ca.cmp(&cb), ca == cb), (expected, a == b));
    assert_eq!(hash_of(&ca) == hash_of(&cb), a == b);
}

#[test]
fn boundary_names_match_the_model() {
    for a in EDGES {
        check_one(a);
        for b in EDGES {
            check_pair(a, b);
        }
    }
    let mut names: Vec<Name> = EDGES.iter().map(|s| Name::new(s)).collect();
    let mut model = EDGES.to_vec();
    names.sort();
    model.sort();
    assert!(names.iter().map(Name::as_str).eq(model));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn names_match_the_model(a in arb_name(), b in arb_name()) {
        check_one(&a);
        check_pair(&a, &b);
        check_pair(&a, &a.clone());
    }
}
