//! Typed unboxed columns: what a kernel builds when it needs a column of
//! its own.
//!
//! A scan builds none — a batch reads its cells where the relation's
//! store keeps them (see [`crate::batch`]). A column is built where a
//! kernel must hash one (a join's build key, typed over its selected rows
//! only) or makes one (the unit column of `COUNT`, an `AVG` quotient, a
//! batch assembled by a caller with [`crate::batch::ColumnBatch::from_columns`]).
//! A boxed `Vec<Const>` column pays an enum discriminant and (for
//! rationals) a numerator/denominator pair per cell; this module
//! specializes the storage:
//!
//! * [`TypedColumn::Num`] — an all-integer column as an unboxed
//!   `Vec<i64>` (every value satisfies `Num::as_int`), so a filter
//!   comparison is a single machine compare and rustc can autovectorize
//!   the loop;
//! * [`TypedColumn::Str`] — an all-string column as dictionary codes
//!   ([`StrColumn`]: `Vec<u32>` codes plus an interned [`Name`]
//!   dictionary), so equality is a `u32` compare and a join's build rows
//!   fall into one bucket per code;
//! * [`TypedColumn::Boxed`] — the fallback `Vec<Const>` for mixed-type
//!   columns, booleans, non-integer rationals, and `±∞`.
//!
//! The data alone decides the layout: the variant is detected at
//! construction time by [`TypedColumn::push`]. A column starts in the
//! probing (empty `Num`) state, adopts the variant of its first value, and
//! **demotes** itself to `Boxed` — re-boxing the prefix once — the moment a
//! value arrives that the current variant cannot hold. Demotion is
//! one-way, so a column changes representation at most twice and
//! construction stays linear.
//!
//! Round trips are exact: `Num` re-materializes through [`Const::int`]
//! and `Rational` is kept in lowest terms, so the `i64 → Const` lift
//! reproduces the input bit for bit; `Str` re-materializes by cloning the
//! interned [`Name`] out of the dictionary (a 16-byte copy for a short
//! string, a reference-count bump for a long one).
//!
//! Equality on [`TypedColumn`] (and [`StrColumn`]) is **representational**:
//! the same values held as `Num(vec![1])` and `Boxed(vec![Const::int(1)])`
//! compare unequal, as do equal string columns whose dictionaries differ
//! (a [`StrColumn::gather`]ed column keeps its parent's whole dictionary,
//! so it differs from a column interned from the gathered values alone).
//! Compare decoded values ([`TypedColumn::to_consts`]) for semantic
//! equality.

#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented)]

use aggprov_algebra::domain::Const;
use aggprov_algebra::name::Name;
use std::collections::HashMap;
use std::sync::Arc;

/// The interned strings of a [`StrColumn`], indexed by code, with the
/// side map that makes interning and literal lookup O(1); `index` always
/// mirrors `strs`.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
struct Dict {
    strs: Vec<Name>,
    index: HashMap<Name, u32>,
}

/// A dictionary-encoded string column: one `u32` code per row plus the
/// interned dictionary it indexes.
///
/// A gathered column ([`StrColumn::gather`]) shares its parent's
/// dictionary through one `Arc` (no copy, no re-interning), so a
/// dictionary may be a superset of the values actually present in
/// `codes`; interning a new string into a shared dictionary copies it
/// first ([`StrColumn::push`]).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct StrColumn {
    codes: Vec<u32>,
    dict: Arc<Dict>,
}

impl StrColumn {
    /// An empty column.
    pub fn new() -> Self {
        StrColumn::default()
    }

    /// An empty column with row capacity pre-reserved.
    pub fn with_capacity(rows: usize) -> Self {
        StrColumn {
            codes: Vec::with_capacity(rows),
            dict: Arc::default(),
        }
    }

    /// The number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True iff the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Interns `s` (if new) and appends its code. Returns `false`,
    /// leaving the column unchanged, iff the `u32` code space is
    /// exhausted — the caller then demotes to boxed storage. A new string
    /// going into a dictionary shared with another column copies the
    /// dictionary first, so the other column never sees it.
    pub fn push(&mut self, s: &Name) -> bool {
        if let Some(&code) = self.dict.index.get(s) {
            self.codes.push(code);
            return true;
        }
        let Ok(code) = u32::try_from(self.dict.strs.len()) else {
            return false;
        };
        let dict = Arc::make_mut(&mut self.dict);
        dict.strs.push(s.clone());
        dict.index.insert(s.clone(), code);
        self.codes.push(code);
        true
    }

    /// The per-row codes, dense.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The dictionary, indexed by code.
    pub fn dict(&self) -> &[Name] {
        &self.dict.strs
    }

    /// The code interned for `s`, if `s` appears in the dictionary.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.dict.index.get(s).copied()
    }

    /// The string a code stands for.
    pub fn decode(&self, code: u32) -> Option<&Name> {
        self.dict.strs.get(code as usize)
    }

    /// The string at row `r`.
    pub fn get(&self, r: usize) -> Option<&Name> {
        self.decode(*self.codes.get(r)?)
    }

    /// Gathers the named rows into a new column **sharing this
    /// dictionary** (one `Arc` bump: O(rows), whatever the dictionary's
    /// size). `None` if any row is out of range.
    pub fn gather(&self, rows: &[u32]) -> Option<StrColumn> {
        let mut codes = Vec::with_capacity(rows.len());
        for &r in rows {
            codes.push(*self.codes.get(r as usize)?);
        }
        Some(StrColumn {
            codes,
            dict: Arc::clone(&self.dict),
        })
    }
}

/// One typed column of a ground batch. See the module docs for the
/// variant-detection and demotion discipline.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TypedColumn {
    /// Every value is an integer in `i64` range, stored unboxed.
    Num(Vec<i64>),
    /// Every value is a string, dictionary-encoded.
    Str(StrColumn),
    /// The fallback: values kept boxed, one `Const` per row.
    Boxed(Vec<Const>),
}

impl TypedColumn {
    /// Builds a column from boxed values by probing (variant detection
    /// with demotion, as in [`TypedColumn::push`]).
    pub fn from_consts(vals: Vec<Const>) -> TypedColumn {
        let mut col = TypedColumn::Num(Vec::with_capacity(vals.len()));
        for c in vals {
            col.push(c);
        }
        col
    }

    /// The number of rows.
    pub fn len(&self) -> usize {
        match self {
            TypedColumn::Num(v) => v.len(),
            TypedColumn::Str(sc) => sc.len(),
            TypedColumn::Boxed(v) => v.len(),
        }
    }

    /// True iff the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The variant name, for diagnostics and tests.
    pub fn variant(&self) -> &'static str {
        match self {
            TypedColumn::Num(_) => "num",
            TypedColumn::Str(_) => "str",
            TypedColumn::Boxed(_) => "boxed",
        }
    }

    /// Appends one value, demoting the representation if it cannot hold
    /// it (see the module docs). Never fails.
    pub fn push(&mut self, c: Const) {
        match self {
            TypedColumn::Num(v) => {
                if let Const::Num(n) = &c {
                    if let Some(i) = n.as_int() {
                        v.push(i);
                        return;
                    }
                }
                if v.is_empty() {
                    // Probing state with no prefix: adopt the variant of
                    // this first value instead of demoting.
                    if let Const::Str(s) = &c {
                        let mut sc = StrColumn::with_capacity(v.capacity());
                        if sc.push(s) {
                            *self = TypedColumn::Str(sc);
                            return;
                        }
                    }
                    *self = TypedColumn::Boxed(Vec::with_capacity(v.capacity()));
                } else {
                    let boxed: Vec<Const> = v.iter().map(|&i| Const::int(i)).collect();
                    *self = TypedColumn::Boxed(boxed);
                }
                self.push(c);
            }
            TypedColumn::Str(sc) => {
                if let Const::Str(s) = &c {
                    if sc.push(s) {
                        return;
                    }
                }
                // Type mismatch (or dictionary overflow): re-box the
                // prefix. Codes come from `push`, so decoding the prefix
                // cannot fail; `filter_map` keeps the lint-checked path
                // panic-free all the same.
                let boxed: Vec<Const> = sc
                    .codes()
                    .iter()
                    .filter_map(|&code| sc.decode(code).cloned().map(Const::Str))
                    .collect();
                debug_assert_eq!(boxed.len(), sc.len());
                *self = TypedColumn::Boxed(boxed);
                self.push(c);
            }
            TypedColumn::Boxed(v) => v.push(c),
        }
    }

    /// The value at row `r`, re-materialized as a `Const` (a [`Name`]
    /// clone for strings, a fresh integer `Num` for unboxed values).
    pub fn get(&self, r: usize) -> Option<Const> {
        match self {
            TypedColumn::Num(v) => v.get(r).map(|&i| Const::int(i)),
            TypedColumn::Str(sc) => sc.get(r).cloned().map(Const::Str),
            TypedColumn::Boxed(v) => v.get(r).cloned(),
        }
    }

    /// Gathers the named rows into a new column of the same variant.
    /// `None` if any row is out of range.
    pub fn gather(&self, rows: &[u32]) -> Option<TypedColumn> {
        match self {
            TypedColumn::Num(v) => {
                let mut out = Vec::with_capacity(rows.len());
                for &r in rows {
                    out.push(*v.get(r as usize)?);
                }
                Some(TypedColumn::Num(out))
            }
            TypedColumn::Str(sc) => sc.gather(rows).map(TypedColumn::Str),
            TypedColumn::Boxed(v) => {
                let mut out = Vec::with_capacity(rows.len());
                for &r in rows {
                    out.push(v.get(r as usize)?.clone());
                }
                Some(TypedColumn::Boxed(out))
            }
        }
    }

    /// Re-materializes every row as a boxed value (for semantic
    /// comparisons and slow paths).
    pub fn to_consts(&self) -> Vec<Const> {
        match self {
            TypedColumn::Num(v) => v.iter().map(|&i| Const::int(i)).collect(),
            TypedColumn::Str(sc) => sc
                .codes()
                .iter()
                .filter_map(|&code| sc.decode(code).cloned().map(Const::Str))
                .collect(),
            TypedColumn::Boxed(v) => v.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggprov_algebra::num::Num;

    #[test]
    fn probes_num_and_round_trips() {
        let vals = vec![Const::int(3), Const::int(-7), Const::int(0)];
        let col = TypedColumn::from_consts(vals.clone());
        assert_eq!(col, TypedColumn::Num(vec![3, -7, 0]));
        assert_eq!(col.to_consts(), vals);
        assert_eq!(col.get(1), Some(Const::int(-7)));
    }

    #[test]
    fn probes_str_and_dictionary_encodes() {
        let vals = vec![Const::str("a"), Const::str("b"), Const::str("a")];
        let col = TypedColumn::from_consts(vals.clone());
        let TypedColumn::Str(sc) = &col else {
            panic!("expected Str, got {}", col.variant());
        };
        assert_eq!(sc.codes(), &[0, 1, 0]);
        assert_eq!(sc.dict().len(), 2);
        assert_eq!(sc.code_of("b"), Some(1));
        assert_eq!(sc.code_of("c"), None);
        assert_eq!(col.to_consts(), vals);
    }

    #[test]
    fn mixed_types_demote_to_boxed() {
        // Num prefix, then a string: prefix re-boxed exactly.
        let vals = vec![Const::int(1), Const::str("x"), Const::Bool(true)];
        let col = TypedColumn::from_consts(vals.clone());
        assert_eq!(col.variant(), "boxed");
        assert_eq!(col.to_consts(), vals);

        // Str prefix, then a number.
        let vals = vec![Const::str("x"), Const::str("x"), Const::int(1)];
        let col = TypedColumn::from_consts(vals.clone());
        assert_eq!(col.variant(), "boxed");
        assert_eq!(col.to_consts(), vals);
    }

    #[test]
    fn non_integer_numerics_stay_boxed() {
        // Rationals with denominators and ±∞ do not fit `Vec<i64>`.
        let vals = vec![Const::Num(Num::ratio(1, 2)), Const::Num(Num::PosInf)];
        let col = TypedColumn::from_consts(vals.clone());
        assert_eq!(col.variant(), "boxed");
        assert_eq!(col.to_consts(), vals);

        // A bool as first value adopts Boxed from the probing state.
        let col = TypedColumn::from_consts(vec![Const::Bool(false)]);
        assert_eq!(col.variant(), "boxed");
    }

    #[test]
    fn gather_shares_the_dictionary() {
        let col = TypedColumn::from_consts(vec![
            Const::str("a"),
            Const::str("b"),
            Const::str("c"),
            Const::str("b"),
        ]);
        let g = col.gather(&[3, 1, 0]).unwrap();
        let TypedColumn::Str(sc) = &g else {
            panic!("gather changed variant");
        };
        assert_eq!(sc.dict().len(), 3, "dictionary shared, not re-interned");
        assert_eq!(
            g.to_consts(),
            vec![Const::str("b"), Const::str("b"), Const::str("a")]
        );
        assert_eq!(col.gather(&[4]), None, "out of range");

        let n = TypedColumn::Num(vec![10, 20, 30]);
        assert_eq!(n.gather(&[2, 0]), Some(TypedColumn::Num(vec![30, 10])));
    }

    #[test]
    fn gather_is_o_rows_over_a_large_dictionary() {
        // 50 000 distinct strings; gathering 3 rows must not copy the
        // dictionary (or its index) — parent and child share one `Arc`.
        let mut parent = StrColumn::new();
        for i in 0..50_000 {
            assert!(parent.push(&Name::new(&format!("s{i}"))));
        }
        let mut g = parent.gather(&[49_999, 0, 7]).unwrap();
        assert!(Arc::ptr_eq(&parent.dict, &g.dict), "dictionary copied");
        let decoded: Vec<&str> = (0..3).filter_map(|r| g.get(r).map(|s| &**s)).collect();
        assert_eq!(decoded, ["s49999", "s0", "s7"]);
        // A known string reuses its code and keeps sharing…
        assert!(g.push(&Name::new("s7")));
        assert!(Arc::ptr_eq(&parent.dict, &g.dict));
        // …a new one copies on write: the parent never sees it.
        assert!(g.push(&Name::new("fresh")));
        assert!(!Arc::ptr_eq(&parent.dict, &g.dict));
        assert_eq!(g.get(4).map(|s| &**s), Some("fresh"));
        assert_eq!(parent.dict().len(), 50_000);
        assert_eq!(parent.code_of("fresh"), None);
        assert_eq!(g.code_of("fresh"), Some(50_000));
    }
}
