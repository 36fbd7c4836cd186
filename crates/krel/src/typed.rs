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
//! compare unequal, as do equal string columns whose dictionaries differ.
//! Compare decoded values ([`TypedColumn::get`]) for semantic equality.

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
/// A clone shares its parent's dictionary through one `Arc` (no copy, no
/// re-interning); interning a new string into a shared dictionary copies
/// it first ([`StrColumn::push`]).
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggprov_algebra::num::Num;

    /// Every row of `col`, read back through [`TypedColumn::get`].
    fn decoded(col: &TypedColumn) -> Vec<Const> {
        (0..col.len()).filter_map(|r| col.get(r)).collect()
    }

    #[test]
    fn probes_num_and_round_trips() {
        let vals = vec![Const::int(3), Const::int(-7), Const::int(0)];
        let col = TypedColumn::from_consts(vals.clone());
        assert_eq!(col, TypedColumn::Num(vec![3, -7, 0]));
        assert_eq!(decoded(&col), vals);
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
        assert_eq!(decoded(&col), vals);
    }

    #[test]
    fn mixed_types_demote_to_boxed() {
        // Num prefix, then a string: prefix re-boxed exactly.
        let vals = vec![Const::int(1), Const::str("x"), Const::Bool(true)];
        let col = TypedColumn::from_consts(vals.clone());
        assert_eq!(col.variant(), "boxed");
        assert_eq!(decoded(&col), vals);

        // Str prefix, then a number.
        let vals = vec![Const::str("x"), Const::str("x"), Const::int(1)];
        let col = TypedColumn::from_consts(vals.clone());
        assert_eq!(col.variant(), "boxed");
        assert_eq!(decoded(&col), vals);
    }

    #[test]
    fn non_integer_numerics_stay_boxed() {
        // Rationals with denominators and ±∞ do not fit `Vec<i64>`.
        let vals = vec![Const::Num(Num::ratio(1, 2)), Const::Num(Num::PosInf)];
        let col = TypedColumn::from_consts(vals.clone());
        assert_eq!(col.variant(), "boxed");
        assert_eq!(decoded(&col), vals);

        // A bool as first value adopts Boxed from the probing state.
        let col = TypedColumn::from_consts(vec![Const::Bool(false)]);
        assert_eq!(col.variant(), "boxed");
    }

    #[test]
    fn a_clone_shares_its_dictionary_until_it_interns() {
        let mut parent = StrColumn::new();
        for s in ["a", "b", "c"] {
            assert!(parent.push(&Name::new(s)));
        }
        let mut child = parent.clone();
        assert!(Arc::ptr_eq(&parent.dict, &child.dict), "dictionary copied");
        // A known string reuses its code and keeps sharing…
        assert!(child.push(&Name::new("b")));
        assert!(Arc::ptr_eq(&parent.dict, &child.dict));
        // …a new one copies on write: the parent never sees it.
        assert!(child.push(&Name::new("fresh")));
        assert!(!Arc::ptr_eq(&parent.dict, &child.dict));
        assert_eq!(child.get(4).map(|s| &**s), Some("fresh"));
        assert_eq!(parent.dict().len(), 3);
        assert_eq!(parent.code_of("fresh"), None);
        assert_eq!(child.code_of("fresh"), Some(3));
    }
}
