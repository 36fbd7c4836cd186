//! The database domain `D` of constants.
//!
//! The paper fixes a countably infinite domain `D` of values out of which
//! tuples are built, with the aggregation monoid's carrier `M ⊆ D`. Our
//! concrete domain has numbers (exact rationals with `±∞`, see
//! [`crate::num`]), strings, and booleans; booleans double as the carrier of
//! the monoid `B̂ = ({⊥,⊤}, ∨, ⊥)` used to encode relational difference
//! (paper §5).
//!
//! A string is a [`Name`]: at most 7 bytes are held inline, so a short
//! string cell (`'d1'`, `'region3'`) allocates nothing, and a longer one
//! is one shared block. A `Const` is 24 bytes either way — the name's 16
//! and a tag — and strings order by their bytes whichever form holds them.

use crate::name::Name;
use crate::num::Num;
use std::fmt;

/// A first-order constant of the database domain `D`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Const {
    /// A boolean (also the carrier of the difference monoid `B̂`).
    Bool(bool),
    /// A number.
    Num(Num),
    /// A string, inline when at most 7 bytes long.
    Str(Name),
}

impl Const {
    /// Builds an integer constant.
    pub fn int(n: i64) -> Self {
        Const::Num(Num::int(n))
    }

    /// Builds a string constant.
    pub fn str(s: &str) -> Self {
        Const::Str(Name::new(s))
    }

    /// Returns the number if this is a numeric constant.
    pub fn as_num(&self) -> Option<Num> {
        match self {
            Const::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Returns the boolean if this is a boolean constant.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Const::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the string if this is a string constant.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Const::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A short name for the constant's type, used in error messages.
    ///
    /// Every `Const` variant has its own arm — the cheapest total dispatch
    /// over the domain: a new constant type must pick its name.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub fn type_name(&self) -> &'static str {
        match self {
            Const::Bool(_) => "bool",
            Const::Num(_) => "num",
            Const::Str(_) => "text",
        }
    }
}

impl From<Num> for Const {
    fn from(n: Num) -> Const {
        Const::Num(n)
    }
}

impl From<i64> for Const {
    fn from(n: i64) -> Const {
        Const::int(n)
    }
}

impl From<bool> for Const {
    fn from(b: bool) -> Const {
        Const::Bool(b)
    }
}

impl From<&str> for Const {
    fn from(s: &str) -> Const {
        Const::str(s)
    }
}

impl fmt::Display for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Const::Bool(true) => write!(f, "true"),
            Const::Bool(false) => write!(f, "false"),
            Const::Num(n) => write!(f, "{n}"),
            Const::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl fmt::Debug for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(Const::int(5).as_num(), Some(Num::int(5)));
        assert_eq!(Const::int(5).as_bool(), None);
        assert_eq!(Const::Bool(true).as_bool(), Some(true));
        assert_eq!(Const::str("d1").as_str(), Some("d1"));
    }

    #[test]
    fn ordering_is_total_across_types() {
        // A fixed arbitrary order across type tags keeps BTree-based
        // relations deterministic.
        let mut vals = [Const::str("a"), Const::int(1), Const::Bool(false)];
        vals.sort();
        assert_eq!(vals[0], Const::Bool(false));
    }

    #[test]
    fn display() {
        assert_eq!(Const::str("d1").to_string(), "'d1'");
        assert_eq!(Const::int(20).to_string(), "20");
        assert_eq!(Const::Bool(true).to_string(), "true");
    }
}
