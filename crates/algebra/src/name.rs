//! Short names held in place: the string behind a provenance token
//! ([`Var`](crate::poly::Var)) and a string constant
//! ([`Const::Str`](crate::domain::Const::Str)).
//!
//! The paper gives every base tuple its own token (§2.1, `p₁ … pₙ`), so
//! whatever a token costs is paid once per row. A [`Name`] is 16 bytes,
//! the size of the `Arc<str>` it replaces, and has two forms:
//!
//! * a name of at most [`Name::INLINE`] (7) bytes is stored **inline**, in
//!   the 8 bytes beside the `Arc`'s pointer (the pointer's null value,
//!   which no `Arc` takes, is what marks the form): no heap block, a clone
//!   is a 16-byte copy and comparing two inline names reads no pointer;
//! * a longer name is exactly an `Arc<str>`: one shared block, a clone is
//!   a reference-count bump.
//!
//! Which form a name takes depends only on its length, so every string
//! has one form and `Eq`, `Ord` and `Hash` are those of the `str` (byte
//! order, the same hasher input): nothing that sorts, hashes or renders a
//! name can tell the forms apart.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// An immutable string of 16 bytes, inline when short (module docs).
#[derive(Clone)]
pub struct Name(Repr);

#[derive(Clone)]
enum Repr {
    /// The name's bytes, zero-padded to [`Name::INLINE`], then its length.
    /// Read as a big-endian integer this orders exactly as the strings do:
    /// the padded bytes decide unless one name is a prefix of the other
    /// (the padding is then `0`, below any byte that differs), and the
    /// length breaks a tie of trailing NULs.
    Inline([u8; 8]),
    /// A name longer than [`Name::INLINE`] bytes.
    Heap(Arc<str>),
}

impl Name {
    /// The longest name stored inline, in bytes.
    pub const INLINE: usize = 7;

    /// The name `s`: inline if it fits, else one shared heap block.
    pub fn new(s: &str) -> Name {
        let len = s.len();
        if len > Name::INLINE {
            return Name(Repr::Heap(Arc::from(s)));
        }
        let mut buf = [0; 8];
        buf[..len].copy_from_slice(s.as_bytes());
        buf[Name::INLINE] = len as u8;
        Name(Repr::Inline(buf))
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            // Always `Ok`: the bytes were copied whole out of a `str`.
            Repr::Inline(_) => std::str::from_utf8(self.as_bytes()).unwrap_or_default(),
            Repr::Heap(s) => s,
        }
    }

    fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline(buf) => &buf[..usize::from(buf[Name::INLINE])],
            Repr::Heap(s) => s.as_bytes(),
        }
    }

    /// True iff the name is held inline (at most [`Name::INLINE`] bytes).
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline(_))
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (Repr::Inline(a), Repr::Inline(b)) => a == b,
            (Repr::Heap(a), Repr::Heap(b)) => a == b,
            // One form per string: an inline and a heap name differ in
            // length.
            _ => false,
        }
    }
}

impl Eq for Name {}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    /// Byte order of the strings.
    fn cmp(&self, other: &Self) -> Ordering {
        match (&self.0, &other.0) {
            (Repr::Inline(a), Repr::Inline(b)) => {
                u64::from_be_bytes(*a).cmp(&u64::from_be_bytes(*b))
            }
            _ => self.as_bytes().cmp(other.as_bytes()),
        }
    }
}

impl Hash for Name {
    /// The `str`'s hash: a `Name` and its string feed a hasher the same
    /// input.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

/// Sound because `Eq`, `Ord` and `Hash` are the `str`'s: a map keyed by
/// `Name` can be probed with a `&str`.
impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}
