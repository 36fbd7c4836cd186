//! The layout guard: the sizes of the types every stored row is made of.
//!
//! A base row is its cells (`Value`s in its block's cell buffer) and one
//! `Prov` annotation, and each cell holds a `Const` or an aggregate, so
//! one more byte in any of them is paid once per cell or per row of every
//! table (a `Const` of 25 bytes would make every cell 40, and so would a
//! `Tensor` of 16: its payload then no longer fits around `Const`'s tag).
//! A base row's annotation is its token `1·p`, held inside the `Prov`:
//! 32 bytes in the block and nothing on the heap, where a 24-byte `Prov`
//! pointed at a 56-byte term slice (a 64-byte heap chunk) — 8 bytes more
//! in the block, 64 fewer on the heap, per row. The sizes are those of a
//! 64-bit target.

use aggprov::algebra::name::Name;
use aggprov::algebra::poly::{Monomial, Poly};
use aggprov::core::km::Atom;
use aggprov::krel::relation::Tuple;
use aggprov::prelude::*;
use std::mem::size_of;

#[test]
#[cfg(target_pointer_width = "64")]
fn per_row_types_keep_their_sizes() {
    // A name is the `Arc<str>` it replaced, with up to 7 bytes in place.
    assert_eq!(size_of::<Name>(), 16, "Name");
    assert_eq!(size_of::<Var>(), 16, "Var");
    // The name and a tag.
    assert_eq!(size_of::<Const>(), 24, "Const");
    // One thin pointer: an aggregate cell's payload is a monoid tag and
    // this handle, which fit in the bytes a `Const` leaves free, so a cell
    // is a `Const` with no tag of its own.
    assert_eq!(size_of::<Tensor<Prov, Const>>(), 8, "Tensor<Prov, Const>");
    assert_eq!(size_of::<Value<Prov>>(), 24, "Value<Prov>");
    // A comparison token's atom holds two tensors.
    assert_eq!(size_of::<Atom<NatPoly>>(), 40, "Atom<NatPoly>");
    // A one-token monomial is the token and a tag; its term adds the
    // coefficient.
    assert_eq!(size_of::<Monomial<Var>>(), 24, "Monomial<Var>");
    // An `ℕ[X]` holds a term of degree ≤ 1 — a base row's token `1·p` —
    // inline, and any other in a shared slice; a polynomial over atoms
    // holds every term in a shared slice, so it is that slice's pointer.
    assert_eq!(size_of::<NatPoly>(), 32, "NatPoly");
    assert_eq!(
        size_of::<Poly<Atom<NatPoly>, NatPoly>>(),
        16,
        "Poly<Atom<NatPoly>, NatPoly>"
    );
    // A ground `ℕ[X]` held in the `Km` itself; the symbolic arm fits in
    // the bytes a ground one leaves free.
    assert_eq!(size_of::<Prov>(), 32, "Prov");
    assert_eq!(size_of::<Tuple<Value<Prov>>>(), 16, "Tuple<Value<Prov>>");
}
