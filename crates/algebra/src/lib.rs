//! # aggprov-algebra
//!
//! Algebraic foundations for *Provenance for Aggregate Queries*
//! (Amsterdamer, Deutch & Tannen, PODS 2011):
//!
//! * [`monoid`] — commutative aggregation monoids (`SUM`, `MIN`, `MAX`,
//!   `PROD`, `B̂`), paper §2.2;
//! * [`semiring`] — commutative annotation semirings (`B`, `ℕ`, `ℤ`, `S`,
//!   tropical, Viterbi) with the structural flags (positivity, idempotent
//!   `+`, homomorphism to `ℕ`) that drive compatibility, paper §2.1 & §3.4;
//! * [`poly`] — polynomial semirings, in particular the free provenance
//!   semiring `ℕ[X]`;
//! * [`hom`] — semiring homomorphisms and token valuations;
//! * [`semimodule`] — `K`-semimodules and `SetAgg`, paper §2.2;
//! * [`tensor`] — the tensor product `K ⊗ M` with its normal form,
//!   lifted homomorphisms and compatibility-gated resolution, paper §2.3 &
//!   §3.4;
//! * [`sn`] — the security-bag semiring `SN`, paper §3.4;
//! * [`hierarchy`] — the classical provenance hierarchy under `ℕ[X]`;
//! * [`boolexpr`] — boolean expressions with negation (the c-table
//!   baseline of paper §1);
//! * [`laws`] — executable algebraic laws shared by all test suites;
//! * [`num`], [`domain`] — the exact numeric and constant domain;
//! * [`name`] — the 16-byte string behind tokens and string constants,
//!   inline when short;
//! * [`sort`] — the one stable sort, over positions through a type-erased
//!   comparator, that every canonical form and sorted build shares.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod boolexpr;
pub mod domain;
pub mod hierarchy;
pub mod hom;
pub mod laws;
pub mod monoid;
pub mod name;
pub mod num;
pub mod poly;
pub mod semimodule;
pub mod semiring;
pub mod sn;
pub mod sort;
pub mod tensor;
