//! # aggprov-core
//!
//! The core of *Provenance for Aggregate Queries* (Amsterdamer, Deutch &
//! Tannen, PODS 2011):
//!
//! * [`value`] — values of `(M, K)`-relations: constants and tensor-valued
//!   aggregates (§3.2);
//! * [`km`] — the extended semiring `K^M` with symbolic equality tokens and
//!   free δ-structure (§4.2, Definition 3.6);
//! * [`annotation`] — the [`annotation::AggAnnotation`] interface: `Km<K>`
//!   compares symbolically, concrete compatible semirings resolve on the
//!   spot (Proposition 4.4);
//! * [`ops`] — the *physical* relational operators of §3.2/§3.3/§4.3:
//!   hash build/probe joins, hash-partitioned grouping, and ground/symbolic
//!   partitioning so token construction stays off the ground hot path;
//! * [`ops::batch`] — vectorized batch kernels over the columnar ground
//!   partition ([`ops::batch::Chunk`]): selection-vector filter,
//!   view-remap projection, unit-column append, AVG division and hash
//!   join, so pipelines over ground data run columnar end to end — each
//!   kernel total, running the token path itself over whatever symbolic
//!   fringe its input carries;
//! * [`par`] — partition-parallel execution: [`par::ExecOptions`]
//!   (`AGGPROV_THREADS`), shard planning and the scoped thread fan-out the
//!   `ops::*_opts` operator variants run on;
//! * [`specops`] — the literal §4.3 specification operators, retained as
//!   the reference path the physical layer is property-tested against;
//! * [`eval`] — `h_Rel`, token valuations, collapse and plain read-off;
//! * [`difference`] — difference via `B̂`-aggregation and its hybrid direct
//!   form, plus the §5.2 law matrix;
//! * [`naive`] — the exponential tuple-level baseline of §1/Figure 2.
//!
//! The canonical provenance instantiation is [`Prov`] = `Km<ℕ[X]>`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod annotation;
pub mod difference;
pub mod eval;
pub mod km;
pub mod naive;
pub mod ops;
pub mod par;
pub mod specops;
pub mod value;

/// The standard aggregate-provenance annotation: the extended semiring over
/// provenance polynomials, `ℕ[X]^M`.
pub type Prov = km::Km<aggprov_algebra::poly::NatPoly>;

pub use annotation::AggAnnotation;
pub use km::{Atom, Km};
pub use ops::{AggSpec, MKRel};
pub use par::ExecOptions;
pub use value::Value;
