//! # aggprov-krel
//!
//! `K`-relations and the positive relational algebra (SPJU) over commutative
//! semirings, following Green, Karvounarakis & Tannen (PODS 2007) — the
//! substrate on which *Provenance for Aggregate Queries* builds:
//!
//! * [`schema`], [`relation`] — named-perspective schemas, tuples, and
//!   `K`-relations with union / projection / selection / join / product /
//!   rename and homomorphism application (`h_Rel`). A relation's rows sit
//!   in tuple order in copy-on-write blocks of 512 (the private `store`
//!   module), each block's cells in one row-major buffer and each row read
//!   in place as a [`TupleRef`]: `R(t) += k` past the last row is a push, every operator
//!   output goes through one bulk builder
//!   ([`Relation::from_tuples`]) instead of an ordered map, and a write
//!   through a clone copies one block, not the table;
//! * [`batch`] — batches over the ground partition ([`ColumnBatch`],
//!   [`GroundBatch`]) whose columns read their cells and annotations where
//!   the relation's store keeps them (a column a kernel builds holds its
//!   `Const`s), with lossless `Relation ⇄ batch` conversion, the
//!   substrate of the vectorized execution pipeline;
//! * [`kset`] — `K`-sets and `SetAgg`;
//! * [`monus`] — baseline difference semantics (set/bag monus,
//!   ℤ-difference) used by the paper's §5.2 comparisons;
//! * [`mod@reference`] — an independent, annotation-free bag/set evaluator used
//!   as the differential-testing oracle for set/bag compatibility.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod batch;
pub mod error;
pub mod kset;
pub mod monus;
pub mod reference;
pub mod relation;
pub mod schema;
mod store;

pub use batch::{AsConst, ColumnBatch, GroundBatch};
pub use error::{RelError, Result};
pub use relation::{Merge, Relation, Tuple, TupleRef};
pub use schema::{Attr, Schema};
