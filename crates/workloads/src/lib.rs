//! # aggprov-workloads
//!
//! Synthetic data, query-plan and valuation generators for the
//! aggregate-provenance experiments:
//!
//! * [`org`] — scaled-up versions of the paper's employee/department
//!   running example, with one provenance token per tuple and plain-bag
//!   twins for the reference engine;
//! * [`plans`] — random SPJU-AGB plans with dual evaluation (annotated
//!   operators vs the independent bag engine);
//! * [`randrel`] — random annotated tables and token valuations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod org;
pub mod plans;
pub mod randrel;
