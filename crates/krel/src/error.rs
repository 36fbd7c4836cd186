//! Errors raised by relational operations.

use std::fmt;

/// An error from a relational-algebra operation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RelError {
    /// Two relations were combined whose schemas disagree.
    SchemaMismatch {
        /// Rendering of the left schema.
        left: String,
        /// Rendering of the right schema.
        right: String,
        /// The operation that failed.
        op: &'static str,
    },
    /// An attribute name was not found in the schema.
    UnknownAttr(String),
    /// A schema was built with a duplicate attribute name.
    DuplicateAttr(String),
    /// A tuple's arity disagrees with its schema.
    ArityMismatch {
        /// Schema arity.
        expected: usize,
        /// Tuple arity.
        got: usize,
    },
    /// A value had the wrong type for an operation (e.g. `SUM` over text).
    TypeError(String),
    /// A query was executed with the wrong number of `$n` parameters.
    /// Raised both by the arity check before execution and by the
    /// defensive binding check inside the plan interpreter, so prepare-time
    /// and execute-time failures carry the same precise message.
    ParamArity {
        /// How many parameters the query expects.
        expected: usize,
        /// How many were supplied.
        got: usize,
    },
    /// The annotation semiring cannot express an operation (e.g. comparing
    /// symbolic aggregates without the `K^M` extension, paper §4.1).
    Unsupported(String),
    /// The input text could not be lexed or parsed. `pos` is the byte
    /// offset of the offending token (or of the end of input), so tooling
    /// can point at the exact spot; `Display` keeps the familiar
    /// `parse error: …` rendering.
    Parse {
        /// Byte offset of the offending token in the input text.
        pos: usize,
        /// What went wrong, in the parser's words.
        msg: String,
    },
    /// An internal invariant was violated on the execute path — e.g. a
    /// plan referenced a column its input schema does not have.
    /// Well-formed plans produced by `lower_query` never raise this; it
    /// exists so a malformed or future hand-built plan surfaces as an
    /// error instead of a panic in the middle of execution.
    Internal(String),
    /// An environment variable held a value the engine cannot use. Raised
    /// loudly (naming both the variable and the offending value) instead of
    /// silently falling back to a default — a typo in `AGGPROV_THREADS`
    /// must not quietly serialize execution.
    InvalidEnv {
        /// The environment variable.
        var: &'static str,
        /// The rejected value.
        value: String,
        /// What a valid value looks like.
        expected: &'static str,
    },
}

impl fmt::Display for RelError {
    /// Every `RelError` variant has its own arm: a new error must say how
    /// it reads.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelError::SchemaMismatch { left, right, op } => {
                write!(f, "{op}: schema mismatch between ({left}) and ({right})")
            }
            RelError::UnknownAttr(a) => write!(f, "unknown attribute `{a}`"),
            RelError::DuplicateAttr(a) => write!(f, "duplicate attribute `{a}`"),
            RelError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "tuple arity {got} does not match schema arity {expected}"
                )
            }
            RelError::TypeError(msg) => write!(f, "type error: {msg}"),
            RelError::ParamArity { expected, got } => {
                write!(
                    f,
                    "query expects exactly {expected} parameter{} (`$n`), got {got}",
                    if *expected == 1 { "" } else { "s" }
                )
            }
            RelError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            RelError::Parse { pos, msg } => write!(f, "parse error: {msg} (at byte {pos})"),
            RelError::Internal(msg) => write!(f, "internal error: {msg}"),
            RelError::InvalidEnv {
                var,
                value,
                expected,
            } => {
                write!(f, "invalid {var}=`{value}`: expected {expected}")
            }
        }
    }
}

impl std::error::Error for RelError {}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, RelError>;
