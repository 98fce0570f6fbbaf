//! Error type of the semantic engine.

use std::fmt;

/// Errors surfaced by query processing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The query string violates Definition 1's constraints.
    Parse(String),
    /// A term matches nothing in the database.
    NoMatch(String),
    /// An operator operand's matches violate the match-level constraints
    /// (e.g. `SUM` followed by something that is not an attribute name).
    BadOperand(String),
    /// No connected query pattern exists for any interpretation.
    NoPattern,
    /// The static analyzer (`aqks-analyze`) found an error-severity
    /// defect in a generated statement — a translation bug.
    Analysis(String),
    /// SQL execution failed (executor bug or malformed translation).
    Exec(String),
    /// Schema-level problem (e.g. ORM graph construction failed).
    Schema(String),
    /// A resource budget tripped before any result completed (partial
    /// results are reported via [`Answered::exhaustion`](crate::Answered::exhaustion)
    /// instead).
    Budget(aqks_guard::Tripped),
    /// A deterministic failpoint fired (fault-injection builds only).
    Fault(&'static str),
    /// A library panic was caught at the engine boundary — a bug, but one
    /// that no longer takes the process down.
    Internal(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Parse(m) => write!(f, "query parse error: {m}"),
            CoreError::NoMatch(t) => write!(f, "term `{t}` matches nothing in the database"),
            CoreError::BadOperand(m) => write!(f, "invalid operator operand: {m}"),
            CoreError::NoPattern => write!(f, "no connected query pattern exists"),
            CoreError::Analysis(m) => write!(f, "static analysis rejected generated SQL: {m}"),
            CoreError::Exec(m) => write!(f, "execution error: {m}"),
            CoreError::Schema(m) => write!(f, "schema error: {m}"),
            CoreError::Budget(t) => write!(f, "{t}"),
            CoreError::Fault(site) => write!(f, "injected fault at `{site}`"),
            CoreError::Internal(m) => write!(f, "internal error (caught panic): {m}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<aqks_sqlgen::ExecError> for CoreError {
    fn from(e: aqks_sqlgen::ExecError) -> Self {
        match e {
            aqks_sqlgen::ExecError::Budget(t) => CoreError::Budget(t),
            aqks_sqlgen::ExecError::Fault(site) => CoreError::Fault(site),
            other => CoreError::Exec(other.to_string()),
        }
    }
}

impl From<aqks_relational::Error> for CoreError {
    fn from(e: aqks_relational::Error) -> Self {
        match e {
            aqks_relational::Error::Budget(t) => CoreError::Budget(t),
            aqks_relational::Error::Fault(site) => CoreError::Fault(site),
            other => CoreError::Schema(other.to_string()),
        }
    }
}

impl From<aqks_guard::Tripped> for CoreError {
    fn from(t: aqks_guard::Tripped) -> Self {
        CoreError::Budget(t)
    }
}

impl From<aqks_guard::FailpointError> for CoreError {
    fn from(f: aqks_guard::FailpointError) -> Self {
        CoreError::Fault(f.site)
    }
}
