//! Query-layer errors.

use std::fmt;

/// Errors from the query engine.
#[derive(Debug)]
pub enum QueryError {
    /// The form expressed no constraint.
    EmptyForm,
    /// Repository error.
    Smr(sensormeta_smr::SmrError),
    /// Internal invariant broken.
    Internal(String),
    /// The request's end-to-end deadline expired mid-execution or while
    /// waiting on an identical in-flight query (servers map this to `504`,
    /// or serve a labeled stale result).
    DeadlineExceeded,
    /// A chaos fault was injected at the named site (testing only; treated
    /// like a transient backend failure).
    Injected(&'static str),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::EmptyForm => write!(f, "the search form is empty"),
            QueryError::Smr(e) => write!(f, "repository error: {e}"),
            QueryError::Internal(m) => write!(f, "internal error: {m}"),
            QueryError::DeadlineExceeded => write!(f, "request deadline exceeded"),
            QueryError::Injected(site) => write!(f, "injected fault at site `{site}`"),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::Smr(e) => Some(e),
            _ => None,
        }
    }
}

impl From<sensormeta_smr::SmrError> for QueryError {
    fn from(e: sensormeta_smr::SmrError) -> Self {
        QueryError::Smr(e)
    }
}

impl From<sensormeta_resil::Interrupt> for QueryError {
    fn from(i: sensormeta_resil::Interrupt) -> Self {
        match i {
            sensormeta_resil::Interrupt::DeadlineExceeded => QueryError::DeadlineExceeded,
            sensormeta_resil::Interrupt::Fault { site } => QueryError::Injected(site),
        }
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, QueryError>;
