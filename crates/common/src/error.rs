//! Unified error type for RelGo-RS.
//!
//! All fallible public APIs across the workspace return [`Result<T>`]. The
//! variants are intentionally coarse: they distinguish *who is at fault*
//! (schema author, query author, planner, executor) rather than enumerating
//! every failure site.

use std::fmt;

/// Workspace-wide result alias.
pub type Result<T> = std::result::Result<T, RelGoError>;

/// The unified error type of the RelGo-RS workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelGoError {
    /// A referenced catalog object (table, column, graph label) is unknown.
    NotFound(String),
    /// A schema-level contract is violated (duplicate names, arity mismatch,
    /// type mismatch between column and value, invalid RGMapping).
    Schema(String),
    /// A query is malformed (disconnected pattern, unknown pattern element,
    /// predicate referencing an unbound attribute).
    Query(String),
    /// The planner could not produce a plan (empty search space, timeout).
    Plan(String),
    /// A runtime execution failure (type error during evaluation, resource
    /// guard tripped such as the intermediate-result blow-up limit).
    Execution(String),
    /// The configured resource budget (memory/intermediate-size guard) was
    /// exceeded; models the paper's OOM outcomes (e.g. RelGoNoEI on QC3).
    ResourceExhausted(String),
    /// A first-committer-wins write conflict: another ingest commit touched
    /// an overlapping primary-key write-set since this batch's base epoch.
    /// Retryable — re-stage the batch against the current epoch.
    Conflict(String),
    /// The query's wall-clock deadline expired mid-execution (checked at
    /// morsel boundaries, see `morsel::TimeBudget`). Retryable with a
    /// longer deadline — the serving edge maps it to `503` + `Retry-After`.
    DeadlineExceeded(String),
    /// Durable recovery cannot restore every acknowledged commit: a
    /// checkpoint it could not read holds epochs the compacted log no longer
    /// does. Not retryable — the named file has to be repaired or restored.
    DataLoss(String),
}

impl RelGoError {
    /// Shorthand constructor for [`RelGoError::NotFound`].
    pub fn not_found(what: impl Into<String>) -> Self {
        RelGoError::NotFound(what.into())
    }

    /// Shorthand constructor for [`RelGoError::Schema`].
    pub fn schema(msg: impl Into<String>) -> Self {
        RelGoError::Schema(msg.into())
    }

    /// Shorthand constructor for [`RelGoError::Query`].
    pub fn query(msg: impl Into<String>) -> Self {
        RelGoError::Query(msg.into())
    }

    /// Shorthand constructor for [`RelGoError::Plan`].
    pub fn plan(msg: impl Into<String>) -> Self {
        RelGoError::Plan(msg.into())
    }

    /// Shorthand constructor for [`RelGoError::Execution`].
    pub fn execution(msg: impl Into<String>) -> Self {
        RelGoError::Execution(msg.into())
    }

    /// Shorthand constructor for [`RelGoError::Conflict`].
    pub fn conflict(msg: impl Into<String>) -> Self {
        RelGoError::Conflict(msg.into())
    }

    /// Shorthand constructor for [`RelGoError::DeadlineExceeded`].
    pub fn deadline_exceeded(msg: impl Into<String>) -> Self {
        RelGoError::DeadlineExceeded(msg.into())
    }
}

impl fmt::Display for RelGoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelGoError::NotFound(s) => write!(f, "not found: {s}"),
            RelGoError::Schema(s) => write!(f, "schema error: {s}"),
            RelGoError::Query(s) => write!(f, "query error: {s}"),
            RelGoError::Plan(s) => write!(f, "plan error: {s}"),
            RelGoError::Execution(s) => write!(f, "execution error: {s}"),
            RelGoError::ResourceExhausted(s) => write!(f, "resource exhausted: {s}"),
            RelGoError::Conflict(s) => write!(f, "write conflict: {s}"),
            RelGoError::DeadlineExceeded(s) => write!(f, "deadline exceeded: {s}"),
            RelGoError::DataLoss(s) => write!(f, "data loss: {s}"),
        }
    }
}

impl std::error::Error for RelGoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_category_and_message() {
        let e = RelGoError::not_found("table Person");
        assert_eq!(e.to_string(), "not found: table Person");
        let e = RelGoError::schema("duplicate column id");
        assert_eq!(e.to_string(), "schema error: duplicate column id");
        let e = RelGoError::query("pattern is disconnected");
        assert!(e.to_string().contains("disconnected"));
        let e = RelGoError::plan("no decomposition");
        assert!(e.to_string().starts_with("plan error"));
        let e = RelGoError::execution("type mismatch");
        assert!(e.to_string().starts_with("execution error"));
        let e = RelGoError::ResourceExhausted("intermediate > 1e9".into());
        assert!(e.to_string().starts_with("resource exhausted"));
        let e = RelGoError::conflict("Person.person_id = 7 vs epoch 3");
        assert!(e.to_string().starts_with("write conflict"));
        let e = RelGoError::deadline_exceeded("query ran past its 50ms deadline");
        assert!(e.to_string().starts_with("deadline exceeded"));
        let e = RelGoError::DataLoss("epochs 3..=4".into());
        assert!(e.to_string().starts_with("data loss"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            RelGoError::not_found("x"),
            RelGoError::NotFound("x".to_string())
        );
        assert_ne!(RelGoError::not_found("x"), RelGoError::schema("x"));
    }

    #[test]
    fn error_trait_object_usable() {
        fn fails() -> std::result::Result<(), Box<dyn std::error::Error>> {
            Err(Box::new(RelGoError::plan("boom")))
        }
        assert!(fails().is_err());
    }
}
