//! The job API's typed error taxonomy.
//!
//! Six ways to refuse a request, after the `CkptError` rejection
//! discipline one layer down: every way a request can fail maps to a
//! distinct variant and a distinct `kind` tag in the error body, so the
//! protocol rejection suite can pin each failure mode independently and a
//! client can branch on `kind` without parsing prose. The two answers a
//! `/result` fetch gets for a job with no result — still running, or
//! cancelled for good — share 409 and differ only in `kind`.

use std::fmt;

use uts_core::RunError;

use crate::json::Json;

/// Everything the server can refuse a request with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request itself is unintelligible: malformed JSON, a spec field
    /// with the wrong type or an unknown name, an unroutable path, a bad
    /// HTTP frame. → 400.
    Proto(String),
    /// The job id does not exist on this server (never issued, or from a
    /// different spill directory). → 404.
    UnknownJob(u64),
    /// The job exists but is not in a state the request applies to — a
    /// `result` fetch whose job is still unfinished when the wait ends.
    /// → 409.
    NotReady(u64),
    /// The job was cancelled: it is terminal and will never have a
    /// result, so a client should stop asking. → 409.
    Cancelled(u64),
    /// The request body exceeds the server's cap. Rejected from the
    /// `Content-Length` header, before any body bytes are read. → 413.
    BodyTooLarge {
        /// The server's cap in bytes.
        limit: usize,
        /// The declared request body size.
        got: usize,
    },
    /// A spill-file operation failed: a parked snapshot that does not
    /// decode against the job's config fingerprint, or spill-directory
    /// I/O. The job is marked failed; the run's error is preserved
    /// verbatim. → 500.
    Spill(String),
}

impl ServeError {
    /// The stable machine-readable tag carried in the error body.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::Proto(_) => "proto",
            ServeError::UnknownJob(_) => "unknown_job",
            ServeError::NotReady(_) => "not_ready",
            ServeError::Cancelled(_) => "cancelled",
            ServeError::BodyTooLarge { .. } => "body_too_large",
            ServeError::Spill(_) => "spill",
        }
    }

    /// The HTTP status this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            ServeError::Proto(_) => 400,
            ServeError::UnknownJob(_) => 404,
            ServeError::NotReady(_) | ServeError::Cancelled(_) => 409,
            ServeError::BodyTooLarge { .. } => 413,
            ServeError::Spill(_) => 500,
        }
    }

    /// Render as the JSON error body: `error` (the message), then `kind`.
    pub fn body(&self) -> String {
        Json::obj([("error", Json::Str(self.to_string())), ("kind", Json::Str(self.kind().into()))])
            .to_string()
    }

    /// Wrap a slice's run error — a parked snapshot the codec refuses
    /// (fingerprint mismatch, torn file, foreign magic) — as a spill error.
    pub fn from_run(err: RunError) -> Self {
        ServeError::Spill(err.to_string())
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Proto(msg) => write!(f, "bad request: {msg}"),
            ServeError::UnknownJob(id) => write!(f, "no such job {id}"),
            ServeError::NotReady(id) => write!(f, "job {id} has no result yet"),
            ServeError::Cancelled(id) => write!(f, "job {id} was cancelled and has no result"),
            ServeError::BodyTooLarge { limit, got } => {
                write!(f, "body of {got} bytes exceeds the {limit}-byte cap")
            }
            ServeError::Spill(msg) => write!(f, "spill failure: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_has_a_distinct_kind_and_only_the_result_refusals_share_a_status() {
        let all = [
            ServeError::Proto("x".into()),
            ServeError::UnknownJob(1),
            ServeError::NotReady(1),
            ServeError::Cancelled(1),
            ServeError::BodyTooLarge { limit: 1, got: 2 },
            ServeError::Spill("y".into()),
        ];
        let kinds: std::collections::BTreeSet<_> = all.iter().map(|e| e.kind()).collect();
        let statuses: std::collections::BTreeSet<_> = all.iter().map(|e| e.status()).collect();
        assert_eq!(kinds.len(), all.len());
        assert_eq!(statuses.len(), all.len() - 1);
        assert_eq!(ServeError::NotReady(1).status(), ServeError::Cancelled(1).status());
        for e in &all {
            assert!(e.body().contains(e.kind()));
        }
    }
}
