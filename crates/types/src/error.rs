//! The unified error type for the engine.

use std::fmt;

/// Result alias used across all crates.
pub type Result<T> = std::result::Result<T, Error>;

/// The category of an engine error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// Lexer / parser errors.
    Parse,
    /// Name-resolution or semantic-analysis errors.
    Binding,
    /// Schema / catalog errors (missing tables, duplicate columns, ...).
    Schema,
    /// Type-system errors (bad casts, incompatible operands).
    Type,
    /// Planner / optimizer errors.
    Plan,
    /// Runtime execution errors.
    Execution,
    /// Errors originating in the language-model storage layer.
    Llm,
    /// Storage-layer errors (constraint violations, missing rows, I/O).
    Storage,
    /// A feature the engine does not (yet) support.
    Unsupported,
    /// Configuration errors.
    Config,
    /// Cross-query scheduler errors (admission rejections, shutdown races).
    Scheduler,
    /// A query exceeded (or could not possibly meet) its deadline. The
    /// message carries the partial accounting at the moment of failure:
    /// elapsed time and LLM calls already issued.
    DeadlineExceeded,
    /// The deployment shed this query at admission to protect itself (rate
    /// limit exhausted, or load-shedding watermark crossed). The work was
    /// never started — resubmitting after `retry_after_ms` is loss-less.
    Overloaded {
        /// Suggested client back-off in milliseconds, computed from the
        /// scheduler's run-time EWMAs and current backlog (always > 0).
        retry_after_ms: u64,
    },
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorKind::Parse => "parse error",
            ErrorKind::Binding => "binding error",
            ErrorKind::Schema => "schema error",
            ErrorKind::Type => "type error",
            ErrorKind::Plan => "planning error",
            ErrorKind::Execution => "execution error",
            ErrorKind::Llm => "llm error",
            ErrorKind::Storage => "storage error",
            ErrorKind::Unsupported => "unsupported",
            ErrorKind::Config => "configuration error",
            ErrorKind::Scheduler => "scheduler error",
            ErrorKind::DeadlineExceeded => "deadline exceeded",
            ErrorKind::Overloaded { .. } => "overloaded",
        };
        write!(f, "{s}")
    }
}

/// An engine error: a kind plus a human-readable message and an optional
/// source location (byte offset in the SQL text, for parse errors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// The error category.
    pub kind: ErrorKind,
    /// Human-readable message.
    pub message: String,
    /// Optional byte offset into the query text (parse errors).
    pub offset: Option<usize>,
    /// Suggested client back-off in milliseconds for retryable admission
    /// rejections (overload shed, queue full, projected-wait deadline
    /// rejection). `None` for errors a blind retry cannot help with.
    pub retry_after_ms: Option<u64>,
}

impl Error {
    /// Create an error of the given kind.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        let retry_after_ms = match kind {
            ErrorKind::Overloaded { retry_after_ms } => Some(retry_after_ms),
            _ => None,
        };
        Error {
            kind,
            message: message.into(),
            offset: None,
            retry_after_ms,
        }
    }

    /// Attach a byte offset (parse errors).
    pub fn at(mut self, offset: usize) -> Self {
        self.offset = Some(offset);
        self
    }

    /// Attach a retry-after hint (admission rejections that a client can
    /// back off on: queue full, projected-wait deadline rejection).
    pub fn with_retry_after(mut self, retry_after_ms: u64) -> Self {
        self.retry_after_ms = Some(retry_after_ms);
        self
    }

    /// The structured retry-after hint, if this rejection carries one.
    pub fn retry_after_ms(&self) -> Option<u64> {
        self.retry_after_ms.or(match self.kind {
            ErrorKind::Overloaded { retry_after_ms } => Some(retry_after_ms),
            _ => None,
        })
    }

    /// Whether this is an admission-side overload shed / throttle rejection.
    pub fn is_overloaded(&self) -> bool {
        matches!(self.kind, ErrorKind::Overloaded { .. })
    }

    /// Parse error constructor.
    pub fn parse(message: impl Into<String>) -> Self {
        Error::new(ErrorKind::Parse, message)
    }
    /// Binding error constructor.
    pub fn binding(message: impl Into<String>) -> Self {
        Error::new(ErrorKind::Binding, message)
    }
    /// Schema error constructor.
    pub fn schema(message: impl Into<String>) -> Self {
        Error::new(ErrorKind::Schema, message)
    }
    /// Type error constructor.
    pub fn type_error(message: impl Into<String>) -> Self {
        Error::new(ErrorKind::Type, message)
    }
    /// Planning error constructor.
    pub fn plan(message: impl Into<String>) -> Self {
        Error::new(ErrorKind::Plan, message)
    }
    /// Execution error constructor.
    pub fn execution(message: impl Into<String>) -> Self {
        Error::new(ErrorKind::Execution, message)
    }
    /// LLM-layer error constructor.
    pub fn llm(message: impl Into<String>) -> Self {
        Error::new(ErrorKind::Llm, message)
    }
    /// Storage error constructor.
    pub fn storage(message: impl Into<String>) -> Self {
        Error::new(ErrorKind::Storage, message)
    }
    /// Unsupported-feature error constructor.
    pub fn unsupported(message: impl Into<String>) -> Self {
        Error::new(ErrorKind::Unsupported, message)
    }
    /// Configuration error constructor.
    pub fn config(message: impl Into<String>) -> Self {
        Error::new(ErrorKind::Config, message)
    }
    /// Scheduler error constructor (admission rejections, shutdown races).
    pub fn scheduler(message: impl Into<String>) -> Self {
        Error::new(ErrorKind::Scheduler, message)
    }
    /// Deadline-exceeded constructor. Callers are expected to fold the
    /// partial accounting (elapsed ms, LLM calls issued) into the message.
    pub fn deadline_exceeded(message: impl Into<String>) -> Self {
        Error::new(ErrorKind::DeadlineExceeded, message)
    }
    /// Overload rejection constructor (shed / rate-limited at admission).
    /// `retry_after_ms` is clamped to at least 1 so clients always get a
    /// positive back-off.
    pub fn overloaded(retry_after_ms: u64, message: impl Into<String>) -> Self {
        Error::new(
            ErrorKind::Overloaded {
                retry_after_ms: retry_after_ms.max(1),
            },
            message,
        )
    }
}

/// A structured marker describing why (and where) a query's result was cut
/// short, attached to partial results produced under graceful degradation
/// (`EngineConfig::with_partial_results`). The rows that *were* delivered
/// are always an exact prefix of the full result, by the per-strategy rule
/// stated on `EngineConfig::partial_results`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Incomplete {
    /// The category of the triggering fault (deadline lapse, backend-layer
    /// failure, ...).
    pub kind: ErrorKind,
    /// Human-readable description of the triggering fault.
    pub message: String,
    /// Rows the cut scan delivered (the prefix length).
    pub rows_delivered: u64,
    /// Logical LLM calls already spent when the query was cut short.
    pub calls_spent: u64,
}

impl fmt::Display for Incomplete {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "incomplete after {} row(s) / {} call(s): {}: {}",
            self.rows_delivered, self.calls_spent, self.kind, self.message
        )
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)?;
        if let Some(off) = self.offset {
            write!(f, " (at offset {off})")?;
        }
        Ok(())
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        assert_eq!(Error::parse("x").kind, ErrorKind::Parse);
        assert_eq!(Error::binding("x").kind, ErrorKind::Binding);
        assert_eq!(Error::schema("x").kind, ErrorKind::Schema);
        assert_eq!(Error::type_error("x").kind, ErrorKind::Type);
        assert_eq!(Error::plan("x").kind, ErrorKind::Plan);
        assert_eq!(Error::execution("x").kind, ErrorKind::Execution);
        assert_eq!(Error::llm("x").kind, ErrorKind::Llm);
        assert_eq!(Error::storage("x").kind, ErrorKind::Storage);
        assert_eq!(Error::unsupported("x").kind, ErrorKind::Unsupported);
        assert_eq!(Error::config("x").kind, ErrorKind::Config);
        assert_eq!(Error::scheduler("x").kind, ErrorKind::Scheduler);
        assert_eq!(
            Error::deadline_exceeded("x").kind,
            ErrorKind::DeadlineExceeded
        );
        assert!(Error::deadline_exceeded("late")
            .to_string()
            .contains("deadline exceeded"));
    }

    #[test]
    fn display_includes_offset() {
        let e = Error::parse("unexpected token").at(17);
        let s = e.to_string();
        assert!(s.contains("parse error"));
        assert!(s.contains("offset 17"));
        let e2 = Error::llm("timeout");
        assert_eq!(e2.to_string(), "llm error: timeout");
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(Error::parse("a"), Error::parse("a"));
        assert_ne!(Error::parse("a"), Error::binding("a"));
    }

    #[test]
    fn overloaded_carries_positive_retry_after() {
        let e = Error::overloaded(120, "queue past watermark");
        assert!(e.is_overloaded());
        assert_eq!(e.retry_after_ms(), Some(120));
        assert!(e.to_string().contains("overloaded"));
        // Zero is clamped: clients must never be told to retry immediately.
        assert_eq!(Error::overloaded(0, "x").retry_after_ms(), Some(1));
    }

    #[test]
    fn retry_after_hint_attaches_to_other_rejections() {
        let e = Error::scheduler("admission queue full").with_retry_after(250);
        assert_eq!(e.retry_after_ms(), Some(250));
        assert!(!e.is_overloaded());
        assert_eq!(Error::scheduler("plain").retry_after_ms(), None);
        let d = Error::deadline_exceeded("projected wait too long").with_retry_after(75);
        assert_eq!(d.retry_after_ms(), Some(75));
    }

    #[test]
    fn incomplete_marker_displays_accounting() {
        let m = Incomplete {
            kind: ErrorKind::DeadlineExceeded,
            message: "deadline lapsed mid-wave".to_string(),
            rows_delivered: 40,
            calls_spent: 2,
        };
        let s = m.to_string();
        assert!(s.contains("40 row(s)"));
        assert!(s.contains("2 call(s)"));
        assert!(s.contains("deadline exceeded"));
    }
}
