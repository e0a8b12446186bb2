//! The common error type shared by every crate in the workspace.

use std::fmt;

use crate::ids::{TxId, Version};

/// Convenient alias for results using the workspace [`Error`] type.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the storage engine, the replication middleware and the
/// cluster API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The transaction was aborted because of a write-write conflict with a
    /// concurrently committed transaction (snapshot isolation's
    /// first-committer-wins rule), either locally or at the certifier.
    WriteConflict {
        /// The aborted transaction.
        tx: TxId,
        /// Human-readable description of the conflicting access.
        detail: String,
    },
    /// The certifier rejected the transaction during certification.
    CertificationFailed {
        /// The start version the transaction was certified against.
        start_version: Version,
        /// Description of the conflict.
        detail: String,
    },
    /// The transaction was chosen as a deadlock victim.
    Deadlock {
        /// The aborted transaction.
        tx: TxId,
    },
    /// The referenced transaction does not exist or has already finished.
    UnknownTransaction(TxId),
    /// The referenced table has not been created.
    UnknownTable(String),
    /// The referenced row does not exist.
    RowNotFound {
        /// Table name.
        table: String,
        /// Stringified key.
        key: String,
    },
    /// An operation was attempted on a transaction in the wrong state
    /// (e.g. writing after commit).
    InvalidTransactionState {
        /// The offending transaction.
        tx: TxId,
        /// What was expected.
        expected: &'static str,
    },
    /// The storage engine or a middleware component has been shut down or has
    /// crashed (fault injection), so the request cannot be served.
    Unavailable(String),
    /// The ordered-commit API was misused (e.g. committing sequence 9 without
    /// 1–8 ever arriving) and the engine resolved the stall by aborting.
    OrderedCommitTimeout {
        /// The commit sequence number that never became eligible.
        sequence: Version,
    },
    /// An ordered commit's turn can never come: an earlier order index on
    /// the same engine failed without announcing, and only a resync may
    /// move past it.
    BehindFailedOrderIndex {
        /// The order index whose turn wait failed.
        index: u64,
        /// The earlier index that failed.
        failed: u64,
    },
    /// An IO error from the (simulated or real) log device.
    Io(String),
    /// A corrupted or truncated log / dump file was encountered during
    /// recovery.
    Corruption(String),
    /// Configuration rejected by validation.
    InvalidConfig(String),
    /// The proxy or certifier received a message it cannot interpret.
    Protocol(String),
}

impl Error {
    /// `true` if the error denotes a transaction abort that the client may
    /// simply retry (conflicts, deadlocks, certification failures).
    #[must_use]
    pub fn is_retryable_abort(&self) -> bool {
        matches!(
            self,
            Error::WriteConflict { .. }
                | Error::CertificationFailed { .. }
                | Error::Deadlock { .. }
                | Error::OrderedCommitTimeout { .. }
                | Error::BehindFailedOrderIndex { .. }
        )
    }

    /// `true` if the error denotes a crashed / shut-down component.
    #[must_use]
    pub fn is_unavailable(&self) -> bool {
        matches!(self, Error::Unavailable(_))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::WriteConflict { tx, detail } => {
                write!(f, "write-write conflict aborted {tx}: {detail}")
            }
            Error::CertificationFailed {
                start_version,
                detail,
            } => write!(
                f,
                "certification failed (start version {start_version}): {detail}"
            ),
            Error::Deadlock { tx } => write!(f, "{tx} chosen as deadlock victim"),
            Error::UnknownTransaction(tx) => write!(f, "unknown transaction {tx}"),
            Error::UnknownTable(name) => write!(f, "unknown table '{name}'"),
            Error::RowNotFound { table, key } => {
                write!(f, "row {key} not found in table '{table}'")
            }
            Error::InvalidTransactionState { tx, expected } => {
                write!(f, "{tx} is not {expected}")
            }
            Error::Unavailable(what) => write!(f, "component unavailable: {what}"),
            Error::OrderedCommitTimeout { sequence } => {
                write!(f, "ordered commit {sequence} never became eligible")
            }
            Error::BehindFailedOrderIndex { index, failed } => {
                write!(
                    f,
                    "ordered commit index {index} waits behind failed index {failed}"
                )
            }
            Error::Io(detail) => write!(f, "io error: {detail}"),
            Error::Corruption(detail) => write!(f, "log corruption: {detail}"),
            Error::InvalidConfig(detail) => write!(f, "invalid configuration: {detail}"),
            Error::Protocol(detail) => write!(f, "protocol error: {detail}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryable_classification() {
        assert!(Error::WriteConflict {
            tx: TxId(1),
            detail: "x".into()
        }
        .is_retryable_abort());
        assert!(Error::Deadlock { tx: TxId(1) }.is_retryable_abort());
        assert!(Error::CertificationFailed {
            start_version: Version(3),
            detail: "y".into()
        }
        .is_retryable_abort());
        assert!(!Error::UnknownTable("t".into()).is_retryable_abort());
        assert!(!Error::Io("disk".into()).is_retryable_abort());
    }

    #[test]
    fn unavailable_classification() {
        assert!(Error::Unavailable("replica down".into()).is_unavailable());
        assert!(!Error::Io("x".into()).is_unavailable());
    }

    #[test]
    fn display_messages_are_informative() {
        let e = Error::RowNotFound {
            table: "accounts".into(),
            key: "42".into(),
        };
        assert!(e.to_string().contains("accounts"));
        assert!(e.to_string().contains("42"));
        let e = Error::OrderedCommitTimeout {
            sequence: Version(9),
        };
        assert!(e.to_string().contains("v9"));
    }
}
