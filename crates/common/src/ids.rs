//! Identifiers and version numbers.
//!
//! The paper uses a single monotonically increasing *version* to name
//! database snapshots: the certifier's `system_version`, each replica's
//! `replica_version`, a transaction's `tx_start_version` and, for update
//! transactions, its `tx_commit_version`.  [`Version`] models that counter.

use std::fmt;

/// A database snapshot version.
///
/// Version `0` is the initial, empty state of the database.  Every committed
/// update transaction creates the next version.  The certifier owns the
/// global `system_version`; each replica tracks the prefix it has applied in
/// its `replica_version`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Version(pub u64);

impl Version {
    /// The initial version of an empty database.
    pub const ZERO: Version = Version(0);

    /// Returns the next version (the version created by one more commit).
    #[must_use]
    pub fn next(self) -> Version {
        Version(self.0 + 1)
    }

    /// Returns the previous version, saturating at zero.
    #[must_use]
    pub fn prev(self) -> Version {
        Version(self.0.saturating_sub(1))
    }

    /// Returns the raw counter value.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }

    /// Returns `true` for the initial (empty database) version.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Number of versions between `self` and an earlier version `other`.
    ///
    /// Returns zero if `other` is newer than `self`.
    #[must_use]
    pub fn distance_from(self, other: Version) -> u64 {
        self.0.saturating_sub(other.0)
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u64> for Version {
    fn from(v: u64) -> Self {
        Version(v)
    }
}

impl From<Version> for u64 {
    fn from(v: Version) -> Self {
        v.0
    }
}

/// Identifier of a database replica (and of its attached proxy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ReplicaId(pub u32);

impl ReplicaId {
    /// Returns the raw identifier.
    #[must_use]
    pub fn value(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "replica-{}", self.0)
    }
}

/// Identifier of a client connection (one closed-loop workload driver).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClientId(pub u64);

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "client-{}", self.0)
    }
}

/// Identifier of a transaction, unique within a replica's storage engine.
///
/// Transaction ids are a local implementation detail of the storage engine;
/// the replication protocol only ever refers to transactions by the version
/// they commit at (their `tx_commit_version`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TxId(pub u64);

impl TxId {
    /// Returns the raw identifier.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx-{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_next_and_prev() {
        let v = Version::ZERO;
        assert!(v.is_zero());
        assert_eq!(v.next(), Version(1));
        assert_eq!(v.next().prev(), Version::ZERO);
        // `prev` saturates at zero rather than wrapping.
        assert_eq!(Version::ZERO.prev(), Version::ZERO);
    }

    #[test]
    fn version_ordering_follows_counter() {
        assert!(Version(3) > Version(2));
        assert!(Version(2) >= Version(2));
        assert_eq!(Version(7).distance_from(Version(4)), 3);
        assert_eq!(Version(4).distance_from(Version(7)), 0);
    }

    #[test]
    fn version_display_and_conversions() {
        let v: Version = 42u64.into();
        assert_eq!(v.to_string(), "v42");
        let raw: u64 = v.into();
        assert_eq!(raw, 42);
        assert_eq!(v.value(), 42);
    }

    #[test]
    fn id_display_formats() {
        assert_eq!(ReplicaId(3).to_string(), "replica-3");
        assert_eq!(ClientId(9).to_string(), "client-9");
        assert_eq!(TxId(11).to_string(), "tx-11");
        assert_eq!(TxId(11).value(), 11);
        assert_eq!(ReplicaId(3).value(), 3);
    }
}
