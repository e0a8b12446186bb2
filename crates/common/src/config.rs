//! System variants and cluster configuration.
//!
//! The paper evaluates three otherwise-identical replication systems that
//! differ only in where durability lives and whether the database is told the
//! global commit order:
//!
//! | System | Ordering | Durability | Commits at the replica |
//! |--------|----------|------------|------------------------|
//! | `Base` | middleware | database (synchronous WAL) | serial, one fsync each |
//! | `Tashkent-MW` | middleware | middleware (certifier log) | serial but in-memory |
//! | `Tashkent-API` | middleware → database (`COMMIT <seq>`) | database | concurrent, group-committed |
//!
//! [`SystemKind`] selects the variant; [`ClusterConfig`] describes a real
//! deployment (replica count, certifier group and shards, transport and the
//! proxy's protocol options).  [`IoChannelMode`] is the simulator's.

use std::time::Duration;

use serde::{Deserialize, Serialize};

/// Which of the three replication designs a cluster runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SystemKind {
    /// Ordering in middleware, durability in the database, serial commits.
    Base,
    /// Durability moved to the certifier log; replica commits are in-memory.
    TashkentMw,
    /// Durability stays in the database; the middleware passes the commit
    /// order via the extended `COMMIT <seq>` API.
    TashkentApi,
    /// Tashkent-API with the certifier's own durability fsync disabled
    /// (the `tashAPInoCERT` curve of Figures 4, 6, 8 and 10).  Used only to
    /// isolate the cost of the extra fsync in the certifier; not a deployable
    /// configuration because the middleware can no longer recover.
    TashkentApiNoCertDurability,
}

impl SystemKind {
    /// All deployable systems, in the order the paper plots them.
    pub const ALL: [SystemKind; 3] = [
        SystemKind::Base,
        SystemKind::TashkentMw,
        SystemKind::TashkentApi,
    ];

    /// All systems including the `tashAPInoCERT` analysis configuration.
    pub const ALL_WITH_ANALYSIS: [SystemKind; 4] = [
        SystemKind::Base,
        SystemKind::TashkentMw,
        SystemKind::TashkentApi,
        SystemKind::TashkentApiNoCertDurability,
    ];

    /// `true` if the database replicas keep durability (synchronous commit
    /// records), i.e. Base and both Tashkent-API configurations.
    #[must_use]
    pub fn database_durable(self) -> bool {
        !matches!(self, SystemKind::TashkentMw)
    }

    /// `true` if the certifier synchronously logs certified writesets.
    ///
    /// This is required for middleware recovery in every deployable system;
    /// only the `tashAPInoCERT` analysis configuration turns it off.
    #[must_use]
    pub fn certifier_durable(self) -> bool {
        !matches!(self, SystemKind::TashkentApiNoCertDurability)
    }

    /// `true` if the replica may submit commits concurrently because the
    /// commit order is passed to the database (the Tashkent-API systems).
    #[must_use]
    pub fn ordered_commit_api(self) -> bool {
        matches!(
            self,
            SystemKind::TashkentApi | SystemKind::TashkentApiNoCertDurability
        )
    }

    /// Short label used in benchmark output, matching the paper's curves.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::Base => "base",
            SystemKind::TashkentMw => "tashMW",
            SystemKind::TashkentApi => "tashAPI",
            SystemKind::TashkentApiNoCertDurability => "tashAPInoCERT",
        }
    }
}

impl std::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// WAL synchronisation mode of a database replica.
///
/// Mirrors the options Section 7.1 describes for off-the-shelf engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SyncMode {
    /// Every commit record is flushed with a synchronous write (fsync).
    /// This is the standalone-database default and what Base and
    /// Tashkent-API use.
    Durable,
    /// WAL records are still written (preserving physical data integrity)
    /// but commits do not wait for the flush; committed transactions may be
    /// lost on a crash.  "Disable only durability" in Section 7.1, Case 2.
    NoSyncOnCommit,
    /// All synchronous WAL activity is disabled; both durability and physical
    /// data integrity are void on a crash.  "Disable both" in Section 7.1,
    /// Case 1 — the mode Tashkent-MW uses with PostgreSQL, compensated by
    /// middleware-driven dumps.
    Off,
}

impl SyncMode {
    /// `true` if a commit waits for a synchronous disk write.
    #[must_use]
    pub fn commit_is_synchronous(self) -> bool {
        matches!(self, SyncMode::Durable)
    }

    /// `true` if the WAL still protects physical data integrity after a crash.
    #[must_use]
    pub fn preserves_integrity(self) -> bool {
        !matches!(self, SyncMode::Off)
    }
}

/// How the cluster's nodes talk to each other.
///
/// The replication logic is transport-agnostic: the proxies and the
/// certifier exchange the same messages whether they share an address
/// space or a network.  This knob selects the plumbing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TransportKind {
    /// Direct in-process calls (the historical default): proxies invoke the
    /// certifier through shared memory with no serialisation.
    InProcess,
    /// The `tashkent-net` in-memory loopback transport: every message is
    /// framed, encoded and decoded exactly as on a real network, and links
    /// are deterministic and fault-injectable (sever/heal/partition by
    /// seed) — the hook the fault harness uses for partition schedules.
    Loopback,
    /// Real TCP sockets on localhost via non-blocking `std::net`.
    Tcp,
}

impl TransportKind {
    /// All transports, in increasing order of realism.
    pub const ALL: [TransportKind; 3] = [
        TransportKind::InProcess,
        TransportKind::Loopback,
        TransportKind::Tcp,
    ];

    /// `true` if messages cross a real (or simulated) wire and therefore
    /// go through the `tashkent-net` codec.
    #[must_use]
    pub fn is_networked(self) -> bool {
        !matches!(self, TransportKind::InProcess)
    }

    /// Label used in benchmark output and the README transport matrix.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TransportKind::InProcess => "in-process",
            TransportKind::Loopback => "loopback",
            TransportKind::Tcp => "tcp",
        }
    }
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Layout of the disk IO channel(s) at each replica.
///
/// The paper's servers have a single disk, so by default the WAL shares the
/// channel with database page reads and dirty-page writebacks
/// ("shared IO").  Putting the database in ramdisk dedicates the channel to
/// logging ("dedicated IO").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IoChannelMode {
    /// One disk shared between WAL logging, page reads and page writebacks.
    Shared,
    /// The log has the disk to itself; data pages live in memory (ramdisk).
    Dedicated,
}

impl IoChannelMode {
    /// Label used in figure captions.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            IoChannelMode::Shared => "shared IO",
            IoChannelMode::Dedicated => "dedicated IO",
        }
    }
}

/// Configuration of a whole replicated deployment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Which replication design to run.
    pub system: SystemKind,
    /// Number of database replicas (the paper scales 1–15).
    pub replicas: usize,
    /// Number of certifier nodes (the paper uses a leader plus two backups).
    pub certifiers: usize,
    /// Number of certifier shards the row space is partitioned across
    /// (`1` reproduces the paper's single certifier; each shard is its own
    /// `certifiers`-node replicated group).  See [`crate::ShardMap`].
    pub certifier_shards: usize,
    /// Fraction of certification requests the certifier aborts at random
    /// *after* performing the full check (Section 9.5's forced abort rates).
    pub forced_abort_rate: f64,
    /// If a replica hears nothing from the certifier for this long, its proxy
    /// proactively fetches remote writesets (bounded staleness, Section 6.2).
    pub staleness_bound: Duration,
    /// Enable local certification at the proxy (Section 6.2 optimisation).
    pub local_certification: bool,
    /// Enable eager pre-certification / deadlock avoidance (Section 8.2).
    pub eager_precertification: bool,
    /// How proxies reach the certifier (appended last so configurations
    /// serialised before networking existed keep their field order).
    pub transport: TransportKind,
}

impl ClusterConfig {
    /// A small configuration convenient for tests and the quickstart example.
    #[must_use]
    pub fn small(system: SystemKind) -> Self {
        ClusterConfig {
            system,
            replicas: 2,
            certifiers: 3,
            certifier_shards: 1,
            forced_abort_rate: 0.0,
            staleness_bound: Duration::from_millis(50),
            local_certification: true,
            eager_precertification: true,
            transport: TransportKind::InProcess,
        }
    }

    /// Validates the configuration, returning a description of the first
    /// problem found.
    ///
    /// # Errors
    ///
    /// Returns `Err` if the replica count or certifier group is empty, the
    /// shard count is invalid, or the abort rate is outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        if self.replicas == 0 {
            return Err("a cluster needs at least one replica".to_owned());
        }
        if self.certifiers == 0 {
            return Err("a cluster needs at least one certifier".to_owned());
        }
        crate::ShardMap::new(self.certifier_shards).validate()?;
        if !(0.0..=1.0).contains(&self.forced_abort_rate) {
            return Err(format!(
                "forced abort rate {} outside [0, 1]",
                self.forced_abort_rate
            ));
        }
        Ok(())
    }

    /// Majority size of the certifier group (progress requires this many
    /// certifiers up, Section 7).
    #[must_use]
    pub fn certifier_majority(&self) -> usize {
        self.certifiers / 2 + 1
    }

    /// The WAL sync mode a replica database should run with under this
    /// system (Tashkent-MW disables synchronous writes, everything else keeps
    /// them).
    #[must_use]
    pub fn replica_sync_mode(&self) -> SyncMode {
        if self.system.database_durable() {
            SyncMode::Durable
        } else {
            SyncMode::Off
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_kind_properties_match_paper_table() {
        assert!(SystemKind::Base.database_durable());
        assert!(SystemKind::TashkentApi.database_durable());
        assert!(!SystemKind::TashkentMw.database_durable());

        assert!(SystemKind::Base.certifier_durable());
        assert!(SystemKind::TashkentMw.certifier_durable());
        assert!(SystemKind::TashkentApi.certifier_durable());
        assert!(!SystemKind::TashkentApiNoCertDurability.certifier_durable());

        assert!(!SystemKind::Base.ordered_commit_api());
        assert!(!SystemKind::TashkentMw.ordered_commit_api());
        assert!(SystemKind::TashkentApi.ordered_commit_api());
        assert!(SystemKind::TashkentApiNoCertDurability.ordered_commit_api());
    }

    #[test]
    fn labels_match_figure_legends() {
        assert_eq!(SystemKind::Base.to_string(), "base");
        assert_eq!(SystemKind::TashkentMw.to_string(), "tashMW");
        assert_eq!(SystemKind::TashkentApi.to_string(), "tashAPI");
        assert_eq!(
            SystemKind::TashkentApiNoCertDurability.to_string(),
            "tashAPInoCERT"
        );
        assert_eq!(IoChannelMode::Shared.label(), "shared IO");
        assert_eq!(IoChannelMode::Dedicated.label(), "dedicated IO");
    }

    #[test]
    fn sync_mode_semantics() {
        assert!(SyncMode::Durable.commit_is_synchronous());
        assert!(!SyncMode::NoSyncOnCommit.commit_is_synchronous());
        assert!(!SyncMode::Off.commit_is_synchronous());
        assert!(SyncMode::Durable.preserves_integrity());
        assert!(SyncMode::NoSyncOnCommit.preserves_integrity());
        assert!(!SyncMode::Off.preserves_integrity());
    }

    #[test]
    fn cluster_config_validation() {
        let mut cfg = ClusterConfig::small(SystemKind::Base);
        assert!(cfg.validate().is_ok());
        cfg.replicas = 0;
        assert!(cfg.validate().is_err());
        cfg.replicas = 1;
        cfg.forced_abort_rate = 1.5;
        assert!(cfg.validate().is_err());
        cfg.forced_abort_rate = 0.2;
        cfg.certifiers = 0;
        assert!(cfg.validate().is_err());
        cfg.certifiers = 3;
        cfg.certifier_shards = 0;
        assert!(cfg.validate().is_err());
        cfg.certifier_shards = 4;
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn majority_and_sync_mode_derivation() {
        let mut cfg = ClusterConfig::small(SystemKind::TashkentMw);
        assert_eq!(cfg.certifier_majority(), 2);
        assert_eq!(cfg.replica_sync_mode(), SyncMode::Off);
        cfg.certifiers = 5;
        assert_eq!(cfg.certifier_majority(), 3);
        for system in [SystemKind::Base, SystemKind::TashkentApi] {
            let cfg = ClusterConfig::small(system);
            assert_eq!(cfg.replica_sync_mode(), SyncMode::Durable);
        }
    }

    #[test]
    fn transport_labels_and_defaults() {
        assert_eq!(TransportKind::InProcess.to_string(), "in-process");
        assert_eq!(TransportKind::Loopback.to_string(), "loopback");
        assert_eq!(TransportKind::Tcp.to_string(), "tcp");
        assert!(!TransportKind::InProcess.is_networked());
        assert!(TransportKind::Loopback.is_networked());
        assert!(TransportKind::Tcp.is_networked());
        // The constructor stays in-process so nothing changes under callers
        // that predate networking.
        let cfg = ClusterConfig::small(SystemKind::Base);
        assert_eq!(cfg.transport, TransportKind::InProcess);
    }
}
