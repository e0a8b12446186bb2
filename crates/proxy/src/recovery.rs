//! Replica recovery (Sections 7.1, 7.2 and 8.1): one rule for every system.
//!
//! Base, Tashkent-MW and Tashkent-API all recover the same way — restore a
//! durable image, then fetch the rest from the certifier log.  They differ
//! only in how much of the replica's own WAL a crash leaves usable, which
//! the engine's [`SyncMode`](tashkent_common::SyncMode) already says.
//! [`recover_replica`] applies the rule:
//!
//! 1. **Pick the image**: the intact sealed checkpoint covering the highest
//!    version ([`CheckpointStore::best`]).  Torn images and manifests are
//!    skipped, so a crash mid-seal falls back to an older image; with no
//!    image at all the replica starts from the empty schema.
//! 2. **Redo the WAL** up to its dense frontier (see `dense_frontier`).
//!    Tashkent-MW runs with `SyncMode::Off`, whose log preserves nothing
//!    after a crash, so there the frontier is the image itself.
//! 3. **Refuse a gap**: a database below the in-process certifier's
//!    truncation floor cannot be caught up.  (A fully trimmed log returns
//!    an empty stream, so the resync alone would not see the gap.)
//! 4. **Resync**: a fresh [`Proxy`] installs everything past the database's
//!    version through [`Proxy::resync`] — the install path every other
//!    remote writeset takes, counted in `RemoteInstalls`, and on
//!    Tashkent-API announced at an order index.  Section 9.6 measures this
//!    step at roughly 900 writesets per second.

use std::sync::Arc;

use tashkent_common::{Error, Result, Version};
use tashkent_storage::checkpoint::CheckpointStore;
use tashkent_storage::disk::LogDevice;
use tashkent_storage::wal::WalRecord;
use tashkent_storage::{Database, DatabaseDump, EngineConfig};

use crate::fanout::CertifierHandle;
use crate::proxy::{Proxy, ProxyConfig};

/// Recovers a crashed replica by the rule above from its `checkpoints`, the
/// durable contents of its old log `device` and the certifier log.  The
/// `schema` is created before the image is loaded.  Returns the proxy that
/// fronts the recovered database and the number of writesets re-fetched.
///
/// # Errors
///
/// Returns [`Error::Corruption`] if the WAL cannot be decoded or the
/// recovered database is below the certifier's truncation floor, and
/// certifier or engine errors from the resync.
pub fn recover_replica(
    engine: EngineConfig,
    proxy: ProxyConfig,
    device: Arc<dyn LogDevice>,
    schema: &[(&str, Vec<&str>)],
    checkpoints: &CheckpointStore,
    certifier: &CertifierHandle,
) -> Result<(Proxy, usize)> {
    let image = checkpoints
        .best()
        .map(|sealed| DatabaseDump::from_bytes(&sealed.payload))
        .transpose()?;
    let base = image.as_ref().map_or(Version::ZERO, DatabaseDump::version);
    let frontier = if engine.sync_mode.preserves_integrity() {
        dense_frontier(device.as_ref(), base)?
    } else {
        base
    };
    let db =
        Database::recover_with_baseline(engine, device, schema, image.as_ref(), Some(frontier))?;
    let floor = certifier.local().truncation_floor();
    if db.version() < floor {
        return Err(Error::Corruption(format!(
            "replica recovered to version {} is below the certifier truncation floor {floor}; \
             it needs a checkpoint at or above the floor",
            db.version()
        )));
    }
    let proxy = Proxy::new(proxy, db, certifier.clone());
    let applied = proxy.resync()?;
    Ok((proxy, applied))
}

/// The WAL's **dense frontier**: the highest version `f` such that every
/// version in `(base, f]` has its own durable commit record on `device`.
///
/// Beyond the frontier a version gap is ambiguous: it is either a grouped
/// install (one record covering a whole batch, harmless) or a record lost
/// to the crash (group commit fsyncs records out of version order, so a
/// lost record can sit *below* durable ones).  A Tashkent-API remote
/// install is one more source of such gaps: it appends its record without
/// a flush and rides the next local commit's flush, so a crash before that
/// flush loses a record the replica had already announced.  The certifier
/// log still holds every certified writeset, so everything past the
/// frontier is re-fetched from there instead of being guessed from the log.
fn dense_frontier(device: &dyn LogDevice, base: Version) -> Result<Version> {
    let mut versions: Vec<Version> = WalRecord::decode_all(&device.durable_contents())?
        .iter()
        .filter_map(|record| match record {
            WalRecord::Commit { version, .. } => Some(*version),
            WalRecord::Checkpoint { .. } => None,
        })
        .collect();
    versions.sort_unstable();
    let mut frontier = base;
    for version in versions {
        if version == frontier.next() {
            frontier = version;
        } else if version > frontier {
            break;
        }
    }
    Ok(frontier)
}

#[cfg(test)]
mod tests {
    use tashkent_certifier::{
        CertificationRequest, Certifier, CertifierConfig, ShardedCertifierConfig,
    };
    use tashkent_common::metrics::CounterId;
    use tashkent_common::{
        EventKind, MetricsRegistry, ReplicaId, SyncMode, SystemKind, TableId, Value, WriteItem,
        WriteSet,
    };
    use tashkent_storage::checkpoint::{encode_image, encode_manifest};
    use tashkent_storage::FlushAt;

    use super::*;

    fn ws(key: i64, value: i64) -> WriteSet {
        WriteSet::from_items(vec![WriteItem::update(
            TableId(0),
            key,
            vec![("x".into(), Value::Int(value))],
        )])
    }

    fn fill(certifier: &CertifierHandle, count: i64) {
        for k in 0..count {
            let response = certifier
                .certify(&CertificationRequest {
                    replica: ReplicaId(9),
                    start_version: certifier.system_version(),
                    writeset: ws(k, k * 100),
                    replica_version: certifier.system_version(),
                })
                .unwrap();
            assert!(response.decision.is_commit());
        }
    }

    fn certifier_with_entries(count: i64) -> CertifierHandle {
        let certifier: CertifierHandle =
            Arc::new(Certifier::new(CertifierConfig::default())).into();
        fill(&certifier, count);
        certifier
    }

    /// Seals the certifier's log and trims it below `floor`.
    fn trim(certifier: &CertifierHandle, floor: u64) {
        certifier.local().seal_checkpoint();
        certifier.local().truncate_below(Version(floor)).unwrap();
        assert_eq!(certifier.truncation_floor(), Version(floor));
    }

    fn engine(system: SystemKind) -> EngineConfig {
        EngineConfig::with_sync_mode(if system == SystemKind::TashkentMw {
            SyncMode::Off
        } else {
            SyncMode::Durable
        })
    }

    /// A live replica of `system` holding table `t`.
    fn replica(system: SystemKind) -> Database {
        let db = Database::new(engine(system));
        db.create_table("t", &["x"]);
        db
    }

    /// Installs the certified writesets `(from, to]` the serial way.
    fn install(db: &Database, certifier: &CertifierHandle, from: u64, to: u64) {
        for remote in certifier.writesets_after(Version(from)) {
            if remote.commit_version > Version(to) {
                break;
            }
            db.apply_writeset(&remote.writeset, remote.commit_version)
                .unwrap();
        }
    }

    /// Crashes `db` and recovers it as a `system` replica.
    fn recover(
        system: SystemKind,
        db: &Database,
        checkpoints: &CheckpointStore,
        certifier: &CertifierHandle,
    ) -> Result<(Proxy, usize)> {
        db.crash();
        recover_replica(
            engine(system),
            ProxyConfig::new(system, ReplicaId(0)),
            db.log_device(),
            &[("t", vec!["x"])],
            checkpoints,
            certifier,
        )
    }

    /// The versions of the commit records a crash left in the WAL.
    fn durable_commit_versions(db: &Database) -> Vec<Version> {
        WalRecord::decode_all(&db.log_device().durable_contents())
            .unwrap()
            .iter()
            .filter_map(|record| match record {
                WalRecord::Commit { version, .. } => Some(*version),
                WalRecord::Checkpoint { .. } => None,
            })
            .collect()
    }

    /// A replica that installed every certified writeset in order and
    /// never crashed.
    fn never_crashed(certifier: &CertifierHandle) -> Database {
        let db = replica(SystemKind::TashkentApi);
        for (order, remote) in certifier.writesets_after(Version::ZERO).iter().enumerate() {
            db.apply_writeset_ordered(
                &remote.writeset,
                remote.commit_version,
                order as u64 + 1,
                FlushAt::BeforeTurn,
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn catch_up_applies_all_missing_writesets() {
        let certifier = certifier_with_entries(10);
        let db = replica(SystemKind::Base);
        let (proxy, applied) =
            recover(SystemKind::Base, &db, &CheckpointStore::new(), &certifier).unwrap();
        assert_eq!(applied, 10);
        let recovered = proxy.database();
        assert_eq!(proxy.database().version(), Version(10));
        let t = recovered.table_id("t").unwrap();
        assert_eq!(
            recovered.read_latest(t, 4).unwrap().get("x"),
            Some(&Value::Int(400))
        );
        // The recovered proxy is caught up.
        assert_eq!(proxy.resync().unwrap(), 0);
    }

    #[test]
    fn base_replica_recovers_from_wal_then_catches_up() {
        let certifier = certifier_with_entries(3);
        // A replica that had applied the first two writesets durably.
        let db = replica(SystemKind::Base);
        install(&db, &certifier, 0, 2);
        let (proxy, applied) =
            recover(SystemKind::Base, &db, &CheckpointStore::new(), &certifier).unwrap();
        // WAL redo restored versions 1-2; the resync supplied version 3.
        assert_eq!(applied, 1);
        assert_eq!(proxy.database().version(), Version(3));
    }

    #[test]
    fn an_api_remote_install_lost_before_any_flush_is_refetched() {
        let certifier = certifier_with_entries(3);
        let remotes = certifier.writesets_after(Version::ZERO);
        // The replica installs and announces the first two writesets, then
        // crashes before any local commit or checkpoint flushes the WAL.
        let db = replica(SystemKind::TashkentApi);
        for (order, remote) in remotes.iter().take(2).enumerate() {
            db.apply_writeset_ordered(
                &remote.writeset,
                remote.commit_version,
                order as u64 + 1,
                FlushAt::BeforeTurn,
            )
            .unwrap();
        }
        assert_eq!(db.version(), Version(2), "both installs announced");
        db.crash();
        assert!(
            durable_commit_versions(&db).is_empty(),
            "a remote install appends its record without a flush"
        );
        let (proxy, applied) = recover(
            SystemKind::TashkentApi,
            &db,
            &CheckpointStore::new(),
            &certifier,
        )
        .unwrap();
        assert_eq!(applied, 3, "the lost installs come back from the certifier");
        assert_eq!(proxy.database().dump(), never_crashed(&certifier).dump());
    }

    #[test]
    fn a_local_flush_covers_the_remote_records_appended_before_it() {
        let certifier = certifier_with_entries(2);
        let remotes = certifier.writesets_after(Version::ZERO);
        let db = replica(SystemKind::TashkentApi);
        db.apply_writeset_ordered(
            &remotes[0].writeset,
            remotes[0].commit_version,
            1,
            FlushAt::BeforeTurn,
        )
        .unwrap();
        // The replica's own transaction, certified as the second writeset,
        // commits through the ordered API and flushes.
        let local = db.begin();
        local.apply_items(&remotes[1].writeset).unwrap();
        local
            .commit_ordered(2, remotes[1].commit_version, FlushAt::BeforeTurn)
            .unwrap();
        db.crash();
        assert_eq!(
            durable_commit_versions(&db),
            vec![Version(1), Version(2)],
            "the local flush made the earlier remote record durable too"
        );
        let (proxy, applied) = recover(
            SystemKind::TashkentApi,
            &db,
            &CheckpointStore::new(),
            &certifier,
        )
        .unwrap();
        assert_eq!(applied, 0, "WAL redo alone restores both commits");
        assert_eq!(proxy.database().dump(), never_crashed(&certifier).dump());
    }

    #[test]
    fn mw_replica_recovers_from_latest_intact_dump() {
        let certifier = certifier_with_entries(6);
        // Build the replica state as of version 4 and seal it.
        let db = replica(SystemKind::TashkentMw);
        install(&db, &certifier, 0, 4);
        let checkpoints = CheckpointStore::new();
        checkpoints.seal(Version(4), &db.dump().to_bytes());
        // The next seal is torn (crash while writing the image), yet its
        // manifest flip landed.
        let image = encode_image(Version(5), &db.dump().to_bytes());
        let slot = checkpoints.install_raw_slot(image[..image.len() / 2].to_vec());
        checkpoints.install_raw_manifest(encode_manifest(checkpoints.next_seq(), slot, Version(5)));
        let (proxy, applied) =
            recover(SystemKind::TashkentMw, &db, &checkpoints, &certifier).unwrap();
        assert_eq!(proxy.database().version(), Version(6));
        assert_eq!(applied, 2);
    }

    #[test]
    fn an_mw_replica_redoes_no_wal_record_past_its_image() {
        let certifier = certifier_with_entries(4);
        let db = replica(SystemKind::TashkentMw);
        install(&db, &certifier, 0, 4);
        // A WAL checkpoint flushed every record, but `SyncMode::Off` voids
        // the log's integrity: recovery starts from the (empty) image and
        // takes everything from the certifier.
        db.checkpoint();
        assert_eq!(durable_commit_versions(&db).len(), 4);
        let (proxy, applied) = recover(
            SystemKind::TashkentMw,
            &db,
            &CheckpointStore::new(),
            &certifier,
        )
        .unwrap();
        assert_eq!(applied, 4);
        assert_eq!(proxy.database().dump(), never_crashed(&certifier).dump());
    }

    #[test]
    fn catch_up_consumes_the_sharded_certifiers_merged_stream() {
        let certifier: CertifierHandle =
            Arc::new(Certifier::new(ShardedCertifierConfig::with_shards(4))).into();
        fill(&certifier, 10);
        let db = replica(SystemKind::TashkentApi);
        let (proxy, applied) = recover_replica(
            engine(SystemKind::TashkentApi),
            ProxyConfig::new(SystemKind::TashkentApi, ReplicaId(0)),
            db.log_device(),
            &[("t", vec!["x"])],
            &CheckpointStore::new(),
            &certifier,
        )
        .unwrap();
        assert_eq!(applied, 10);
        assert_eq!(proxy.database().version(), Version(10));
        assert_eq!(proxy.resync().unwrap(), 0);
    }

    #[test]
    fn catch_up_refuses_to_cross_the_truncation_floor() {
        let certifier = certifier_with_entries(8);
        trim(&certifier, 5);
        // A replica whose image is past the floor catches up normally.
        let db = replica(SystemKind::TashkentMw);
        install(&db, &certifier_with_entries(8), 0, 5);
        let checkpoints = CheckpointStore::new();
        checkpoints.seal(Version(5), &db.dump().to_bytes());
        let (proxy, applied) =
            recover(SystemKind::TashkentMw, &db, &checkpoints, &certifier).unwrap();
        assert_eq!(applied, 3);
        assert_eq!(proxy.database().version(), Version(8));
        // A replica whose only image is below the floor is refused loudly,
        // not fed a gap.
        let stale = CheckpointStore::new();
        stale.seal(
            Version::ZERO,
            &replica(SystemKind::TashkentMw).dump().to_bytes(),
        );
        assert!(matches!(
            recover(SystemKind::TashkentMw, &db, &stale, &certifier),
            Err(Error::Corruption(_))
        ));
    }

    #[test]
    fn mw_recovery_skips_dumps_below_the_truncation_floor() {
        let certifier = certifier_with_entries(8);
        let db = replica(SystemKind::TashkentMw);
        install(&db, &certifier, 0, 2);
        let stale = db.dump().to_bytes();
        install(&db, &certifier, 2, 5);
        // Two racing seals: the fresher image's manifest flipped first, so
        // the newest manifest names an image below the floor.
        let checkpoints = CheckpointStore::new();
        checkpoints.seal(Version(5), &db.dump().to_bytes());
        checkpoints.seal(Version(2), &stale);
        trim(&certifier, 5);
        let (proxy, applied) =
            recover(SystemKind::TashkentMw, &db, &checkpoints, &certifier).unwrap();
        assert_eq!(proxy.database().version(), Version(8));
        assert_eq!(applied, 3);
    }

    #[test]
    fn mw_recovery_fails_without_any_intact_dump() {
        let certifier = certifier_with_entries(3);
        trim(&certifier, 2);
        let checkpoints = CheckpointStore::new();
        let slot = checkpoints.install_raw_slot(vec![1, 2, 3]);
        checkpoints.install_raw_manifest(encode_manifest(0, slot, Version(3)));
        let db = replica(SystemKind::TashkentMw);
        let result = recover(SystemKind::TashkentMw, &db, &checkpoints, &certifier);
        assert!(matches!(result, Err(Error::Corruption(_))));
    }

    #[test]
    fn racing_seals_recover_a_base_or_api_replica_from_the_higher_image() {
        for system in [SystemKind::Base, SystemKind::TashkentApi] {
            let certifier = certifier_with_entries(8);
            let db = replica(system);
            install(&db, &certifier, 0, 3);
            let older = db.dump().to_bytes();
            install(&db, &certifier, 3, 6);
            // The higher image's manifest flipped first; the WAL was then
            // trimmed up to it, and the certifier log below it.
            let checkpoints = CheckpointStore::new();
            checkpoints.seal(Version(6), &db.dump().to_bytes());
            checkpoints.seal(Version(3), &older);
            db.truncate_wal_below(Version(6)).unwrap();
            install(&db, &certifier, 6, 7);
            trim(&certifier, 6);
            let (proxy, applied) = recover(system, &db, &checkpoints, &certifier)
                .unwrap_or_else(|e| panic!("{system:?}: {e}"));
            assert_eq!(applied, 1, "{system:?}: WAL redo restores 7, the resync 8");
            assert_eq!(
                proxy.database().dump(),
                never_crashed(&certifier_with_entries(8)).dump()
            );
        }
    }

    #[test]
    fn recovery_installs_are_counted_like_every_other_install() {
        let certifier = certifier_with_entries(5);
        let db = replica(SystemKind::TashkentApi);
        install(&db, &certifier, 0, 2);
        db.crash();
        let metrics = Arc::new(MetricsRegistry::enabled());
        let (proxy, applied) = recover_replica(
            engine(SystemKind::TashkentApi),
            ProxyConfig {
                metrics: Arc::clone(&metrics),
                ..ProxyConfig::new(SystemKind::TashkentApi, ReplicaId(0))
            },
            db.log_device(),
            &[("t", vec!["x"])],
            &CheckpointStore::new(),
            &certifier,
        )
        .unwrap();
        assert_eq!(applied, 3);
        assert_eq!(proxy.database().version(), Version(5));
        assert_eq!(metrics.counter(CounterId::RemoteInstalls), applied as u64);
        let resyncs = metrics
            .events()
            .iter()
            .filter(|event| event.kind == EventKind::Resync)
            .count();
        assert_eq!(resyncs, 1);
    }
}
