//! Replica recovery procedures (Sections 7.1, 7.2 and 8.1).
//!
//! * **Base / Tashkent-API** replicas recover like a standalone database: the
//!   engine redoes its durable WAL, then the proxy fetches from the certifier
//!   every writeset the replica is still missing and applies them in global
//!   order ([`recover_base_or_api_replica`] + [`catch_up`]).  The WAL is
//!   trusted only up to its dense frontier; a Tashkent-API replica's remote
//!   installs are not flushed on their own, so the writesets whose records
//!   the crash took come back from the certifier the same way.
//! * **Tashkent-MW** replicas run with synchronous WAL writes disabled, so
//!   after a crash the WAL is useless (and data pages could be corrupt on a
//!   real engine).  The middleware instead restarts the replica from the most
//!   recent *intact* dump — falling back to the previous dump if the database
//!   crashed while writing the last one — and then applies the writesets
//!   committed since the dump's version ([`recover_mw_replica`]).

use std::sync::Arc;

use tashkent_common::{Error, Result, Version};
use tashkent_storage::disk::LogDevice;
use tashkent_storage::wal::WalRecord;
use tashkent_storage::{Database, DatabaseDump, EngineConfig};

use crate::fanout::CertifierHandle;

/// Applies every writeset the certifier has that the database is missing,
/// in global order, committing each batch at its highest version.
///
/// Returns the number of writesets applied.  This is the "Applying writesets"
/// step shared by all three systems (Section 9.6 measures it at roughly 900
/// writesets per second).
///
/// # Errors
///
/// Fails if the certifier majority is unavailable or the database rejects an
/// application.
pub fn catch_up(db: &Database, certifier: &CertifierHandle) -> Result<usize> {
    // The certified logs only reach down to the truncation floor.  A replica
    // below it would be handed a stream with a silent gap and diverge — fail
    // loudly instead: the caller must bootstrap from a checkpoint whose
    // version is at or above the floor (incremental state transfer).
    let floor = certifier.truncation_floor();
    if db.version() < floor {
        return Err(Error::Corruption(format!(
            "replica at version {} is below the certifier truncation floor {floor}; \
             recover from a checkpoint at or above the floor",
            db.version()
        )));
    }
    let missing = certifier.writesets_after(db.version());
    if missing.is_empty() {
        return Ok(0);
    }
    let count = missing.len();
    // Batch the writesets: group them into one replica transaction per chunk
    // to amortise commit overhead, exactly as the recovering proxy does.
    const BATCH: usize = 64;
    for chunk in missing.chunks(BATCH) {
        let merged = tashkent_common::WriteSet::merged(chunk.iter().map(|r| &*r.writeset));
        let target = chunk.last().expect("chunk is non-empty").commit_version;
        db.apply_writeset(&merged, target)?;
    }
    Ok(count)
}

/// Recovers a Base or Tashkent-API replica from its durable WAL and brings it
/// up to date from the certifier.
///
/// `baseline` is the image of state that never went through the WAL (the
/// bulk-loaded initial database, standing in for a real engine's data
/// pages); WAL redo replays on top of it.  Pass `None` for a replica whose
/// entire state went through transactions.
///
/// The WAL is only trusted up to its **dense frontier** — the highest
/// version `f` such that every version in `(baseline, f]` has its own
/// durable record.  Beyond the frontier a version gap is ambiguous: it is
/// either a grouped install (one record covering a whole batch, harmless)
/// or a record lost to the crash (group commit fsyncs records out of
/// version order, so a lost record can sit *below* durable ones).  A
/// Tashkent-API remote install is one more source of such gaps: it appends
/// its record without a flush and rides the next local commit's flush or
/// checkpoint, so a crash before that flush loses a record the replica had
/// already announced.  The certifier log still holds every certified
/// writeset, so everything past the frontier is re-fetched from there in
/// global order instead of being guessed from the log.
///
/// Returns the recovered database and the number of writesets re-applied
/// during catch-up.
///
/// # Errors
///
/// Fails on WAL corruption or certifier unavailability.
pub fn recover_base_or_api_replica(
    config: EngineConfig,
    device: Arc<dyn LogDevice>,
    schema: &[(&str, Vec<&str>)],
    baseline: Option<&DatabaseDump>,
    certifier: &CertifierHandle,
) -> Result<(Database, usize)> {
    let base = baseline.map_or(Version::ZERO, DatabaseDump::version);
    let mut versions: Vec<Version> = WalRecord::decode_all(&device.durable_contents())?
        .iter()
        .filter_map(|record| match record {
            WalRecord::Commit { version, .. } => Some(*version),
            WalRecord::Checkpoint { .. } => None,
        })
        .collect();
    versions.sort_unstable();
    versions.dedup();
    let mut frontier = base;
    for version in versions {
        if version <= frontier {
            continue;
        }
        if version == frontier.next() {
            frontier = version;
        } else {
            break;
        }
    }
    let db =
        Database::recover_with_baseline(config, device, schema, baseline, Some(frontier))?;
    let applied = catch_up(&db, certifier)?;
    Ok((db, applied))
}

/// Recovers a Tashkent-MW replica from its dumps and brings it up to date
/// from the certifier.
///
/// `dump_files` are the stored dump images, most recent last.  Corrupt or
/// truncated dumps (the database may have crashed while writing the last
/// one) are skipped, falling back to the previous dump.
///
/// Returns the recovered database and the number of writesets re-applied.
///
/// # Errors
///
/// Returns [`Error::Corruption`] if no intact dump exists, or certifier /
/// engine errors from catch-up.
pub fn recover_mw_replica(
    config: EngineConfig,
    dump_files: &[Vec<u8>],
    certifier: &CertifierHandle,
) -> Result<(Database, usize)> {
    let floor = certifier.truncation_floor();
    let mut last_error = Error::Corruption("no dump files available".into());
    for raw in dump_files.iter().rev() {
        match DatabaseDump::from_bytes(raw) {
            Ok(dump) => {
                // A dump below the truncation floor cannot be caught up (the
                // log suffix it needs is gone) — fall back to an older slot,
                // which may hold a *newer* sealed checkpoint image.
                if dump.version() < floor {
                    last_error = Error::Corruption(format!(
                        "dump at version {} is below the certifier truncation floor {floor}",
                        dump.version()
                    ));
                    continue;
                }
                let db = Database::restore_from_dump(config, &dump);
                let applied = catch_up(&db, certifier)?;
                return Ok((db, applied));
            }
            Err(e) => last_error = e,
        }
    }
    Err(last_error)
}

#[cfg(test)]
mod tests {
    use tashkent_certifier::{
        CertificationRequest, Certifier, CertifierConfig, ShardedCertifierConfig,
    };
    use tashkent_common::{ReplicaId, SyncMode, TableId, Value, Version, WriteItem, WriteSet};

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

    #[test]
    fn catch_up_applies_all_missing_writesets() {
        let certifier = certifier_with_entries(10);
        let db = Database::new(EngineConfig::default());
        db.create_table("t", &["x"]);
        let applied = catch_up(&db, &certifier).unwrap();
        assert_eq!(applied, 10);
        assert_eq!(db.version(), Version(10));
        // Catch-up is idempotent.
        assert_eq!(catch_up(&db, &certifier).unwrap(), 0);
        let t = db.table_id("t").unwrap();
        assert_eq!(
            db.read_latest(t, 4).unwrap().get("x"),
            Some(&Value::Int(400))
        );
    }

    #[test]
    fn base_replica_recovers_from_wal_then_catches_up() {
        let certifier = certifier_with_entries(3);
        // A replica that had applied the first two writesets durably.
        let db = Database::new(EngineConfig::default());
        let t = db.create_table("t", &["x"]);
        db.apply_writeset(&ws(0, 0), Version(1)).unwrap();
        db.apply_writeset(&ws(1, 100), Version(2)).unwrap();
        db.crash();
        let (recovered, applied) = recover_base_or_api_replica(
            EngineConfig::default(),
            db.log_device(),
            &[("t", vec!["x"])],
            None,
            &certifier,
        )
        .unwrap();
        // WAL redo restored versions 1-2; catch-up supplied version 3.
        assert_eq!(applied, 1);
        assert_eq!(recovered.version(), Version(3));
        let _ = t;
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

    fn recover_api(db: &Database, certifier: &CertifierHandle) -> (Database, usize) {
        recover_base_or_api_replica(
            EngineConfig::default(),
            db.log_device(),
            &[("t", vec!["x"])],
            None,
            certifier,
        )
        .unwrap()
    }

    /// A replica that installed every certified writeset in order and
    /// never crashed.
    fn never_crashed(certifier: &CertifierHandle) -> Database {
        let db = Database::new(EngineConfig::default());
        db.create_table("t", &["x"]);
        for (order, remote) in certifier.writesets_after(Version::ZERO).iter().enumerate() {
            db.apply_writeset_ordered(&remote.writeset, remote.commit_version, order as u64 + 1)
                .unwrap();
        }
        db
    }

    #[test]
    fn an_api_remote_install_lost_before_any_flush_is_refetched() {
        let certifier = certifier_with_entries(3);
        let remotes = certifier.writesets_after(Version::ZERO);
        // The replica installs and announces the first two writesets, then
        // crashes before any local commit or checkpoint flushes the WAL.
        let db = Database::new(EngineConfig::default());
        db.create_table("t", &["x"]);
        for (order, remote) in remotes.iter().take(2).enumerate() {
            db.apply_writeset_ordered(&remote.writeset, remote.commit_version, order as u64 + 1)
                .unwrap();
        }
        assert_eq!(db.version(), Version(2), "both installs announced");
        db.crash();
        assert!(
            durable_commit_versions(&db).is_empty(),
            "a remote install appends its record without a flush"
        );
        let (recovered, applied) = recover_api(&db, &certifier);
        assert_eq!(applied, 3, "the lost installs come back from the certifier");
        assert_eq!(recovered.dump(), never_crashed(&certifier).dump());
    }

    #[test]
    fn a_local_flush_covers_the_remote_records_appended_before_it() {
        let certifier = certifier_with_entries(2);
        let remotes = certifier.writesets_after(Version::ZERO);
        let db = Database::new(EngineConfig::default());
        db.create_table("t", &["x"]);
        db.apply_writeset_ordered(&remotes[0].writeset, remotes[0].commit_version, 1)
            .unwrap();
        // The replica's own transaction, certified as the second writeset,
        // commits through the ordered API and flushes.
        let local = db.begin();
        local.apply_items(&remotes[1].writeset).unwrap();
        local.commit_ordered(2, remotes[1].commit_version).unwrap();
        db.crash();
        assert_eq!(
            durable_commit_versions(&db),
            vec![Version(1), Version(2)],
            "the local flush made the earlier remote record durable too"
        );
        let (recovered, applied) = recover_api(&db, &certifier);
        assert_eq!(applied, 0, "WAL redo alone restores both commits");
        assert_eq!(recovered.dump(), never_crashed(&certifier).dump());
    }

    #[test]
    fn mw_replica_recovers_from_latest_intact_dump() {
        let certifier = certifier_with_entries(6);
        // Build the replica state as of version 4 and dump it.
        let db = Database::new(EngineConfig::with_sync_mode(SyncMode::Off));
        db.create_table("t", &["x"]);
        let remotes = certifier.writesets_after(Version::ZERO);
        for remote in remotes.iter().take(4) {
            db.apply_writeset(&remote.writeset, remote.commit_version)
                .unwrap();
        }
        let good_dump = db.dump().to_bytes();
        // The most recent dump is torn (crash while dumping).
        let mut torn_dump = db.dump().to_bytes();
        torn_dump.truncate(torn_dump.len() / 2);
        let (recovered, applied) = recover_mw_replica(
            EngineConfig::with_sync_mode(SyncMode::Off),
            &[good_dump, torn_dump],
            &certifier,
        )
        .unwrap();
        assert_eq!(recovered.version(), Version(6));
        assert_eq!(applied, 2);
    }

    #[test]
    fn catch_up_consumes_the_sharded_certifiers_merged_stream() {
        let certifier: CertifierHandle =
            Arc::new(Certifier::new(ShardedCertifierConfig::with_shards(4))).into();
        fill(&certifier, 10);
        let db = Database::new(EngineConfig::default());
        db.create_table("t", &["x"]);
        assert_eq!(catch_up(&db, &certifier).unwrap(), 10);
        assert_eq!(db.version(), Version(10));
        assert_eq!(catch_up(&db, &certifier).unwrap(), 0);
    }

    #[test]
    fn catch_up_refuses_to_cross_the_truncation_floor() {
        let certifier = certifier_with_entries(8);
        // Seal a checkpoint and trim the certified log up to version 5.
        certifier.local().seal_checkpoint();
        certifier.local().truncate_below(Version(5)).unwrap();
        assert_eq!(certifier.truncation_floor(), Version(5));
        // A replica already past the floor catches up normally.
        let db = Database::new(EngineConfig::default());
        db.create_table("t", &["x"]);
        let remotes = certifier_with_entries(8).writesets_after(Version::ZERO);
        for remote in remotes.iter().take(5) {
            db.apply_writeset(&remote.writeset, remote.commit_version).unwrap();
        }
        assert_eq!(catch_up(&db, &certifier).unwrap(), 3);
        assert_eq!(db.version(), Version(8));
        // A replica below the floor is refused loudly, not fed a gap.
        let stale = Database::new(EngineConfig::default());
        stale.create_table("t", &["x"]);
        assert!(matches!(
            catch_up(&stale, &certifier),
            Err(Error::Corruption(_))
        ));
    }

    #[test]
    fn mw_recovery_skips_dumps_below_the_truncation_floor() {
        let certifier = certifier_with_entries(8);
        let db = Database::new(EngineConfig::with_sync_mode(SyncMode::Off));
        db.create_table("t", &["x"]);
        let remotes = certifier.writesets_after(Version::ZERO);
        for remote in remotes.iter().take(2) {
            db.apply_writeset(&remote.writeset, remote.commit_version)
                .unwrap();
        }
        let stale = db.dump().to_bytes();
        for remote in remotes.iter().skip(2).take(3) {
            db.apply_writeset(&remote.writeset, remote.commit_version)
                .unwrap();
        }
        let fresh = db.dump().to_bytes();
        certifier.local().seal_checkpoint();
        certifier.local().truncate_below(Version(5)).unwrap();
        // The newest slot holds a dump *below* the floor; recovery must fall
        // back to the older slot's fresher image rather than fail on the
        // missing log suffix.
        let (recovered, applied) = recover_mw_replica(
            EngineConfig::with_sync_mode(SyncMode::Off),
            &[fresh, stale],
            &certifier,
        )
        .unwrap();
        assert_eq!(recovered.version(), Version(8));
        assert_eq!(applied, 3);
    }

    #[test]
    fn mw_recovery_fails_without_any_intact_dump() {
        let certifier = certifier_with_entries(1);
        let result = recover_mw_replica(
            EngineConfig::default(),
            &[vec![1, 2, 3], Vec::new()],
            &certifier,
        );
        assert!(matches!(result, Err(Error::Corruption(_))));
    }
}
