//! The certified-writeset log.
//!
//! The certifier maintains an ordered log of `(writeset, commit_version)`
//! tuples for every committed update transaction.  Certification of a new
//! writeset is an intersection test against the log *suffix* — the entries
//! committed after the transaction's start version (Section 6.1).
//!
//! For Tashkent-API the log also answers the *extended certification* query
//! of Section 5.2.1: given an already-committed writeset, how far back is it
//! conflict-free?  The proxy uses the answer to decide whether a remote
//! writeset can be applied concurrently with earlier remote writesets, or
//! whether doing so would create an "artificial" write-write conflict at the
//! replica.  The per-entry answer is memoised (`checked_down_to`) so repeated
//! requests from different replicas do not repeat the intersection work.

use std::collections::HashSet;
use std::sync::Arc;

use tashkent_common::{footprint_hash, RowKey, TableId, Version, WriteSet};

/// Number of buckets in the pre-screen footprint index.
///
/// Each bucket holds the newest commit version whose writeset touched any
/// `(table, key)` pair hashing into it.  4096 buckets keep the index at one
/// cache-friendly 32 KiB array per shard while holding the collision
/// (false-miss) rate low for conflict windows of a few thousand rows.
const PRESCREEN_BUCKETS: usize = 4096;

/// One entry of the certified log.
///
/// The writeset is reference-counted: the same entry is handed to every
/// replica asking for remote writesets (and, under sharding, lives in every
/// owning shard's log), so sharing beats deep-cloning on the hot path.
#[derive(Debug, Clone)]
pub struct LogEntry {
    /// Version created by this commit.
    pub commit_version: Version,
    /// The certified writeset.
    pub writeset: Arc<WriteSet>,
    /// Cached footprint for fast intersection tests (shared, like the
    /// writeset, across every owning shard's log under sharding).
    footprint: Arc<HashSet<(TableId, RowKey)>>,
    /// The writeset is known conflict-free against every entry with a commit
    /// version strictly greater than this value (and smaller than its own).
    /// Initially the transaction's start version (normal certification
    /// already covered that range).
    checked_down_to: Version,
}

impl LogEntry {
    fn new(commit_version: Version, writeset: Arc<WriteSet>, checked_down_to: Version) -> Self {
        let footprint = Arc::new(writeset.footprint());
        LogEntry {
            commit_version,
            writeset,
            footprint,
            checked_down_to,
        }
    }
}

/// The in-memory certified-writeset log.
#[derive(Debug)]
pub struct CertifierLog {
    entries: Vec<LogEntry>,
    /// Truncation floor: every entry at or below this version has been
    /// discarded (covered by a sealed checkpoint).  The floor carries the
    /// system version across truncation — an emptied log does not fall back
    /// to version zero — and bounds what certification can still answer:
    /// a request whose start version lies below the floor must be
    /// conservatively aborted, because the entries needed to certify it are
    /// gone.
    floor: Version,
    /// Pre-screen footprint index over the active conflict window: bucket
    /// `footprint_hash(table, key) % PRESCREEN_BUCKETS` holds the newest
    /// commit version that touched any pair hashing there.  A writeset all
    /// of whose buckets are at or below its snapshot provably intersects
    /// nothing in the suffix and may skip the scan (collisions only cause
    /// spurious scans, never missed conflicts).
    prescreen: Vec<Version>,
}

impl Default for CertifierLog {
    fn default() -> Self {
        CertifierLog {
            entries: Vec::new(),
            floor: Version::ZERO,
            prescreen: vec![Version::ZERO; PRESCREEN_BUCKETS],
        }
    }
}

impl CertifierLog {
    /// Creates an empty log (system version zero).
    #[must_use]
    pub fn new() -> Self {
        CertifierLog::default()
    }

    /// The system version: the commit version of the newest entry, or the
    /// truncation floor once everything has been trimmed away.
    #[must_use]
    pub fn system_version(&self) -> Version {
        self.entries.last().map_or(self.floor, |e| e.commit_version)
    }

    /// The truncation floor: entries at or below it are no longer in the
    /// log.  [`Version::ZERO`] until the first truncation.
    #[must_use]
    pub fn floor(&self) -> Version {
        self.floor
    }

    /// Number of certified writesets in the log.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing has been certified yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total encoded size of all logged writesets in bytes (used for the
    /// certifier-recovery sizing experiment of Section 9.6).
    #[must_use]
    pub fn encoded_size(&self) -> usize {
        self.entries.iter().map(|e| e.writeset.encoded_len()).sum()
    }

    /// Pre-screens `writeset` against the footprint index: `true` means the
    /// writeset **provably** intersects no entry committed after
    /// `start_version`, so [`CertifierLog::conflict_after`] would return
    /// `None` and the scan can be skipped.  `false` means some bucket has
    /// seen a newer commit — possibly a hash collision — and the full scan
    /// must decide.
    ///
    /// Soundness: every append bumps the bucket of each touched pair to the
    /// entry's commit version, so a bucket always holds an upper bound over
    /// the commit versions of the entries it covers.  If every bucket of
    /// `writeset` is at or below `start_version`, then every logged entry
    /// sharing an actual pair committed at or below `start_version` — i.e.
    /// outside the certification suffix.  Buckets may only over-approximate
    /// (hash collisions, rebuilt-after-truncation windows), which costs a
    /// spurious scan, never a missed conflict.
    #[must_use]
    pub fn prescreen_clear(&self, writeset: &WriteSet, start_version: Version) -> bool {
        writeset.items().iter().all(|item| {
            let bucket = (footprint_hash(item.table, &item.key) as usize) % PRESCREEN_BUCKETS;
            self.prescreen[bucket] <= start_version
        })
    }

    /// Records an entry's footprint in the pre-screen index.
    fn index_footprint(&mut self, commit_version: Version, footprint: &HashSet<(TableId, RowKey)>) {
        for (table, key) in footprint {
            let bucket = (footprint_hash(*table, key) as usize) % PRESCREEN_BUCKETS;
            if self.prescreen[bucket] < commit_version {
                self.prescreen[bucket] = commit_version;
            }
        }
    }

    /// Tests whether `writeset` conflicts with any entry committed after
    /// `start_version` — the core certification check.
    ///
    /// Returns the commit version of the first conflicting entry found, or
    /// `None` if the writeset is conflict-free.
    #[must_use]
    pub fn conflict_after(&self, writeset: &WriteSet, start_version: Version) -> Option<Version> {
        if writeset.is_empty() {
            return None;
        }
        for entry in self.suffix(start_version) {
            if writeset.conflicts_with_footprint(&entry.footprint) {
                return Some(entry.commit_version);
            }
        }
        None
    }

    /// Appends a certified writeset, assigning it the next system version.
    ///
    /// `start_version` records how far back normal certification already
    /// checked the writeset, seeding the memoised extended-certification
    /// bound.
    pub fn append(&mut self, writeset: WriteSet, start_version: Version) -> Version {
        let commit_version = self.system_version().next();
        let entry = LogEntry::new(commit_version, Arc::new(writeset), start_version);
        let footprint = Arc::clone(&entry.footprint);
        self.entries.push(entry);
        self.index_footprint(commit_version, &footprint);
        commit_version
    }

    /// Appends an entry with an explicit version (a shard's log holds only
    /// the writesets touching its rows, so its versions may skip).  The
    /// memoised extended-certification bound starts at the entry's own
    /// version (no certification work is known for it).
    pub fn append_at(&mut self, commit_version: Version, writeset: Arc<WriteSet>) {
        let footprint = Arc::new(writeset.footprint());
        let checked = commit_version.prev();
        self.append_at_with_footprint(commit_version, writeset, footprint, checked);
    }

    /// [`CertifierLog::append_at`] with a caller-computed footprint and
    /// certification bound, for the certifier: the writeset is hashed once
    /// *outside* the global sequencer critical section and shared across
    /// every owning shard's log, and `checked_down_to` seeds the memoised
    /// extended-certification bound with the transaction's start version
    /// (certification already proved the entry conflict-free back to
    /// there), exactly like [`CertifierLog::append`].
    pub fn append_at_with_footprint(
        &mut self,
        commit_version: Version,
        writeset: Arc<WriteSet>,
        footprint: Arc<HashSet<(TableId, RowKey)>>,
        checked_down_to: Version,
    ) {
        debug_assert!(commit_version > self.system_version());
        self.index_footprint(commit_version, &footprint);
        self.entries.push(LogEntry {
            commit_version,
            writeset,
            footprint,
            checked_down_to,
        });
    }

    /// The entries committed after `since` (exclusive), i.e. the remote
    /// writesets a replica at version `since` has not seen yet.
    #[must_use]
    pub fn entries_after(&self, since: Version) -> Vec<(Version, Arc<WriteSet>)> {
        self.entries_between(since, Version(u64::MAX))
    }

    /// The entries committed in `(since, up_to]`: [`CertifierLog::entries_after`]
    /// stopping at `up_to`.
    #[must_use]
    pub fn entries_between(&self, since: Version, up_to: Version) -> Vec<(Version, Arc<WriteSet>)> {
        self.suffix(since)
            .take_while(|e| e.commit_version <= up_to)
            .map(|e| (e.commit_version, Arc::clone(&e.writeset)))
            .collect()
    }

    /// Extended certification (Section 5.2.1): determines the version down to
    /// which the entry committed at `commit_version` is conflict-free, but no
    /// further back than `target`.
    ///
    /// Returns `target` if the entry is conflict-free all the way back to
    /// `target`, or the commit version of the newest conflicting entry
    /// otherwise.  The result is memoised so that subsequent queries for the
    /// same entry avoid re-checking ("the certifier records for each writeset
    /// the point to where it has been further certified").
    pub fn conflict_free_back_to(&mut self, commit_version: Version, target: Version) -> Version {
        let index = match self
            .entries
            .binary_search_by_key(&commit_version, |e| e.commit_version)
        {
            Ok(i) => i,
            Err(_) => return target,
        };
        if self.entries[index].checked_down_to <= target {
            // Already certified at least that far back.
            return target;
        }
        let (probe_footprint, checked_down_to) = {
            let entry = &self.entries[index];
            (entry.footprint.clone(), entry.checked_down_to)
        };
        // Check the not-yet-covered range (target, checked_down_to].
        let mut newest_conflict: Option<Version> = None;
        for entry in self.entries[..index].iter().rev() {
            if entry.commit_version > checked_down_to {
                continue;
            }
            if entry.commit_version <= target {
                break;
            }
            if entry
                .footprint
                .iter()
                .any(|item| probe_footprint.contains(item))
            {
                newest_conflict = Some(entry.commit_version);
                break;
            }
        }
        match newest_conflict {
            Some(v) => {
                // Conflict found at v: the entry is conflict-free back to v.
                self.entries[index].checked_down_to = v;
                v
            }
            None => {
                self.entries[index].checked_down_to = target;
                target
            }
        }
    }

    /// Discards entries at or below `version` (log truncation once a sealed
    /// checkpoint and every live replica cover them).  Returns the number
    /// discarded.  The floor never moves above the current system version,
    /// so truncating "past the end" empties the log without inventing
    /// versions that were never committed.
    pub fn truncate_up_to(&mut self, version: Version) -> usize {
        let bound = version.min(self.system_version());
        let before = self.entries.len();
        self.entries.retain(|e| e.commit_version > bound);
        self.floor = self.floor.max(bound);
        let dropped = before - self.entries.len();
        if dropped > 0 {
            // Rebuild the pre-screen index over the retained window.  Leaving
            // trimmed versions in place would stay sound (valid snapshots are
            // at or above the floor) but would slowly degrade the hit rate as
            // old buckets shadow fresh snapshots.
            self.prescreen.iter_mut().for_each(|v| *v = Version::ZERO);
            type Footprint = Arc<HashSet<(TableId, RowKey)>>;
            let rebuilt: Vec<(Version, Footprint)> = self
                .entries
                .iter()
                .map(|e| (e.commit_version, Arc::clone(&e.footprint)))
                .collect();
            for (commit_version, footprint) in rebuilt {
                self.index_footprint(commit_version, &footprint);
            }
        }
        dropped
    }

    fn suffix(&self, after: Version) -> impl Iterator<Item = &LogEntry> {
        // Entries are sorted by commit version; binary search for the split.
        let start = self
            .entries
            .partition_point(|e| e.commit_version <= after);
        self.entries[start..].iter()
    }
}

#[cfg(test)]
mod tests {
    use tashkent_common::{Value, WriteItem};

    use super::*;

    fn ws(table: u32, keys: &[i64]) -> WriteSet {
        WriteSet::from_items(
            keys.iter()
                .map(|&k| WriteItem::update(TableId(table), k, vec![("x".into(), Value::Int(k))]))
                .collect(),
        )
    }

    #[test]
    fn append_assigns_consecutive_versions() {
        let mut log = CertifierLog::new();
        assert!(log.is_empty());
        assert_eq!(log.system_version(), Version::ZERO);
        assert_eq!(log.append(ws(0, &[1]), Version::ZERO), Version(1));
        assert_eq!(log.append(ws(0, &[2]), Version::ZERO), Version(2));
        assert_eq!(log.system_version(), Version(2));
        assert_eq!(log.len(), 2);
        assert!(log.encoded_size() > 0);
    }

    #[test]
    fn conflict_detection_respects_start_version() {
        let mut log = CertifierLog::new();
        log.append(ws(0, &[1, 2]), Version::ZERO); // v1
        log.append(ws(0, &[3]), Version::ZERO); // v2
        // A transaction that started at version 0 conflicts with v1.
        assert_eq!(log.conflict_after(&ws(0, &[2]), Version::ZERO), Some(Version(1)));
        // The same writeset certified from version 1 onwards is clean.
        assert_eq!(log.conflict_after(&ws(0, &[2]), Version(1)), None);
        // Non-overlapping writesets never conflict.
        assert_eq!(log.conflict_after(&ws(0, &[9]), Version::ZERO), None);
        // Read-only (empty) writesets never conflict.
        assert_eq!(log.conflict_after(&WriteSet::new(), Version::ZERO), None);
        // Different table, same key: no conflict.
        assert_eq!(log.conflict_after(&ws(1, &[1]), Version::ZERO), None);
    }

    #[test]
    fn entries_after_returns_unseen_remote_writesets() {
        let mut log = CertifierLog::new();
        log.append(ws(0, &[1]), Version::ZERO);
        log.append(ws(0, &[2]), Version::ZERO);
        log.append(ws(0, &[3]), Version::ZERO);
        let remote = log.entries_after(Version(1));
        assert_eq!(remote.len(), 2);
        assert_eq!(remote[0].0, Version(2));
        assert_eq!(remote[1].0, Version(3));
        assert!(log.entries_after(Version(3)).is_empty());
        assert_eq!(log.entries_after(Version::ZERO).len(), 3);
    }

    #[test]
    fn extended_certification_finds_artificial_conflicts() {
        let mut log = CertifierLog::new();
        // v1 and v3 touch key 5; v2 is unrelated.
        log.append(ws(0, &[5]), Version::ZERO); // v1
        log.append(ws(0, &[7]), Version(1)); // v2
        log.append(ws(0, &[5, 8]), Version(2)); // v3 — certified back to v2 only.
        // Asking how far back v3 is conflict-free towards version 0 finds the
        // conflict with v1.
        assert_eq!(
            log.conflict_free_back_to(Version(3), Version::ZERO),
            Version(1)
        );
        // The result is memoised: asking again with a target at or after the
        // conflict yields the target itself.
        assert_eq!(
            log.conflict_free_back_to(Version(3), Version(1)),
            Version(1)
        );
        // v2 is conflict-free all the way back.
        assert_eq!(
            log.conflict_free_back_to(Version(2), Version::ZERO),
            Version::ZERO
        );
        // Unknown versions are reported as conflict-free to the target.
        assert_eq!(
            log.conflict_free_back_to(Version(99), Version(4)),
            Version(4)
        );
    }

    #[test]
    fn append_at_and_truncate() {
        let mut log = CertifierLog::new();
        log.append_at(Version(3), Arc::new(ws(0, &[1])));
        log.append_at(Version(5), Arc::new(ws(0, &[2])));
        assert_eq!(log.system_version(), Version(5));
        assert_eq!(log.conflict_after(&ws(0, &[1]), Version::ZERO), Some(Version(3)));
        let removed = log.truncate_up_to(Version(3));
        assert_eq!(removed, 1);
        assert_eq!(log.len(), 1);
        assert_eq!(log.system_version(), Version(5));
        assert_eq!(log.floor(), Version(3));
    }

    #[test]
    fn truncation_floor_carries_the_system_version() {
        let mut log = CertifierLog::new();
        log.append(ws(0, &[1]), Version::ZERO); // v1
        log.append(ws(0, &[2]), Version::ZERO); // v2
        // Truncating past the end empties the log but the system version
        // survives in the floor — the next append continues at v3, and the
        // floor never claims versions that were never committed.
        assert_eq!(log.truncate_up_to(Version(100)), 2);
        assert!(log.is_empty());
        assert_eq!(log.floor(), Version(2));
        assert_eq!(log.system_version(), Version(2));
        assert_eq!(log.append(ws(0, &[3]), Version(2)), Version(3));
        // The floor is monotone: a smaller watermark cannot lower it.
        assert_eq!(log.truncate_up_to(Version(1)), 0);
        assert_eq!(log.floor(), Version(2));
    }
}
