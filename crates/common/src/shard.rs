//! The key→shard map of the sharded certification subsystem.
//!
//! Certification scales beyond one writeset-intersection thread by
//! partitioning the row space across *certifier shards*: every `(table, key)`
//! pair is owned by exactly one shard, determined by a hash that every
//! component of the cluster (proxies, certifier shards, recovery tooling)
//! computes identically.  A writeset's *owning shards* are the shards of its
//! footprint; single-shard writesets — the common case when tables are
//! key-partitioned — certify on one shard without touching the others.
//!
//! Determinism matters: the map is consulted on different machines and across
//! process restarts, so [`ShardMap::shard_of`] uses a fixed FNV-1a hash
//! rather than the process-seeded `std` hasher.

use std::fmt;

use crate::writeset::{RowKey, TableId, WriteSet};

/// Identifier of one certifier shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ShardId(pub u32);

impl ShardId {
    /// Returns the shard's index into per-shard vectors.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard-{}", self.0)
    }
}

/// Upper bound on the shard count accepted by [`ShardMap::validate`].
///
/// Far above any sensible deployment (each shard is a full Paxos group); the
/// bound exists to catch configuration typos, not to limit scaling.
pub const MAX_SHARDS: usize = 1024;

/// The deterministic key→shard map shared by every cluster component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    shard_count: u32,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME)
    })
}

/// The deterministic footprint hash of one `(table, key)` pair.
///
/// [`ShardMap::shard_of`] is this hash modulo the shard count; the
/// certifier's pre-screen index buckets it modulo its bucket count.  Both
/// uses need the same property — identical across processes, machines and
/// runs — so they share one definition.
#[must_use]
pub fn footprint_hash(table: TableId, key: &RowKey) -> u64 {
    let hash = fnv1a(FNV_OFFSET, &table.0.to_le_bytes());
    match key {
        RowKey::Int(i) => fnv1a(fnv1a(hash, &[0x01]), &i.to_le_bytes()),
        RowKey::Pair(a, b) => {
            let h = fnv1a(fnv1a(hash, &[0x02]), &a.to_le_bytes());
            fnv1a(h, &b.to_le_bytes())
        }
        RowKey::Text(s) => fnv1a(fnv1a(hash, &[0x03]), s.as_bytes()),
    }
}

impl ShardMap {
    /// Creates a map over `shard_count` shards.
    ///
    /// A count of zero is recorded as given and rejected by
    /// [`ShardMap::validate`]; callers building a map from a validated
    /// [`crate::ClusterConfig`] never observe it.
    #[must_use]
    pub fn new(shard_count: usize) -> Self {
        ShardMap {
            shard_count: u32::try_from(shard_count).unwrap_or(u32::MAX),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shard_count as usize
    }

    /// `true` for the single-shard (unsharded-equivalent) map.
    #[must_use]
    pub fn is_single(&self) -> bool {
        self.shard_count == 1
    }

    /// Validates the map, returning a description of the first problem.
    ///
    /// # Errors
    ///
    /// Returns `Err` for a zero shard count or a count above [`MAX_SHARDS`].
    pub fn validate(&self) -> Result<(), String> {
        if self.shard_count == 0 {
            return Err("a shard map needs at least one shard".to_owned());
        }
        if self.shard_count() > MAX_SHARDS {
            return Err(format!(
                "shard count {} exceeds the maximum of {MAX_SHARDS}",
                self.shard_count
            ));
        }
        Ok(())
    }

    /// The shard owning one `(table, key)` pair.
    ///
    /// The result is a pure function of the arguments and the shard count —
    /// identical across processes, machines and runs.
    #[must_use]
    pub fn shard_of(&self, table: TableId, key: &RowKey) -> ShardId {
        let hash = footprint_hash(table, key);
        ShardId((hash % u64::from(self.shard_count.max(1))) as u32)
    }

    /// The shards owning a writeset, in ascending shard-id order without
    /// duplicates.
    ///
    /// The ascending order is load-bearing: the sharded certifier acquires
    /// shard locks in exactly this order, which is what makes concurrent
    /// multi-shard certifications deadlock-free.  A read-only (empty)
    /// writeset owns no shards.
    #[must_use]
    pub fn shards_of(&self, writeset: &WriteSet) -> Vec<ShardId> {
        let mut shards: Vec<ShardId> = writeset
            .items()
            .iter()
            .map(|i| self.shard_of(i.table, &i.key))
            .collect();
        shards.sort_unstable();
        shards.dedup();
        shards
    }
}

#[cfg(test)]
mod tests {
    use crate::value::Value;
    use crate::writeset::WriteItem;

    use super::*;

    fn ws(pairs: &[(u32, i64)]) -> WriteSet {
        WriteSet::from_items(
            pairs
                .iter()
                .map(|&(t, k)| {
                    WriteItem::update(TableId(t), k, vec![("x".into(), Value::Int(k))])
                })
                .collect(),
        )
    }

    #[test]
    fn validation_rejects_degenerate_counts() {
        assert!(ShardMap::new(0).validate().is_err());
        assert!(ShardMap::new(1).validate().is_ok());
        assert!(ShardMap::new(MAX_SHARDS).validate().is_ok());
        assert!(ShardMap::new(MAX_SHARDS + 1).validate().is_err());
    }

    #[test]
    fn single_shard_maps_everything_to_shard_zero() {
        let map = ShardMap::new(1);
        assert!(map.is_single());
        for key in [RowKey::Int(0), RowKey::Pair(3, 4), RowKey::Text("k".into())] {
            assert_eq!(map.shard_of(TableId(7), &key), ShardId(0));
        }
        assert_eq!(map.shards_of(&ws(&[(0, 1), (1, 2), (2, 3)])), vec![ShardId(0)]);
    }

    #[test]
    fn shard_assignment_is_in_range_and_spread() {
        let map = ShardMap::new(4);
        let mut seen = [false; 4];
        for key in 0..256 {
            let shard = map.shard_of(TableId(0), &RowKey::Int(key));
            assert!(shard.index() < 4);
            seen[shard.index()] = true;
        }
        assert!(seen.iter().all(|s| *s), "256 keys must hit all 4 shards");
    }

    #[test]
    fn shards_of_is_sorted_and_deduplicated() {
        let map = ShardMap::new(8);
        let writeset = ws(&[(0, 1), (0, 2), (0, 1), (3, 9), (1, 40), (2, 17)]);
        let shards = map.shards_of(&writeset);
        assert!(shards.windows(2).all(|w| w[0] < w[1]));
        for item in writeset.items() {
            assert!(shards.contains(&map.shard_of(item.table, &item.key)));
        }
        assert!(map.shards_of(&WriteSet::new()).is_empty());
    }

    #[test]
    fn table_and_key_kind_both_contribute_to_the_hash() {
        let map = ShardMap::new(64);
        // Same key in different tables, and differently-typed keys with the
        // same bytes, should not systematically collide.
        let spread: std::collections::HashSet<ShardId> = (0..32u32)
            .map(|t| map.shard_of(TableId(t), &RowKey::Int(5)))
            .collect();
        assert!(spread.len() > 8, "table id must contribute: {spread:?}");
        assert_ne!(
            map.shard_of(TableId(0), &RowKey::Int(5)),
            map.shard_of(TableId(0), &RowKey::Pair(5, 0)),
        );
    }

    #[test]
    fn shard_id_display_and_index() {
        assert_eq!(ShardId(3).to_string(), "shard-3");
        assert_eq!(ShardId(3).index(), 3);
    }
}
