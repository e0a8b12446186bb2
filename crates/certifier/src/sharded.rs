//! Sharding configuration and the fan-in of per-shard streams.
//!
//! A [`Certifier`] built from a [`ShardedCertifierConfig`] partitions
//! certification across N shards (see the [`certifier`](crate::certifier)
//! module docs for the protocol); each shard produces its own slice of the
//! global version stream, and a merge by commit version reassembles the
//! gap-free totally-ordered stream replicas apply.

use tashkent_common::Version;

use crate::certifier::{Certifier, CertifierConfig, RemoteWriteSet};

/// Configuration of a sharded certifier.
#[derive(Debug, Clone)]
pub struct ShardedCertifierConfig {
    /// Number of certification shards.
    pub shards: usize,
    /// Per-shard configuration: each shard gets its own `base.nodes`-node
    /// replicated durable log with `base.disk` disks.  The forced-abort rate
    /// and seed apply globally (one draw per certification, whatever the
    /// shard count).
    pub base: CertifierConfig,
}

impl ShardedCertifierConfig {
    /// A sharded configuration with `shards` shards and defaults otherwise.
    #[must_use]
    pub fn with_shards(shards: usize) -> Self {
        ShardedCertifierConfig {
            shards,
            base: CertifierConfig::default(),
        }
    }
}

/// A plain [`CertifierConfig`] is the one-shard certifier of the paper.
impl From<CertifierConfig> for ShardedCertifierConfig {
    fn from(base: CertifierConfig) -> Self {
        ShardedCertifierConfig { shards: 1, base }
    }
}

/// The name the sharded certifier had while a separate unsharded engine
/// existed; kept for the standalone `benchmark/` crate, which still uses it.
pub type ShardedCertifier = Certifier;

/// One shard's slice of the global version stream, as returned by
/// [`Certifier::shard_streams_after`].
#[derive(Debug, Clone)]
pub(crate) struct ShardStream {
    /// The shard's entries after the requested version, ascending.  A
    /// multi-shard writeset appears in the stream of every owning shard
    /// (with possibly different per-shard `conflict_free_to` bounds).
    pub(crate) entries: Vec<RemoteWriteSet>,
}

/// Merges per-shard version streams into one gap-free global stream.
///
/// Entries are merged by ascending commit version; a multi-shard writeset
/// present in several streams is emitted once, with the **newest** (maximum)
/// of its per-shard `conflict_free_to` bounds — each shard only checked the
/// entries it owns, so the global bound is the max over shards.  Entries
/// above `up_to` are dropped: only versions at or below the sampled system
/// version are guaranteed to have reached every owning shard's stream.
///
/// This is the *fan-in*: above this merge the proxy's commit pipeline
/// sees one stream, whatever the shard count.
#[must_use]
pub(crate) fn merge_shard_streams(
    streams: &[ShardStream],
    up_to: Version,
) -> Vec<RemoteWriteSet> {
    let mut cursors: Vec<std::slice::Iter<'_, RemoteWriteSet>> =
        streams.iter().map(|s| s.entries.iter()).collect();
    let mut heads: Vec<Option<&RemoteWriteSet>> =
        cursors.iter_mut().map(Iterator::next).collect();
    let mut merged = Vec::new();
    while let Some(version) = heads.iter().flatten().map(|r| r.commit_version).min() {
        if version > up_to {
            break;
        }
        let mut next: Option<RemoteWriteSet> = None;
        for (head, cursor) in heads.iter_mut().zip(cursors.iter_mut()) {
            if head.map(|r| r.commit_version) != Some(version) {
                continue;
            }
            let entry = head.expect("checked above");
            match &mut next {
                None => next = Some(entry.clone()),
                Some(merged_entry) => {
                    merged_entry.conflict_free_to =
                        merged_entry.conflict_free_to.max(entry.conflict_free_to);
                }
            }
            *head = cursor.next();
        }
        merged.push(next.expect("at least one stream held this version"));
    }
    merged
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::Duration;

    use tashkent_common::metrics::CounterId;
    use tashkent_common::{
        Error, MetricsRegistry, ReplicaId, ShardId, TableId, Value, WriteItem, WriteSet,
    };

    use super::*;
    use crate::certifier::{CertificationDecision, CertificationRequest};
    use crate::paxos::CertifierNodeId;

    fn ws(keys: &[i64]) -> WriteSet {
        WriteSet::from_items(
            keys.iter()
                .map(|&k| WriteItem::update(TableId(0), k, vec![("x".into(), Value::Int(k))]))
                .collect(),
        )
    }

    fn request(start: u64, replica_version: u64, keys: &[i64]) -> CertificationRequest {
        CertificationRequest {
            replica: ReplicaId(0),
            start_version: Version(start),
            writeset: ws(keys),
            replica_version: Version(replica_version),
        }
    }

    fn sharded(shards: usize) -> Certifier {
        Certifier::new(ShardedCertifierConfig::with_shards(shards))
    }

    #[test]
    fn versions_are_globally_dense_across_shards() {
        let certifier = sharded(4);
        for k in 1..=20 {
            let response = certifier.certify(&request(k - 1, k - 1, &[k as i64])).unwrap();
            assert!(response.decision.is_commit());
            assert_eq!(response.commit_version, Some(Version(k)));
        }
        assert_eq!(certifier.system_version(), Version(20));
        let versions: Vec<u64> = certifier
            .writesets_after(Version::ZERO)
            .iter()
            .map(|r| r.commit_version.value())
            .collect();
        assert_eq!(versions, (1..=20).collect::<Vec<u64>>());
    }

    #[test]
    fn conflicts_are_found_across_shard_boundaries() {
        let metrics = Arc::new(MetricsRegistry::enabled());
        let certifier = Certifier::new(ShardedCertifierConfig {
            shards: 4,
            base: CertifierConfig {
                metrics: Arc::clone(&metrics),
                ..CertifierConfig::default()
            },
        });
        // A multi-shard writeset commits, then every single-key probe that
        // shares a key with it (on whatever shard) must abort.
        let keys = [1i64, 2, 3, 4, 5, 6, 7, 8];
        assert!(certifier
            .certify(&request(0, 0, &keys))
            .unwrap()
            .decision
            .is_commit());
        for &k in &keys {
            let response = certifier.certify(&request(0, 1, &[k])).unwrap();
            assert!(!response.decision.is_commit(), "key {k} must conflict");
        }
        // Disjoint keys commit, and a probe starting after the commit is
        // clean.
        assert!(certifier
            .certify(&request(0, 1, &[100]))
            .unwrap()
            .decision
            .is_commit());
        assert!(certifier
            .certify(&request(1, 2, &[1]))
            .unwrap()
            .decision
            .is_commit());
        assert_eq!(metrics.counter(CounterId::CertifyAborts), keys.len() as u64);
        assert_eq!(metrics.counter(CounterId::CertifyCommits), 3);
        assert!(metrics.counter(CounterId::MultiShardCommits) >= 1);
    }

    #[test]
    fn remote_streams_merge_without_gaps_or_duplicates() {
        let certifier = sharded(3);
        // Mix of single- and multi-shard writesets.
        certifier.certify(&request(0, 0, &[1])).unwrap();
        certifier.certify(&request(1, 1, &[2, 3, 4, 5])).unwrap();
        certifier.certify(&request(2, 2, &[6])).unwrap();
        certifier.certify(&request(3, 3, &[7, 8, 9, 10, 11])).unwrap();
        let remotes = certifier.writesets_after(Version(0));
        let versions: Vec<u64> = remotes.iter().map(|r| r.commit_version.value()).collect();
        assert_eq!(versions, vec![1, 2, 3, 4]);
        // A replica at version 2 sees exactly 3 and 4.
        let versions: Vec<u64> = certifier
            .writesets_after(Version(2))
            .iter()
            .map(|r| r.commit_version.value())
            .collect();
        assert_eq!(versions, vec![3, 4]);
    }

    #[test]
    fn extended_certification_takes_the_newest_bound_across_shards() {
        let certifier = sharded(2);
        // Find two keys on different shards of a 2-shard map.
        let map = certifier.shard_map();
        let key_a = 0i64; // whatever shard this lands on...
        let key_b = (1..100)
            .find(|&k| {
                map.shard_of(TableId(0), &tashkent_common::RowKey::Int(k))
                    != map.shard_of(TableId(0), &tashkent_common::RowKey::Int(key_a))
            })
            .expect("some key lands on the other shard");
        // v1 writes {a}; v2 writes {b}; v3 writes {a, b} starting at v2.
        certifier.certify(&request(0, 0, &[key_a])).unwrap();
        certifier.certify(&request(1, 1, &[key_b])).unwrap();
        certifier.certify(&request(2, 2, &[key_a, key_b])).unwrap();
        // v3 conflicts with v1 (shard A) and v2 (shard B) when pushed back
        // towards version 0; the merged bound is the newest conflict, v2.
        let remotes = certifier.writesets_after(Version::ZERO);
        let v3 = remotes
            .iter()
            .find(|r| r.commit_version == Version(3))
            .unwrap();
        assert_eq!(v3.conflict_free_to, Version(2));
    }

    #[test]
    fn forced_aborts_follow_the_configured_rate() {
        let certifier = Certifier::new(ShardedCertifierConfig {
            shards: 4,
            base: CertifierConfig {
                forced_abort_rate: 0.4,
                ..CertifierConfig::default()
            },
        });
        let mut aborted: u64 = 0;
        for i in 0..500 {
            let version = certifier.system_version().value();
            let response = certifier.certify(&request(version, version, &[i])).unwrap();
            if let CertificationDecision::Abort { forced, .. } = response.decision {
                assert!(forced, "disjoint keys abort only by force");
                aborted += 1;
            }
        }
        let rate = aborted as f64 / 500.0;
        assert!((rate - 0.4).abs() < 0.08, "observed forced abort rate {rate}");
    }

    #[test]
    fn shard_crash_blocks_only_that_shard_until_majority_restored() {
        let certifier = sharded(2);
        let map = certifier.shard_map();
        let shard_of = |k: i64| map.shard_of(TableId(0), &tashkent_common::RowKey::Int(k));
        let key_on = |shard: ShardId| (0..1000).find(|&k| shard_of(k) == shard).unwrap();
        let (k0, k1) = (key_on(ShardId(0)), key_on(ShardId(1)));

        // Lose shard 1's majority (two of three nodes).
        certifier.crash_shard_node(ShardId(1), CertifierNodeId(0));
        certifier.crash_shard_node(ShardId(1), CertifierNodeId(1));
        assert!(!certifier.is_available());
        // Shard 0 keeps certifying; shard 1 refuses.
        let version = certifier.system_version().value();
        assert!(certifier
            .certify(&request(version, version, &[k0]))
            .unwrap()
            .decision
            .is_commit());
        let version = certifier.system_version().value();
        assert!(matches!(
            certifier.certify(&request(version, version, &[k1])),
            Err(Error::Unavailable(_))
        ));
        // Restoring one node restores the majority and progress.
        certifier
            .recover_shard_node(ShardId(1), CertifierNodeId(0))
            .unwrap();
        assert!(certifier.is_available());
        let version = certifier.system_version().value();
        assert!(certifier
            .certify(&request(version, version, &[k1]))
            .unwrap()
            .decision
            .is_commit());
    }

    #[test]
    fn node_crash_spans_every_shard_group() {
        let certifier = sharded(3);
        certifier.crash_node(CertifierNodeId(0));
        assert!(certifier.is_available());
        let up = |shard: u32| certifier.shard_up_nodes(ShardId(shard)).len();
        assert!((0..3).all(|shard| up(shard) == 2));
        certifier.recover_node(CertifierNodeId(0)).unwrap();
        assert!((0..3).all(|shard| up(shard) == 3));
        assert_eq!(certifier.stats().nodes_up, 9, "summed across shards");
    }

    #[test]
    fn durable_entries_cover_each_shards_commits() {
        let certifier = sharded(2);
        for k in 1..=12 {
            let version = certifier.system_version().value();
            certifier.certify(&request(version, version, &[k])).unwrap();
        }
        assert_eq!(certifier.stats().leader_group_commit.records, 12);
        for shard in [ShardId(0), ShardId(1)] {
            let leader = certifier.shard_leader(shard);
            let entries = certifier.shard_durable_entries(shard, leader).unwrap();
            // Versions strictly increase within a shard's durable log.
            assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        }
    }

    #[test]
    fn merge_bounds_by_the_sampled_version() {
        let streams = vec![
            ShardStream {
                entries: vec![
                    RemoteWriteSet {
                        commit_version: Version(1),
                        writeset: Arc::new(ws(&[1])),
                        conflict_free_to: Version::ZERO,
                    },
                    RemoteWriteSet {
                        commit_version: Version(3),
                        writeset: Arc::new(ws(&[3])),
                        conflict_free_to: Version(1),
                    },
                ],
            },
            ShardStream {
                entries: vec![
                    RemoteWriteSet {
                        commit_version: Version(2),
                        writeset: Arc::new(ws(&[2])),
                        conflict_free_to: Version::ZERO,
                    },
                    RemoteWriteSet {
                        commit_version: Version(3),
                        writeset: Arc::new(ws(&[3])),
                        conflict_free_to: Version(2),
                    },
                ],
            },
        ];
        let merged = merge_shard_streams(&streams, Version(3));
        let versions: Vec<u64> = merged.iter().map(|r| r.commit_version.value()).collect();
        assert_eq!(versions, vec![1, 2, 3]);
        // The duplicate at v3 is emitted once, with the max bound.
        assert_eq!(merged[2].conflict_free_to, Version(2));
        // Bounding below the duplicate drops it from every stream.
        let merged = merge_shard_streams(&streams, Version(2));
        let versions: Vec<u64> = merged.iter().map(|r| r.commit_version.value()).collect();
        assert_eq!(versions, vec![1, 2]);
    }

    #[test]
    fn concurrent_commit_responses_cover_exactly_the_unseen_prefix() {
        // Regression: the commit response's remote stream must be bounded by
        // the transaction's own commit version as of *decision time*.  If
        // the bound were re-sampled after the locks drop, a racing commit
        // could slip into the stream while the requester's own version is
        // excluded — and a proxy applying that stream would advance past its
        // own commit without applying it.
        let certifier = Arc::new(sharded(4));
        std::thread::scope(|scope| {
            for worker in 0..4i64 {
                let certifier = Arc::clone(&certifier);
                scope.spawn(move || {
                    for i in 0..200 {
                        let replica_version = certifier.system_version();
                        let response = certifier
                            .certify(&CertificationRequest {
                                replica: ReplicaId(worker as u32),
                                start_version: replica_version,
                                writeset: ws(&[worker * 1_000_000 + i]),
                                replica_version,
                            })
                            .unwrap();
                        let own = response.commit_version.expect("disjoint keys commit");
                        let versions: Vec<u64> = response
                            .remote_writesets
                            .iter()
                            .map(|r| r.commit_version.value())
                            .collect();
                        // Exactly the dense range (replica_version, own):
                        // nothing missing, nothing at or above our own
                        // commit.
                        let expected: Vec<u64> =
                            (replica_version.value() + 1..own.value()).collect();
                        assert_eq!(versions, expected, "worker {worker} iteration {i}");
                    }
                });
            }
        });
        assert_eq!(certifier.system_version(), Version(800));
    }

    /// Multi-shard requests decided inline beside queued single-shard
    /// epochs, with forced aborts drawn in both.  Workers wait on shard
    /// locks and epoch slots without timeouts, so each reports over a
    /// channel and the test counts the ones that did not within a deadline.
    #[test]
    fn concurrent_multi_shard_certifies_under_forced_aborts_keep_streams_exact() {
        let metrics = Arc::new(MetricsRegistry::enabled());
        let certifier = Arc::new(Certifier::new(ShardedCertifierConfig {
            shards: 4,
            base: CertifierConfig {
                forced_abort_rate: 0.15,
                metrics: Arc::clone(&metrics),
                ..CertifierConfig::default()
            },
        }));
        let (finished, reports) = std::sync::mpsc::channel();
        let workers: Vec<_> = (0..4i64)
            .map(|worker| {
                let certifier = Arc::clone(&certifier);
                let finished = finished.clone();
                std::thread::spawn(move || {
                    let mut commits = 0u64;
                    for i in 0..200 {
                        // Disjoint keys across workers and iterations; every
                        // third writeset spans several shards.
                        let first = worker * 1_000_000 + i * 10;
                        let keys: Vec<i64> = if i % 3 == 0 {
                            (first..first + 8).collect()
                        } else {
                            vec![first]
                        };
                        let replica_version = certifier.system_version();
                        let response = certifier
                            .certify(&CertificationRequest {
                                replica: ReplicaId(worker as u32),
                                start_version: replica_version,
                                writeset: ws(&keys),
                                replica_version,
                            })
                            .unwrap();
                        // A commit's stream stops below its own version; an
                        // abort's at the system version it was decided at.
                        let bound = match (&response.decision, response.commit_version) {
                            (CertificationDecision::Commit, Some(own)) => {
                                commits += 1;
                                own.prev()
                            }
                            (CertificationDecision::Abort { forced, .. }, None) => {
                                assert!(forced, "disjoint keys abort only by force");
                                response.system_version
                            }
                            other => panic!("inconsistent response {other:?}"),
                        };
                        let versions: Vec<u64> = response
                            .remote_writesets
                            .iter()
                            .map(|r| r.commit_version.value())
                            .collect();
                        let expected: Vec<u64> =
                            (replica_version.value() + 1..=bound.value()).collect();
                        assert_eq!(versions, expected, "worker {worker} iteration {i}");
                    }
                    finished.send(commits).expect("the test is still listening");
                })
            })
            .collect();
        drop(finished);
        let reported: Vec<u64> = (0..4)
            .map_while(|_| reports.recv_timeout(Duration::from_secs(60)).ok())
            .collect();
        // A worker that failed an assertion surfaces its own panic here; one
        // still stuck is left running and fails the count below.
        for worker in workers.into_iter().filter(|w| w.is_finished()) {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
        assert_eq!(reported.len(), 4, "workers stuck certifying");
        let commits: u64 = reported.iter().sum();

        // The final stream is the dense sequence of every commit.
        assert_eq!(certifier.system_version(), Version(commits));
        let stream: Vec<u64> = certifier
            .writesets_after(Version::ZERO)
            .iter()
            .map(|r| r.commit_version.value())
            .collect();
        assert_eq!(stream, (1..=commits).collect::<Vec<u64>>());

        let requests = metrics.counter(CounterId::CertifyRequests);
        let aborts = metrics.counter(CounterId::CertifyAborts);
        assert_eq!(requests, 800);
        assert_eq!(metrics.counter(CounterId::CertifyCommits), commits);
        assert_eq!(commits + aborts, requests);
        assert!(
            aborts > 0,
            "a 15 % rate over 800 requests forces some aborts"
        );
        let screened =
            metrics.counter(CounterId::PrescreenHits) + metrics.counter(CounterId::PrescreenMisses);
        assert!(
            screened <= requests,
            "{screened} pre-screen verdicts for {requests} requests"
        );
        assert!(metrics.counter(CounterId::MultiShardCommits) > 0);
    }

    #[test]
    fn truncation_trims_every_shard_and_guards_stale_requests() {
        let certifier = sharded(4);
        for k in 1..=12 {
            let version = certifier.system_version().value();
            certifier.certify(&request(version, version, &[k])).unwrap();
        }
        // Nothing may be trimmed before a checkpoint authorizes it.
        assert_eq!(certifier.truncate_below(Version(8)).unwrap(), 0);
        assert_eq!(certifier.seal_checkpoint(), Version(12));
        assert_eq!(certifier.checkpoint_version(), Version(12));
        // Several shard images have no single-payload state-transfer form.
        assert!(certifier.latest_checkpoint_payload().is_none());
        let dropped = certifier.truncate_below(Version(8)).unwrap();
        assert!(dropped > 0, "some shard entries must be trimmed");
        assert!(certifier.truncation_floor() <= Version(8));
        assert!(certifier.log_len() >= 4, "entries above the watermark survive");
        // The merged stream still reproduces the retained suffix densely.
        let versions: Vec<u64> = certifier
            .writesets_after(Version(8))
            .iter()
            .map(|r| r.commit_version.value())
            .collect();
        assert_eq!(versions, vec![9, 10, 11, 12]);
        // A snapshot below an owning shard's floor aborts conservatively.
        // Writing every key guarantees the max-floor shard is among the
        // owners, and the floor guard fires before the intersection test.
        let floor = certifier.truncation_floor();
        assert!(floor > Version::ZERO);
        let all_keys: Vec<i64> = (1..=12).collect();
        let response = certifier
            .certify(&request(floor.value() - 1, 12, &all_keys))
            .unwrap();
        assert_eq!(
            response.decision,
            CertificationDecision::Abort {
                reason: format!("snapshot {} below truncation floor {floor}", floor.prev()),
                forced: false,
            }
        );
        // A replica below the floor gets a loud state-transfer error.
        assert!(matches!(
            certifier.certify(&request(12, floor.value().saturating_sub(1), &[99])),
            Err(Error::Unavailable(_))
        ));
        // Fresh snapshots keep committing with dense versions.
        let response = certifier.certify(&request(12, 12, &[50])).unwrap();
        assert_eq!(response.commit_version, Some(Version(13)));
    }

    #[test]
    fn full_truncation_bounds_memory_and_preserves_progress() {
        let certifier = sharded(2);
        for k in 1..=10 {
            let version = certifier.system_version().value();
            certifier.certify(&request(version, version, &[k])).unwrap();
        }
        certifier.seal_checkpoint();
        certifier.truncate_below(certifier.system_version()).unwrap();
        assert_eq!(certifier.log_len(), 0, "fully covered logs trim to empty");
        // Durable logs are trimmed too.
        for shard in [ShardId(0), ShardId(1)] {
            let leader = certifier.shard_leader(shard);
            assert!(certifier.shard_durable_entries(shard, leader).unwrap().is_empty());
        }
        // The system version survives in the floors: the next commit is v11.
        let response = certifier.certify(&request(10, 10, &[77])).unwrap();
        assert_eq!(response.commit_version, Some(Version(11)));
    }

    #[test]
    fn empty_writesets_take_the_shard_zero_path() {
        let certifier = sharded(4);
        let response = certifier
            .certify(&CertificationRequest {
                replica: ReplicaId(0),
                start_version: Version::ZERO,
                writeset: WriteSet::new(),
                replica_version: Version::ZERO,
            })
            .unwrap();
        assert!(response.decision.is_commit());
        assert_eq!(response.commit_version, Some(Version(1)));
    }
}
