//! The invariant oracle: what must hold after every fault schedule.
//!
//! After the executor heals the cluster, [`check_cluster`] verifies the
//! end-to-end guarantees the paper claims survive failures:
//!
//! 1. **Convergence** — after a sync, every replica sits at exactly the
//!    certifier's system version.
//! 2. **Dense history** — above the truncation floor the certified stream
//!    is exactly the gap-free ascending range `floor+1..=system_version`
//!    (`1..=system_version` when nothing was trimmed): no commit lost,
//!    duplicated or reordered by any crash or trim.
//! 3. **Durable-log agreement** — every certifier node of every shard group
//!    holds the same durable records as its shard leader,
//!    record-for-record (recovered nodes were healed by state transfer).
//! 4. **Durable coverage** — the union of the shard leaders' durable logs
//!    covers the entire certified history above the truncation floor
//!    (home-shard durability loses nothing; trimmed prefixes are covered
//!    by sealed checkpoints).
//! 5. **Replica agreement** — all replicas hold identical table contents,
//!    row for row.
//! 6. **Workload invariants** — workload-specific conservation laws (the
//!    TPC-B balance sums).
//! 7. **Metrics consistency** — the flight recorder's data plane agrees
//!    with itself: the certified-commit counter equals the sum of per-shard
//!    commit decisions, decisions never exceed requests, and (via
//!    [`check_metrics_progression`]) no counter regresses between
//!    successive snapshots even across crashes and recoveries.

use tashkent::{Cluster, MetricsSnapshot, ShardId, SystemKind, Version};
use tashkent_common::metrics::CounterId;
use tashkent_common::{Stage, Value};

/// One violated invariant.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant failed.
    pub invariant: &'static str,
    /// What was observed.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// A workload-specific conservation law checked on top of the generic
/// cluster invariants.
pub trait WorkloadInvariant: Send + Sync {
    /// Checks the invariant, returning a description of the first violation.
    ///
    /// # Errors
    ///
    /// Returns `Err` with a human-readable description when violated.
    fn check(&self, cluster: &Cluster) -> Result<(), String>;
}

/// TPC-B conservation: on every replica the branch, teller and account
/// balance sums agree (every delta was applied to all three), and the sums
/// are identical across replicas.
pub struct TpcBInvariant;

impl WorkloadInvariant for TpcBInvariant {
    fn check(&self, cluster: &Cluster) -> Result<(), String> {
        let mut reference: Option<i64> = None;
        for r in 0..cluster.replica_count() {
            let db = cluster.replica(r).database();
            let sum = |name: &str| -> Result<i64, String> {
                let table = db
                    .table_id(name)
                    .ok_or_else(|| format!("replica {r} is missing table {name}"))?;
                let tx = db.begin();
                let total = tx
                    .scan(table)
                    .map_err(|e| format!("replica {r} scan of {name} failed: {e}"))?
                    .iter()
                    .filter_map(|(_, row)| row.get("balance").and_then(Value::as_int))
                    .sum();
                tx.abort();
                Ok(total)
            };
            let branches = sum("branches")?;
            let tellers = sum("tellers")?;
            let accounts = sum("accounts")?;
            if branches != tellers || branches != accounts {
                return Err(format!(
                    "replica {r}: branch sum {branches} vs teller sum {tellers} vs account sum {accounts}"
                ));
            }
            match reference {
                None => reference = Some(branches),
                Some(expected) if expected != branches => {
                    return Err(format!(
                        "replica {r} branch sum {branches} differs from replica 0's {expected}"
                    ));
                }
                Some(_) => {}
            }
        }
        Ok(())
    }
}

/// Runs every invariant against a healed cluster, returning all violations
/// found (empty means the schedule passed).
///
/// The caller must have stopped the load and recovered every crashed
/// component first (the executor's healing epilogue does this).
#[must_use]
pub fn check_cluster(
    cluster: &Cluster,
    workload: Option<&dyn WorkloadInvariant>,
) -> Vec<Violation> {
    let mut violations = Vec::new();

    // Convergence: bring every replica up to date, then compare versions.
    if let Err(e) = cluster.sync_all() {
        violations.push(Violation {
            invariant: "convergence",
            detail: format!("sync_all failed on the healed cluster: {e}"),
        });
        return violations;
    }
    let system = cluster.system_version();
    for (replica, version) in cluster.replica_versions() {
        if version != system {
            violations.push(Violation {
                invariant: "convergence",
                detail: format!("{replica} at {version}, certifier at {system}"),
            });
        }
    }

    // Dense history, truncation-aware.  With watermark-driven truncation
    // the retained stream no longer starts at version 1: each shard keeps
    // its suffix above its own floor (per-shard floors differ because each
    // clamps to its own log).  What must still hold: the merged stream is
    // strictly ascending with no duplicates, never exceeds the system
    // version, and above the *global* floor (the max across shards) it is
    // exactly the gap-free range `floor+1..=system_version` — no commit
    // lost, duplicated or reordered by any crash or trim.
    let certifier = cluster.certifier();
    let floor = certifier.truncation_floor();
    let stream: Vec<u64> = certifier
        .writesets_after(Version::ZERO)
        .iter()
        .map(|r| r.commit_version.value())
        .collect();
    if stream.windows(2).any(|w| w[0] >= w[1]) {
        violations.push(Violation {
            invariant: "dense-history",
            detail: "certified stream is not strictly ascending".into(),
        });
    }
    let expected: Vec<u64> = (floor.value() + 1..=system.value()).collect();
    let tail: Vec<u64> = stream
        .iter()
        .copied()
        .filter(|v| *v > floor.value())
        .collect();
    if tail != expected {
        violations.push(Violation {
            invariant: "dense-history",
            detail: format!(
                "certified stream has {} entries above floor {} for system version {} (first divergence at index {:?})",
                tail.len(),
                floor.value(),
                system.value(),
                tail.iter().zip(&expected).position(|(a, b)| a != b)
            ),
        });
    }

    // Durable-log invariants only hold when the certifier logs durably.
    if cluster.system() != SystemKind::TashkentApiNoCertDurability {
        let certifier = certifier.local();
        let mut durable_union: Vec<u64> = Vec::new();
        for s in 0..certifier.shard_count() {
            let shard = ShardId(s as u32);
            let leader = certifier.shard_leader(shard);
            let leader_entries = match certifier.shard_durable_entries(shard, leader) {
                Ok(entries) => entries,
                Err(e) => {
                    violations.push(Violation {
                        invariant: "durable-agreement",
                        detail: format!("{shard} leader {leader} log unreadable: {e}"),
                    });
                    continue;
                }
            };
            let mut leader_sorted = leader_entries;
            leader_sorted.sort_by_key(|(v, _)| *v);
            durable_union.extend(leader_sorted.iter().map(|(v, _)| v.value()));
            for node in certifier.shard_up_nodes(shard) {
                if node == leader {
                    continue;
                }
                let mut entries = match certifier.shard_durable_entries(shard, node) {
                    Ok(entries) => entries,
                    Err(e) => {
                        violations.push(Violation {
                            invariant: "durable-agreement",
                            detail: format!("{shard} node {node} log unreadable: {e}"),
                        });
                        continue;
                    }
                };
                entries.sort_by_key(|(v, _)| *v);
                // Record-for-record: same versions *and* same writesets as
                // the shard leader (append order on disk may differ; the
                // version-sorted records must not).
                if entries != leader_sorted {
                    violations.push(Violation {
                        invariant: "durable-agreement",
                        detail: format!(
                            "{shard} node {node} holds {} records, leader {leader} holds {} (or contents differ)",
                            entries.len(),
                            leader_sorted.len()
                        ),
                    });
                }
            }
        }
        // Durable coverage: above the global floor the home-shard logs
        // jointly hold every commit (records at or below a shard's floor
        // are covered by its sealed checkpoint instead).
        durable_union.sort_unstable();
        durable_union.dedup();
        durable_union.retain(|v| *v > floor.value());
        if durable_union != expected {
            violations.push(Violation {
                invariant: "durable-coverage",
                detail: format!(
                    "shard leaders jointly hold {} distinct records above floor {} for system version {}",
                    durable_union.len(),
                    floor.value(),
                    system.value()
                ),
            });
        }
    }

    // Metrics consistency: the flight recorder's data plane must agree with
    // itself no matter what was crashed and recovered.
    violations.extend(check_metrics_consistency(&cluster.metrics_snapshot()));

    // Replica agreement: identical table contents everywhere.
    violations.extend(replica_contents_agree(cluster));

    // Workload-specific conservation laws.
    if let Some(workload) = workload {
        if let Err(detail) = workload.check(cluster) {
            violations.push(Violation {
                invariant: "workload",
                detail,
            });
        }
    }
    violations
}

/// The bounded-memory postcondition behind log truncation: on a healed,
/// synced cluster, one full checkpoint-and-trim cycle must empty the
/// certifier's shard logs and every replica's WAL — and the cluster must
/// still commit on the trimmed logs.  Run by the harness when
/// `FAULT_BOUNDED_MEMORY` is set (nightly soaks); expensive enough (a probe
/// table and commit) to stay out of the default oracle.
#[must_use]
pub fn check_bounded_memory(cluster: &Cluster) -> Vec<Violation> {
    let mut violations = Vec::new();
    cluster.checkpoint();
    if let Err(e) = cluster.trim() {
        violations.push(Violation {
            invariant: "bounded-memory",
            detail: format!("trim failed on the healed cluster: {e}"),
        });
        return violations;
    }
    let retained = cluster.certifier_log_len();
    if retained > 0 {
        violations.push(Violation {
            invariant: "bounded-memory",
            detail: format!(
                "certifier retains {retained} log entries after a full checkpoint-and-trim"
            ),
        });
    }
    let wal_bytes = cluster.wal_bytes();
    if wal_bytes > 0 {
        violations.push(Violation {
            invariant: "bounded-memory",
            detail: format!(
                "replica WALs retain {wal_bytes} bytes after a full checkpoint-and-trim"
            ),
        });
    }
    // Viability probe: the cluster still commits on fully trimmed logs.
    let before = cluster.system_version();
    let t = cluster.create_table("__trim_probe", &["v"]);
    let tx = cluster.session(0).begin();
    let outcome = tx
        .insert(t, 1, vec![("v".into(), Value::Int(1))])
        .and_then(|()| tx.commit().map(|_| ()));
    match outcome {
        Ok(()) if cluster.system_version() == before.next() => {}
        Ok(()) => violations.push(Violation {
            invariant: "bounded-memory",
            detail: format!(
                "probe commit moved the system version from {before} to {} (expected {})",
                cluster.system_version(),
                before.next()
            ),
        }),
        Err(e) => violations.push(Violation {
            invariant: "bounded-memory",
            detail: format!("probe commit failed on the trimmed cluster: {e}"),
        }),
    }
    violations
}

/// Internal-consistency checks on one metrics snapshot: certified commits
/// equal the sum of per-shard commit decisions (the sharded certifier may
/// not double- or under-count), and decisions never exceed requests.
#[must_use]
pub fn check_metrics_consistency(snapshot: &MetricsSnapshot) -> Vec<Violation> {
    let mut violations = Vec::new();
    let certified = snapshot.counter(CounterId::CertifyCommits);
    let shard_sum = snapshot.shard_commit_sum();
    if certified != shard_sum {
        violations.push(Violation {
            invariant: "metrics-consistency",
            detail: format!(
                "certified-commit counter {certified} != sum of shard commit decisions {shard_sum}"
            ),
        });
    }
    let requests = snapshot.counter(CounterId::CertifyRequests);
    let aborts = snapshot.counter(CounterId::CertifyAborts);
    if certified + aborts > requests {
        violations.push(Violation {
            invariant: "metrics-consistency",
            detail: format!(
                "certify decisions ({certified} commits + {aborts} aborts) exceed {requests} requests"
            ),
        });
    }
    let durable = snapshot.counter(CounterId::DurableAppends);
    if durable != certified {
        violations.push(Violation {
            invariant: "metrics-consistency",
            detail: format!(
                "durable appends {durable} != certified commits {certified} (a commit was certified without its home-shard append, or vice versa)"
            ),
        });
    }
    // Pre-screen accounting: every certification counts at most one
    // pre-screen verdict, whatever its shard count, so hits + misses can
    // never exceed requests (a floored request, aborted before the
    // pre-screen, counts neither).
    let hits = snapshot.counter(CounterId::PrescreenHits);
    let misses = snapshot.counter(CounterId::PrescreenMisses);
    if hits + misses > requests {
        violations.push(Violation {
            invariant: "metrics-consistency",
            detail: format!(
                "pre-screen verdicts ({hits} hits + {misses} misses) exceed {requests} certify requests"
            ),
        });
    }
    violations
}

/// Monotonicity between two snapshots of the same registry: counters and
/// per-stage histogram counts only ever grow — a crash or recovery must
/// never make a metric run backwards.
#[must_use]
pub fn check_metrics_progression(
    earlier: &MetricsSnapshot,
    later: &MetricsSnapshot,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    for id in CounterId::ALL {
        let (then, now) = (earlier.counter(id), later.counter(id));
        if now < then {
            violations.push(Violation {
                invariant: "metrics-progression",
                detail: format!("counter {} regressed from {then} to {now}", id.label()),
            });
        }
    }
    for stage in Stage::ALL {
        let (then, now) = (earlier.stage(stage).count(), later.stage(stage).count());
        if now < then {
            violations.push(Violation {
                invariant: "metrics-progression",
                detail: format!(
                    "stage {} histogram count regressed from {then} to {now}",
                    stage.label()
                ),
            });
        }
    }
    if later.elapsed < earlier.elapsed {
        violations.push(Violation {
            invariant: "metrics-progression",
            detail: format!(
                "registry uptime regressed from {:?} to {:?}",
                earlier.elapsed, later.elapsed
            ),
        });
    }
    violations
}

/// Compares every table's rows across replicas (replica 0 is the
/// reference).
fn replica_contents_agree(cluster: &Cluster) -> Vec<Violation> {
    let mut violations = Vec::new();
    let reference = cluster.replica(0).database();
    for (table_name, _) in reference.schema() {
        let Some(ref_table) = reference.table_id(&table_name) else {
            continue;
        };
        let ref_tx = reference.begin();
        let ref_rows = ref_tx.scan(ref_table);
        ref_tx.abort();
        let mut ref_rows = match ref_rows {
            Ok(rows) => rows,
            Err(e) => {
                // A healed reference replica whose table cannot even be
                // scanned is itself a violation — never silently skip it.
                violations.push(Violation {
                    invariant: "replica-agreement",
                    detail: format!("replica 0 scan of {table_name} failed: {e}"),
                });
                continue;
            }
        };
        ref_rows.sort_by(|a, b| a.0.cmp(&b.0));
        for r in 1..cluster.replica_count() {
            let db = cluster.replica(r).database();
            let Some(table) = db.table_id(&table_name) else {
                violations.push(Violation {
                    invariant: "replica-agreement",
                    detail: format!("replica {r} is missing table {table_name}"),
                });
                continue;
            };
            let tx = db.begin();
            let rows = tx.scan(table);
            tx.abort();
            match rows {
                Ok(mut rows) => {
                    rows.sort_by(|a, b| a.0.cmp(&b.0));
                    if rows != ref_rows {
                        let diverging = rows
                            .iter()
                            .zip(&ref_rows)
                            .find(|(a, b)| a != b)
                            .map(|((k, _), _)| format!("{k:?}"));
                        violations.push(Violation {
                            invariant: "replica-agreement",
                            detail: format!(
                                "table {table_name}: replica {r} has {} rows vs replica 0's {} (first divergence {diverging:?})",
                                rows.len(),
                                ref_rows.len()
                            ),
                        });
                    }
                }
                Err(e) => violations.push(Violation {
                    invariant: "replica-agreement",
                    detail: format!("replica {r} scan of {table_name} failed: {e}"),
                }),
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use tashkent::{ClusterConfig, SystemKind};
    use tashkent_common::Value;

    use super::*;

    #[test]
    fn healthy_cluster_passes_every_invariant() {
        for shards in [1usize, 2] {
            let mut config = ClusterConfig::small(SystemKind::TashkentApi);
            config.certifier_shards = shards;
            let cluster = Cluster::new(config).unwrap();
            let t = cluster.create_table("kv", &["v"]);
            for i in 0..8 {
                let tx = cluster.session(i % 2).begin();
                tx.insert(t, i as i64, vec![("v".into(), Value::Int(i as i64))])
                    .unwrap();
                tx.commit().unwrap();
            }
            let violations = check_cluster(&cluster, None);
            assert!(violations.is_empty(), "{shards} shards: {violations:?}");
        }
    }

    #[test]
    fn diverged_replica_is_reported() {
        let cluster = Cluster::new(ClusterConfig::small(SystemKind::TashkentMw)).unwrap();
        let t = cluster.create_table("kv", &["v"]);
        let tx = cluster.session(0).begin();
        tx.insert(t, 1, vec![("v".into(), Value::Int(1))]).unwrap();
        tx.commit().unwrap();
        cluster.sync_all().unwrap();
        // Corrupt replica 1 behind the protocol's back.
        let db = cluster.replica(1).database();
        db.bulk_load(
            db.table_id("kv").unwrap(),
            vec![(
                tashkent::RowKey::Int(99),
                tashkent::Row::from_columns(vec![("v".into(), Value::Int(9))]),
            )],
            Version::ZERO,
        );
        let violations = check_cluster(&cluster, None);
        assert!(
            violations.iter().any(|v| v.invariant == "replica-agreement"),
            "{violations:?}"
        );
    }

    #[test]
    fn tpcb_invariant_detects_broken_sums() {
        let cluster = Cluster::new(ClusterConfig::small(SystemKind::TashkentMw)).unwrap();
        cluster.create_table("branches", &["balance"]);
        cluster.create_table("tellers", &["branch", "balance"]);
        cluster.create_table("accounts", &["branch", "balance"]);
        for r in 0..cluster.replica_count() {
            let db = cluster.replica(r).database();
            db.bulk_load(
                db.table_id("branches").unwrap(),
                vec![(
                    tashkent::RowKey::Int(0),
                    tashkent::Row::from_columns(vec![("balance".into(), Value::Int(10))]),
                )],
                Version::ZERO,
            );
        }
        // Branch sum is 10 but teller/account sums are 0: conservation broken.
        assert!(TpcBInvariant.check(&cluster).is_err());
    }
}
