//! A closed-loop client driver for running a workload against a real
//! in-process cluster for a fixed wall-clock duration.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tashkent::Cluster;
use tashkent_common::{ClientId, LatencyHistogram};

use crate::generators::Workload;

/// Configuration of one driver run.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Closed-loop clients per replica.
    pub clients_per_replica: usize,
    /// Wall-clock measurement duration.
    pub duration: Duration,
    /// Random seed (each client derives its own stream from it).
    pub seed: u64,
    /// Keep clients alive across component outages: on a non-retryable
    /// error (crashed replica, lost certifier majority) the client backs
    /// off briefly and retries instead of stopping for good.  Fault-
    /// injection harnesses set this so load resumes when the component
    /// recovers; performance runs leave it off so an unexpected fault is
    /// loud.
    pub resilient: bool,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            clients_per_replica: 2,
            duration: Duration::from_millis(300),
            seed: 0x7A5B_2001,
            resilient: false,
        }
    }
}

/// Result of a driver run.
#[derive(Debug, Clone, Default)]
pub struct DriverReport {
    /// Committed transactions (updates + read-only).
    pub committed: u64,
    /// Committed read-only transactions.
    pub read_only: u64,
    /// Aborted transactions (retryable conflicts).
    pub aborted: u64,
    /// Transactions that failed on an unavailable component while
    /// [`DriverConfig::resilient`] was set (the client backed off and
    /// retried).
    pub outage_errors: u64,
    /// Total wall-clock duration, from the first client starting to the
    /// last client joined: the measurement window *plus* the shutdown tail.
    pub elapsed: Duration,
    /// The shutdown tail alone: how long after the stop signal the last
    /// client took to finish its in-flight transaction and exit.  Recorded
    /// separately from the measurement window because Tashkent-API drains
    /// in-flight ordered commits slowly (see ROADMAP, "shutdown tail").
    pub drain: Duration,
    /// Response-time distribution of committed transactions.
    pub latency: LatencyHistogram,
}

impl DriverReport {
    /// Committed transactions per second.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.committed as f64 / secs
        }
    }

    /// The shared column header matching [`DriverReport::table_row`].
    ///
    /// Every table of driver results in the workspace — the `tpcb_comparison`
    /// and `tpcw_cluster` examples — prints this header
    /// (plus workload-specific columns appended after it), so the drain
    /// tail is visible everywhere and rows line up across reports.
    #[must_use]
    pub fn table_header(label_title: &str) -> String {
        format!(
            "{label_title:<28}{:>12}{:>10}{:>12}{:>10}{:>10}",
            "committed", "aborted", "tput/s", "p50 ms", "drain ms"
        )
    }

    /// One table row under [`DriverReport::table_header`].  Callers append
    /// workload-specific columns to the returned string.
    #[must_use]
    pub fn table_row(&self, label: &str) -> String {
        format!(
            "{label:<28}{:>12}{:>10}{:>12.0}{:>10.2}{:>10}",
            self.committed,
            self.aborted,
            self.throughput(),
            self.latency.median().as_secs_f64() * 1e3,
            self.drain.as_millis(),
        )
    }
}

/// Runs `workload` against `cluster` with closed-loop clients on every
/// replica and aggregates the results.
///
/// Retryable aborts (write-write conflicts, certification failures) are
/// counted and the client immediately moves on to its next transaction;
/// non-retryable errors (component crashes) stop that client.
#[must_use]
pub fn run_driver(cluster: &Arc<Cluster>, workload: &Arc<dyn Workload>, config: &DriverConfig) -> DriverReport {
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    let start = Instant::now();
    for replica in 0..cluster.replica_count() {
        for client in 0..config.clients_per_replica {
            let cluster = Arc::clone(cluster);
            let workload = Arc::clone(workload);
            let stop = Arc::clone(&stop);
            let client_id = ClientId((replica * config.clients_per_replica + client) as u64);
            let seed = config
                .seed
                .wrapping_add(client_id.0)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let resilient = config.resilient;
            handles.push(thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut report = DriverReport::default();
                let think_time = workload.think_time();
                while !stop.load(Ordering::Relaxed) {
                    let begun = Instant::now();
                    match workload.run_one(&cluster, replica, client_id, &mut rng) {
                        Ok(is_update) => {
                            report.committed += 1;
                            if !is_update {
                                report.read_only += 1;
                            }
                            report.latency.record(begun.elapsed());
                        }
                        Err(e) if e.is_retryable_abort() => {
                            report.aborted += 1;
                            // Randomized backoff before the retry.  Without
                            // it, clients aborted on the same hot rows
                            // re-certify in lockstep and keep colliding — a
                            // retry convoy: the flight recorder shows a
                            // persistent per-sample abort trickle and a
                            // 2–3x certify tail for the whole run (the
                            // TPC-B slow mode in ROADMAP).  Tens of
                            // microseconds of jitter de-phases the
                            // convoy at negligible latency cost.
                            thread::sleep(Duration::from_micros(
                                10 + rng.gen_range(0..90u64),
                            ));
                        }
                        Err(e) if resilient && e.is_unavailable() => {
                            // A component is down (fault injection): back
                            // off and retry until it recovers or the run
                            // ends.  Only outage errors are absorbed —
                            // anything else (corruption, protocol bugs) is
                            // a real failure and still stops the client.
                            report.outage_errors += 1;
                            thread::sleep(Duration::from_millis(1));
                        }
                        Err(_) => break,
                    }
                    // Closed-loop think time (TPC-W browsing): the response
                    // time above excludes it, as the paper's driver does.
                    if !think_time.is_zero() {
                        thread::sleep(think_time);
                    }
                }
                report
            }));
        }
    }
    thread::sleep(config.duration);
    stop.store(true, Ordering::Relaxed);
    let stopped = Instant::now();
    let mut total = DriverReport::default();
    for handle in handles {
        if let Ok(report) = handle.join() {
            total.committed += report.committed;
            total.read_only += report.read_only;
            total.aborted += report.aborted;
            total.outage_errors += report.outage_errors;
            total.latency.merge(&report.latency);
        }
    }
    total.elapsed = start.elapsed();
    total.drain = stopped.elapsed();
    total
}

#[cfg(test)]
mod tests {
    use tashkent::{ClusterConfig, SystemKind};

    use super::*;
    use crate::generators::{AllUpdates, TpcWBrowsing};

    #[test]
    fn driver_runs_clients_on_every_replica() {
        let cluster = Arc::new(Cluster::new(ClusterConfig::small(SystemKind::TashkentMw)).unwrap());
        let workload: Arc<dyn Workload> = Arc::new(AllUpdates::default());
        workload.setup(&cluster);
        let report = run_driver(
            &cluster,
            &workload,
            &DriverConfig {
                clients_per_replica: 2,
                duration: Duration::from_millis(200),
                seed: 7,
                ..DriverConfig::default()
            },
        );
        assert!(report.committed > 0);
        assert!(report.throughput() > 0.0);
        assert_eq!(
            cluster.system_version().value(),
            report.committed - report.read_only
        );
        assert!(report.latency.count() == report.committed);
    }

    #[test]
    fn report_rows_line_up_with_the_shared_header() {
        let report = DriverReport {
            committed: 1234,
            aborted: 56,
            elapsed: Duration::from_secs(1),
            drain: Duration::from_millis(3),
            ..DriverReport::default()
        };
        let header = DriverReport::table_header("system");
        let row = report.table_row("base x 2");
        assert_eq!(header.len(), row.len(), "{header}\n{row}");
        assert!(header.contains("drain ms"));
        assert!(row.contains("1234"));
        assert!(row.ends_with("         3"), "{row:?}");
    }

    #[test]
    fn driver_honours_think_times_between_interactions() {
        let cluster = Arc::new(Cluster::new(ClusterConfig::small(SystemKind::TashkentMw)).unwrap());
        let workload: Arc<dyn Workload> =
            Arc::new(TpcWBrowsing::new(Duration::from_millis(20)).with_catalogue(50, 10));
        workload.setup(&cluster);
        let report = run_driver(
            &cluster,
            &workload,
            &DriverConfig {
                clients_per_replica: 1,
                duration: Duration::from_millis(200),
                seed: 8,
                ..DriverConfig::default()
            },
        );
        assert!(report.committed > 0);
        // With a 20 ms think time, each of the two clients fits roughly
        // duration/think interactions in the window (compared to thousands
        // unthrottled) — the pacing, not the engine, bounds throughput.  The
        // ceiling is twice the ideal 2 × (200/20) so scheduler oversleep of
        // the driver's stop timer cannot flake the test; even doubled it is
        // two orders of magnitude below the unthrottled rate.
        let ceiling = 2 * (2 * (200 / 20));
        assert!(
            report.committed + report.aborted <= ceiling,
            "{} transactions exceed the think-time ceiling {ceiling}",
            report.committed + report.aborted,
        );
    }
}
