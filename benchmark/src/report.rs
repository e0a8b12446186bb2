//! Metric names, and the arithmetic that turns a run's records into them.

use crate::assemble::{LayerCounters, RegistryStages};
use crate::drills::DRILLS;
use crate::driver::SystemRun;
use crate::stats::{median, median_grouped_sorted, percentile_sorted};
use crate::trace::{CertifySpan, Outcome, TxSpans};
use crate::workload::System;

/// End-to-end stems, each reported per system as `<system>.<stem>`.
pub const END_TO_END_STEMS: [(&str, &str); 3] = [
    ("committed_per_s", "1/s"),
    ("commit_p50_us", "us"),
    ("commit_p95_us", "us"),
];

pub const SETUP: (&str, &str) = ("setup_s", "s");

/// Traced per-layer stems, each reported per system as `<system>.<stem>`.
pub const LAYER_STEMS: [(&str, &str); 19] = [
    ("proxy.execute_p50_us", "us"),
    ("proxy.commit_p50_us", "us"),
    ("certifier.certify_p50_us", "us"),
    ("certifier.server_certify_p50_us", "us"),
    ("net.wire_p50_us", "us"),
    ("proxy.commit_self_p50_us", "us"),
    ("proxy.residual_p50_us", "us"),
    ("certifier.remote_ws_per_certify", "count"),
    ("certifier.abort_ratio", "ratio"),
    ("certifier.batch_size_mean", "count"),
    ("certifier.prescreen_hit_ratio", "ratio"),
    ("certifier.log_appends_per_commit", "ratio"),
    ("storage.wal_fsyncs_per_commit", "ratio"),
    ("storage.remote_installs_per_commit", "ratio"),
    ("storage.lock_waits_per_commit", "ratio"),
    ("storage.stage_durable_mean_us", "us"),
    ("storage.stage_install_mean_us", "us"),
    ("net.bytes_per_commit", "B"),
    ("drain_ms", "ms"),
];

pub const TRACE_OVERHEAD: (&str, &str) = ("trace_overhead_pct", "%");

/// A named, measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn per_system(stems: &[(&'static str, &'static str)]) -> Vec<(String, &'static str)> {
    stems
        .iter()
        .flat_map(|(stem, unit)| {
            System::ALL
                .iter()
                .map(move |system| (format!("{}.{stem}", system.prefix()), *unit))
        })
        .collect()
}

/// Every end-to-end metric name with its unit, in report order.
pub fn end_to_end_names() -> Vec<(String, &'static str)> {
    let mut names = per_system(&END_TO_END_STEMS);
    names.push((SETUP.0.to_owned(), SETUP.1));
    names
}

/// Every per-layer metric name with its unit, in report order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names = per_system(&LAYER_STEMS);
    names.push((TRACE_OVERHEAD.0.to_owned(), TRACE_OVERHEAD.1));
    names.extend(DRILLS.iter().map(|d| (d.name.to_owned(), d.unit)));
    names
}

/// One window's (or the pooled run's) end-to-end figures for one system.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub committed_per_s: f64,
    pub commit_p50_us: f64,
    pub commit_p95_us: f64,
    /// Committed update transactions behind the two percentiles.
    pub samples: usize,
}

impl EndToEnd {
    pub fn by_stem(&self, stem: &str) -> f64 {
        match stem {
            "committed_per_s" => self.committed_per_s,
            "commit_p50_us" => self.commit_p50_us,
            "commit_p95_us" => self.commit_p95_us,
            _ => f64::NAN,
        }
    }
}

/// Committed transactions per second and the update-commit latency
/// percentiles of the attempts whose `commit()` returned in `[from, to)`.
fn interval(run: &SystemRun, from: u64, to: u64) -> EndToEnd {
    let mut committed = 0u64;
    let mut latencies: Vec<u64> = Vec::new();
    for record in run.clients.iter().flat_map(|c| &c.records) {
        if record.t_end < from || record.t_end >= to || !record.committed() {
            continue;
        }
        committed += 1;
        if record.outcome == Outcome::CommittedUpdate {
            latencies.push(record.latency_ns());
        }
    }
    latencies.sort_unstable();
    EndToEnd {
        committed_per_s: committed as f64 / ((to - from) as f64 / 1e9),
        commit_p50_us: median_grouped_sorted(&latencies) / 1e3,
        commit_p95_us: percentile_sorted(&latencies, 95.0) / 1e3,
        samples: latencies.len(),
    }
}

/// Per-window figures, and the run's: throughput is the median of the
/// windows, the percentiles pool every window's samples.
pub fn end_to_end(run: &SystemRun) -> (EndToEnd, Vec<EndToEnd>) {
    let windows: Vec<EndToEnd> = run
        .boundaries
        .windows(2)
        .map(|pair| interval(run, pair[0], pair[1]))
        .collect();
    let first = run.boundaries[0];
    let last = *run.boundaries.last().expect("at least one boundary");
    let mut pooled = interval(run, first, last);
    let throughputs: Vec<f64> = windows.iter().map(|w| w.committed_per_s).collect();
    pooled.committed_per_s = median(&throughputs);
    (pooled, windows)
}

fn p50_us(mut values: Vec<u64>) -> f64 {
    values.sort_unstable();
    median_grouped_sorted(&values) / 1e3
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// The 19 traced stems of one system, in [`LAYER_STEMS`] order.
///
/// `execute`, `commit` and `residual` cover every committed transaction of
/// the measured interval; the certify-derived stems cover committed
/// updates (read-only transactions never reach the certifier).  Counter
/// ratios cover the registry's whole life (warm-up included): numerator and
/// denominator are read over the same interval.
pub fn layer_values(
    spans: &[TxSpans],
    certify_calls: &[CertifySpan],
    counters: &LayerCounters,
    stages: &RegistryStages,
    drain_ms: f64,
) -> Vec<f64> {
    let updates = || spans.iter().filter(|s| s.update);
    let remote_mean = if certify_calls.is_empty() {
        0.0
    } else {
        certify_calls
            .iter()
            .map(|c| f64::from(c.remote_writesets))
            .sum::<f64>()
            / certify_calls.len() as f64
    };
    let commits = counters.tx_committed;
    vec![
        p50_us(spans.iter().map(TxSpans::execute_ns).collect()),
        p50_us(spans.iter().map(TxSpans::commit_ns).collect()),
        p50_us(updates().filter_map(TxSpans::certify_ns).collect()),
        p50_us(updates().filter_map(TxSpans::server_certify_ns).collect()),
        p50_us(updates().filter_map(TxSpans::wire_ns).collect()),
        p50_us(updates().map(TxSpans::commit_self_ns).collect()),
        p50_us(spans.iter().map(TxSpans::residual_ns).collect()),
        remote_mean,
        ratio(counters.certify_aborts, counters.certify_requests),
        stages.batch_size_mean,
        ratio(
            counters.prescreen_hits,
            counters.prescreen_hits + counters.prescreen_misses,
        ),
        ratio(counters.durable_appends, commits),
        ratio(counters.wal_fsyncs, commits),
        ratio(counters.remote_installs, commits),
        ratio(counters.lock_waits, commits),
        stages.durable_mean_us,
        stages.install_mean_us,
        ratio(counters.net_bytes, commits),
        drain_ms,
    ]
}

/// How well the reported parts account for the whole, over committed
/// update transactions: the sum of the four part medians as a share of the
/// median transaction span.  Per transaction the parts tile the whole by
/// construction; this checks that the medians still do.
pub fn accounted_share(spans: &[TxSpans]) -> f64 {
    let updates = || spans.iter().filter(|s| s.update);
    let parts = p50_us(updates().map(TxSpans::execute_ns).collect())
        + p50_us(updates().filter_map(TxSpans::certify_ns).collect())
        + p50_us(updates().map(TxSpans::commit_self_ns).collect())
        + p50_us(updates().map(TxSpans::residual_ns).collect());
    parts / p50_us(updates().map(TxSpans::tx_ns).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::ClientOutput;
    use crate::trace::TxRecord;

    fn record(outcome: Outcome, begin: u64, end: u64) -> TxRecord {
        TxRecord {
            outcome,
            t_begin: begin,
            t_executed: 0,
            t_commit: 0,
            t_end: end,
            certify_index: None,
        }
    }

    #[test]
    fn name_sets_have_the_declared_sizes_and_are_unique() {
        let e2e = end_to_end_names();
        let layers = per_layer_names();
        assert_eq!(e2e.len(), 10);
        assert_eq!(layers.len(), 19 * 3 + 1 + 10);
        let mut all: Vec<&String> = e2e.iter().chain(&layers).map(|(n, _)| n).collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 78, "a name is used once");
    }

    #[test]
    fn windows_take_commits_by_return_time_and_pool_update_latencies() {
        let ms = 1_000_000u64;
        let run = SystemRun {
            boundaries: vec![100 * ms, 200 * ms, 300 * ms],
            clients: vec![ClientOutput {
                records: vec![
                    // Warm-up: ignored.
                    record(Outcome::CommittedUpdate, 10 * ms, 50 * ms),
                    // Window 0: two updates (20 ms, 40 ms), one read, one abort.
                    record(Outcome::CommittedUpdate, 100 * ms, 120 * ms),
                    record(Outcome::CommittedUpdate, 120 * ms, 160 * ms),
                    record(Outcome::CommittedReadOnly, 160 * ms, 161 * ms),
                    record(Outcome::Aborted, 161 * ms, 170 * ms),
                    // Window 1: one update (60 ms).
                    record(Outcome::CommittedUpdate, 190 * ms, 250 * ms),
                    // Drain tail: ignored.
                    record(Outcome::CommittedUpdate, 290 * ms, 310 * ms),
                ],
                ..ClientOutput::default()
            }],
            drain_ms: 10.0,
        };
        let (pooled, windows) = end_to_end(&run);
        assert_eq!(windows.len(), 2);
        assert!((windows[0].committed_per_s - 30.0).abs() < 1e-9);
        assert!((windows[1].committed_per_s - 10.0).abs() < 1e-9);
        assert_eq!(windows[0].samples, 2);
        assert!(
            (pooled.committed_per_s - 20.0).abs() < 1e-9,
            "median of the windows"
        );
        assert_eq!(pooled.samples, 3);
        assert!((pooled.commit_p50_us - 40_000.0).abs() < 1e-9);
        assert!((pooled.commit_p95_us - 60_000.0).abs() < 1e-9);
        let totals = run.totals();
        assert_eq!(totals.attempted, 7);
        assert_eq!(totals.committed_updates, 5);
        assert_eq!(totals.aborted, 1);
    }

    #[test]
    fn layer_values_line_up_with_the_stems() {
        let spans = [TxSpans {
            id: 0,
            update: true,
            tx: (0, 10_000),
            execute: (0, 2_000),
            commit: (2_100, 10_000),
            certify: Some((2_500, 8_500)),
            server_certify: Some((3_000, 8_000)),
        }];
        let calls = [CertifySpan {
            start_ns: 2_500,
            end_ns: 8_500,
            remote_writesets: 3,
        }];
        let counters = LayerCounters {
            tx_committed: 4,
            certify_requests: 5,
            certify_aborts: 1,
            durable_appends: 4,
            wal_fsyncs: 8,
            remote_installs: 2,
            lock_waits: 1,
            prescreen_hits: 3,
            prescreen_misses: 1,
            net_bytes: 400,
        };
        let stages = RegistryStages {
            durable_mean_us: 7.0,
            install_mean_us: 9.0,
            batch_size_mean: 1.5,
        };
        let values = layer_values(&spans, &calls, &counters, &stages, 12.0);
        assert_eq!(values.len(), LAYER_STEMS.len());
        let by_stem =
            |stem: &str| values[LAYER_STEMS.iter().position(|(s, _)| *s == stem).unwrap()];
        assert_eq!(by_stem("proxy.execute_p50_us"), 2.0);
        assert_eq!(by_stem("certifier.certify_p50_us"), 6.0);
        assert_eq!(by_stem("net.wire_p50_us"), 1.0);
        assert_eq!(by_stem("proxy.commit_self_p50_us"), 1.9);
        assert_eq!(by_stem("proxy.residual_p50_us"), 0.1);
        assert_eq!(by_stem("certifier.remote_ws_per_certify"), 3.0);
        assert_eq!(by_stem("certifier.abort_ratio"), 0.2);
        assert_eq!(by_stem("certifier.prescreen_hit_ratio"), 0.75);
        assert_eq!(by_stem("storage.wal_fsyncs_per_commit"), 2.0);
        assert_eq!(by_stem("net.bytes_per_commit"), 100.0);
        assert_eq!(by_stem("drain_ms"), 12.0);
        assert!((accounted_share(&spans) - 1.0).abs() < 1e-12);
    }
}
