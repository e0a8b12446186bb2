//! Measurement helpers: latency histograms, throughput meters and
//! group-commit statistics.
//!
//! Both the real cluster and the discrete-event simulator report their
//! results through these types, which keeps the `figures` harness output
//! uniform across the two substrates.

use std::time::Duration;

/// A latency histogram with microsecond resolution.
///
/// Samples are kept in logarithmically sized buckets so that memory use is
/// bounded no matter how long an experiment runs, while percentile error
/// stays below ~3 %.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    /// Bucket counts.  Bucket `i` covers `[lower_bound(i), lower_bound(i+1))`.
    buckets: Vec<u64>,
    count: u64,
    sum_micros: u128,
    min_micros: u64,
    max_micros: u64,
}

const BUCKETS_PER_DECADE: usize = 32;
const DECADES: usize = 9; // 1 us .. ~1000 s

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; BUCKETS_PER_DECADE * DECADES],
            count: 0,
            sum_micros: 0,
            min_micros: u64::MAX,
            max_micros: 0,
        }
    }

    fn bucket_index(micros: u64) -> usize {
        if micros == 0 {
            return 0;
        }
        let log = (micros as f64).log10();
        let idx = (log * BUCKETS_PER_DECADE as f64) as usize;
        idx.min(BUCKETS_PER_DECADE * DECADES - 1)
    }

    fn bucket_value(index: usize) -> u64 {
        10f64.powf(index as f64 / BUCKETS_PER_DECADE as f64).round() as u64
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: Duration) {
        let micros = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        self.buckets[Self::bucket_index(micros)] += 1;
        self.count += 1;
        self.sum_micros += u128::from(micros);
        self.min_micros = self.min_micros.min(micros);
        self.max_micros = self.max_micros.max(micros);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency, or zero if no samples were recorded.
    #[must_use]
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        Duration::from_micros((self.sum_micros / u128::from(self.count)) as u64)
    }

    /// Smallest recorded sample, or zero if empty.
    #[must_use]
    pub fn min(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            Duration::from_micros(self.min_micros)
        }
    }

    /// Largest recorded sample.
    #[must_use]
    pub fn max(&self) -> Duration {
        Duration::from_micros(self.max_micros)
    }

    /// The latency at the given percentile (0.0–100.0).
    ///
    /// Returns zero for an empty histogram.
    #[must_use]
    pub fn percentile(&self, p: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let p = p.clamp(0.0, 100.0);
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Duration::from_micros(Self::bucket_value(i));
            }
        }
        self.max()
    }

    /// Median latency.
    #[must_use]
    pub fn median(&self) -> Duration {
        self.percentile(50.0)
    }

    /// Number of buckets every histogram has.
    #[must_use]
    pub fn bucket_count() -> usize {
        BUCKETS_PER_DECADE * DECADES
    }

    /// Raw bucket counts (bucket `i` covers `[10^(i/32), 10^((i+1)/32))`
    /// microseconds).  Used by the metrics snapshot codec.
    #[must_use]
    pub fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }

    /// Sum of all recorded samples in microseconds.
    #[must_use]
    pub fn sum_micros(&self) -> u128 {
        self.sum_micros
    }

    /// Reconstructs a histogram from its parts (the metrics snapshot
    /// decoder).  `buckets` is padded or truncated to the canonical length,
    /// and an empty histogram (`count == 0`) gets the canonical empty
    /// min/max regardless of the arguments.
    #[must_use]
    pub fn from_parts(
        mut buckets: Vec<u64>,
        count: u64,
        sum_micros: u128,
        min_micros: u64,
        max_micros: u64,
    ) -> Self {
        buckets.resize(Self::bucket_count(), 0);
        if count == 0 {
            return LatencyHistogram::new();
        }
        LatencyHistogram {
            buckets,
            count,
            sum_micros,
            min_micros,
            max_micros,
        }
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_micros += other.sum_micros;
        if other.count > 0 {
            self.min_micros = self.min_micros.min(other.min_micros);
            self.max_micros = self.max_micros.max(other.max_micros);
        }
    }
}

/// Statistics about group commit: how many records each synchronous flush
/// absorbed.
///
/// The headline explanation for Tashkent-MW's win is that "the certifier …
/// is able to group an average of 29 writesets per fsync" (Section 9.2);
/// this type produces that number.
#[derive(Debug, Clone, Default)]
pub struct GroupCommitStats {
    /// Number of synchronous flush operations performed.
    pub fsyncs: u64,
    /// Total records made durable across all flushes.
    pub records: u64,
    /// Largest single group.
    pub max_group: u64,
}

impl GroupCommitStats {
    /// Records one flush that made `records` commit records durable.
    pub fn record_flush(&mut self, records: u64) {
        self.fsyncs += 1;
        self.records += records;
        self.max_group = self.max_group.max(records);
    }

    /// Average number of records per flush (the paper's "writesets per
    /// fsync"), or zero if no flush happened.
    #[must_use]
    pub fn mean_group_size(&self) -> f64 {
        if self.fsyncs == 0 {
            0.0
        } else {
            self.records as f64 / self.fsyncs as f64
        }
    }

    /// Merges another set of group-commit statistics into this one.
    pub fn merge(&mut self, other: &GroupCommitStats) {
        self.fsyncs += other.fsyncs;
        self.records += other.records;
        self.max_group = self.max_group.max(other.max_group);
    }
}

/// Result of one measured run: committed/aborted counts, duration, latency.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Transactions that committed.
    pub committed: u64,
    /// Transactions aborted (conflicts, deadlocks, forced aborts).
    pub aborted: u64,
    /// Read-only transactions among the committed ones.
    pub read_only: u64,
    /// Wall-clock (or virtual) duration of the measured interval.
    pub elapsed: Duration,
    /// Response-time distribution of committed transactions.
    pub latency: LatencyHistogram,
    /// Response-time distribution of committed read-only transactions.
    pub read_only_latency: LatencyHistogram,
    /// Response-time distribution of committed update transactions.
    pub update_latency: LatencyHistogram,
    /// Group-commit behaviour of the replica WAL (database durability).
    pub replica_group_commit: GroupCommitStats,
    /// Group-commit behaviour of the certifier log (middleware durability).
    pub certifier_group_commit: GroupCommitStats,
}

impl RunStats {
    /// Creates empty run statistics.
    #[must_use]
    pub fn new() -> Self {
        RunStats::default()
    }

    /// Committed transactions per second over the measured interval
    /// ("goodput" in Section 9.5: aborted transactions do not count).
    #[must_use]
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.committed as f64 / secs
        }
    }

    /// Abort rate among all finished transactions.
    #[must_use]
    pub fn abort_rate(&self) -> f64 {
        let total = self.committed + self.aborted;
        if total == 0 {
            0.0
        } else {
            self.aborted as f64 / total as f64
        }
    }

    /// Mean response time of committed transactions.
    #[must_use]
    pub fn mean_response_time(&self) -> Duration {
        self.latency.mean()
    }

    /// Merges per-thread / per-replica statistics into a cluster total.
    ///
    /// Elapsed time is taken as the maximum of the two intervals (they ran
    /// concurrently), while counts and histograms are summed.
    pub fn merge(&mut self, other: &RunStats) {
        self.committed += other.committed;
        self.aborted += other.aborted;
        self.read_only += other.read_only;
        self.elapsed = self.elapsed.max(other.elapsed);
        self.latency.merge(&other.latency);
        self.read_only_latency.merge(&other.read_only_latency);
        self.update_latency.merge(&other.update_latency);
        self.replica_group_commit.merge(&other.replica_group_commit);
        self.certifier_group_commit
            .merge(&other.certifier_group_commit);
    }
}

/// One data point of a figure: x value (replica count), plus the measured
/// throughput and response time.
#[derive(Debug, Clone)]
pub struct SeriesPoint {
    /// Number of replicas (the x axis of every figure in the paper).
    pub replicas: usize,
    /// Committed transactions per second.
    pub throughput: f64,
    /// Mean response time in milliseconds.
    pub response_time_ms: f64,
}

/// A named series (one curve of a figure).
#[derive(Debug, Clone)]
pub struct Series {
    /// Curve label (e.g. `tashMW`).
    pub label: String,
    /// Data points ordered by replica count.
    pub points: Vec<SeriesPoint>,
}

impl Series {
    /// Creates an empty series with the given label.
    #[must_use]
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a data point.
    pub fn push(&mut self, replicas: usize, throughput: f64, response_time_ms: f64) {
        self.points.push(SeriesPoint {
            replicas,
            throughput,
            response_time_ms,
        });
    }

    /// The throughput at the largest replica count, or zero if empty.
    #[must_use]
    pub fn peak_throughput(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.throughput)
            .fold(0.0, f64::max)
    }

    /// Throughput at exactly `replicas`, if measured.
    #[must_use]
    pub fn throughput_at(&self, replicas: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.replicas == replicas)
            .map(|p| p.throughput)
    }

    /// Response time at exactly `replicas`, if measured.
    #[must_use]
    pub fn response_time_at(&self, replicas: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.replicas == replicas)
            .map(|p| p.response_time_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_basic_statistics() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.percentile(50.0), Duration::ZERO);
        for ms in [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10] {
            h.record(Duration::from_millis(ms));
        }
        assert_eq!(h.count(), 10);
        let mean = h.mean();
        assert!(mean >= Duration::from_millis(5) && mean <= Duration::from_millis(6));
        assert!(h.min() >= Duration::from_micros(900));
        assert!(h.max() >= Duration::from_millis(9));
        let median = h.median();
        assert!(median >= Duration::from_millis(4) && median <= Duration::from_millis(7));
        let p99 = h.percentile(99.0);
        assert!(p99 >= median);
    }

    #[test]
    fn histogram_percentile_accuracy_is_within_buckets() {
        let mut h = LatencyHistogram::new();
        for _ in 0..1000 {
            h.record(Duration::from_micros(100));
        }
        let p50 = h.percentile(50.0).as_micros() as f64;
        assert!((p50 - 100.0).abs() / 100.0 < 0.10, "p50 = {p50}");
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(Duration::from_millis(1));
        b.record(Duration::from_millis(100));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.max() >= Duration::from_millis(90));
        assert!(a.min() <= Duration::from_millis(2));
    }

    #[test]
    fn group_commit_mean() {
        let mut g = GroupCommitStats::default();
        assert_eq!(g.mean_group_size(), 0.0);
        g.record_flush(10);
        g.record_flush(20);
        assert_eq!(g.fsyncs, 2);
        assert_eq!(g.records, 30);
        assert_eq!(g.max_group, 20);
        assert!((g.mean_group_size() - 15.0).abs() < f64::EPSILON);
        let mut h = GroupCommitStats::default();
        h.record_flush(40);
        g.merge(&h);
        assert_eq!(g.fsyncs, 3);
        assert_eq!(g.max_group, 40);
    }

    #[test]
    fn run_stats_throughput_and_abort_rate() {
        let mut s = RunStats::new();
        assert_eq!(s.throughput(), 0.0);
        assert_eq!(s.abort_rate(), 0.0);
        s.committed = 500;
        s.aborted = 100;
        s.elapsed = Duration::from_secs(10);
        assert!((s.throughput() - 50.0).abs() < 1e-9);
        assert!((s.abort_rate() - 100.0 / 600.0).abs() < 1e-9);
    }

    #[test]
    fn run_stats_merge_takes_max_elapsed() {
        let mut a = RunStats::new();
        a.committed = 10;
        a.elapsed = Duration::from_secs(5);
        let mut b = RunStats::new();
        b.committed = 20;
        b.aborted = 2;
        b.elapsed = Duration::from_secs(8);
        a.merge(&b);
        assert_eq!(a.committed, 30);
        assert_eq!(a.aborted, 2);
        assert_eq!(a.elapsed, Duration::from_secs(8));
    }

    #[test]
    fn series_lookup() {
        let mut s = Series::new("tashMW");
        s.push(1, 490.0, 18.0);
        s.push(15, 3657.0, 40.0);
        assert_eq!(s.label, "tashMW");
        assert_eq!(s.throughput_at(15), Some(3657.0));
        assert_eq!(s.throughput_at(3), None);
        assert_eq!(s.response_time_at(1), Some(18.0));
        assert!((s.peak_throughput() - 3657.0).abs() < f64::EPSILON);
    }
}
