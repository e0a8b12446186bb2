//! Micro-benchmark: sharded certification throughput.
//!
//! Hammers the [`Certifier`] from several worker threads with pre-generated
//! writeset traces and compares shard counts 1 / 2 / 4.  `shards=1` is the
//! paper's unsharded certifier (the default configuration); the acceptance
//! bar for the sharding PR is that at least one sharded configuration
//! certifies no slower than it.
//!
//! Requests carry a lagged start version, so every certification performs a
//! real intersection scan over the recent log suffix — the work sharding
//! parallelises.  Three traces:
//!
//! * **AllUpdates** — single-item writesets on disjoint keys: fully
//!   partitionable, the scenario sharding is built for (every certify locks
//!   one shard and scans only that shard's 1/N-size suffix).
//! * **TPC-B** — 4-item writesets (account, teller, branch, history) with
//!   hot branch/teller keys: most writesets span several shards, so they
//!   pay the ordered two-phase certify — the stress case.
//! * **TPC-W browsing** — the rare buy-confirm writesets of the browsing
//!   mix: 4 items across 4 tables with a large key space, mostly
//!   conflict-free.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tashkent_certifier::{CertificationRequest, Certifier, ShardedCertifierConfig};
use tashkent_common::{
    Component, Event, EventKind, MetricsRegistry, ReplicaId, TableId, Value, WriteItem, WriteSet,
};

const WORKERS: usize = 4;
const BATCH: u64 = 256;
/// How far behind the system version each transaction's snapshot lags: the
/// certifier intersects the writeset against this many recent log entries.
/// Sized like a loaded cluster's in-flight window — deep enough that the
/// scan is real work, shallow enough that (as in the paper's runs) commits
/// dominate aborts.
const START_LAG: u64 = 8;
/// Deep-scan lag for the fully partitionable trace, where disjoint keys
/// keep the abort rate at zero no matter how far back the scan reaches.
const DEEP_LAG: u64 = 48;

/// Deterministic xorshift so trace generation needs no RNG dependency here.
struct Xorshift(u64);

impl Xorshift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, bound: u64) -> i64 {
        (self.next() % bound) as i64
    }
}

fn item(table: u32, key: i64) -> WriteItem {
    WriteItem::update(TableId(table), key, vec![("balance".into(), Value::Int(key))])
}

/// AllUpdates-shaped writesets: one item each, disjoint keys per position so
/// concurrent requests land on independent shards.
fn allupdates_trace(len: usize) -> Vec<WriteSet> {
    (0..len)
        .map(|i| WriteSet::from_items(vec![item(0, i as i64)]))
        .collect()
}

/// TPC-B-shaped writesets: account + teller + branch + history row.  The
/// branch set is sized so the write-write abort rate stays in the paper's
/// few-percent range at [`START_LAG`] (4 hot branches over an 8-deep scan
/// would conflict on essentially every request and measure nothing but the
/// abort fast-path).
fn tpcb_trace(len: usize) -> Vec<WriteSet> {
    let mut rng = Xorshift(0xB0B1);
    (0..len)
        .map(|i| {
            let branch = rng.below(64);
            WriteSet::from_items(vec![
                item(2, branch * 1000 + rng.below(1000)),
                item(1, branch * 10 + rng.below(10)),
                item(0, branch),
                item(3, i as i64),
            ])
        })
        .collect()
}

/// TPC-W-browsing buy-confirm writesets: cart line, stock, order, customer.
fn tpcw_browsing_trace(len: usize) -> Vec<WriteSet> {
    let mut rng = Xorshift(0xB0B2);
    (0..len)
        .map(|i| {
            WriteSet::from_items(vec![
                item(0, i as i64),
                item(1, rng.below(1000)),
                item(2, i as i64),
                item(3, rng.below(288)),
            ])
        })
        .collect()
}

/// Certifies `BATCH` writesets from `trace` across `WORKERS` threads,
/// returning the number that reached a decision.
fn certify_batch(
    certifier: &Arc<Certifier>,
    trace: &Arc<Vec<WriteSet>>,
    cursor: &AtomicUsize,
    lag: u64,
) -> u64 {
    let per_worker = BATCH as usize / WORKERS;
    let decided = AtomicUsize::new(0);
    thread::scope(|scope| {
        for worker in 0..WORKERS {
            let certifier = Arc::clone(certifier);
            let trace = Arc::clone(trace);
            let cursor = &cursor;
            let decided = &decided;
            scope.spawn(move || {
                for _ in 0..per_worker {
                    let index = cursor.fetch_add(1, Ordering::Relaxed) % trace.len();
                    let version = certifier.system_version();
                    let start = tashkent_common::Version(version.value().saturating_sub(lag));
                    let request = CertificationRequest {
                        replica: ReplicaId(worker as u32),
                        start_version: start,
                        writeset: trace[index].clone(),
                        replica_version: version,
                    };
                    if certifier.certify(&request).is_ok() {
                        decided.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    decided.load(Ordering::Relaxed) as u64
}

/// Metrics overhead check: the same TPC-B trace through the same sharded
/// certifier, once with the default no-op registry and once with an enabled
/// one feeding counters, gauges and the durable-stage histogram.  The
/// observability PR's acceptance bar is that the enabled run certifies
/// within 5% of the disabled one.
fn bench_metrics_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("metrics_overhead");
    // Larger sample than the sharding sweep: the effect being bounded (≤5%)
    // is smaller than the run-to-run noise of a 4-thread batch, so the
    // comparison needs the extra samples to converge.
    group.sample_size(30);
    group.throughput(Throughput::Elements(BATCH));
    let trace = Arc::new(tpcb_trace(4096));
    for (mode, registry) in [
        ("disabled", MetricsRegistry::disabled()),
        ("enabled", MetricsRegistry::enabled()),
    ] {
        let mut config = ShardedCertifierConfig::with_shards(2);
        config.base.metrics = Arc::new(registry);
        let certifier = Arc::new(Certifier::new(config));
        let cursor = AtomicUsize::new(0);
        group.bench_with_input(BenchmarkId::new("tpcb", mode), &mode, |b, _| {
            b.iter(|| certify_batch(&certifier, &trace, &cursor, START_LAG));
        });
    }
    group.finish();
}

/// Event-journal overhead check, mirroring `metrics_overhead` for the
/// causal event journal: the same TPC-B trace through the same sharded
/// certifier, once with metrics on but `emit` a no-op
/// ([`MetricsRegistry::enabled_without_journal`]) and once fully enabled,
/// so the measured delta is exactly the journal's cost (clock read +
/// seqlock ring write per decision event) on the certification hot path.
/// The acceptance bar matches PR 6's budget: ≤ 5%, under run-to-run noise.
/// The `emit` sub-benchmark pins the absolute per-call costs: a disabled
/// emit must stay a single predictable branch (single-digit ns), an
/// enabled one a clock read plus ring write (~100 ns).
fn bench_events_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("events_overhead");
    group.sample_size(30);
    group.throughput(Throughput::Elements(BATCH));
    let trace = Arc::new(tpcb_trace(4096));
    for (mode, registry) in [
        ("no-journal", MetricsRegistry::enabled_without_journal()),
        ("journal", MetricsRegistry::enabled()),
    ] {
        let mut config = ShardedCertifierConfig::with_shards(2);
        config.base.metrics = Arc::new(registry);
        let certifier = Arc::new(Certifier::new(config));
        let cursor = AtomicUsize::new(0);
        group.bench_with_input(BenchmarkId::new("tpcb", mode), &mode, |b, _| {
            b.iter(|| certify_batch(&certifier, &trace, &cursor, START_LAG));
        });
    }
    for (mode, registry) in [
        ("disabled", MetricsRegistry::disabled()),
        ("enabled", MetricsRegistry::enabled()),
    ] {
        let registry = Arc::new(registry);
        group.bench_with_input(BenchmarkId::new("emit", mode), &mode, |b, _| {
            b.iter(|| {
                for i in 0..BATCH {
                    registry.emit(
                        Event::new(Component::Certifier, EventKind::CertifyCommit)
                            .tx(i)
                            .version(i)
                            .shard(0),
                    );
                    registry.emit(
                        Event::new(Component::Certifier, EventKind::DurableAppend)
                            .version(i)
                            .shard(0),
                    );
                }
                registry.events_dropped()
            });
        });
    }
    group.finish();
}

/// The shard sweep, run twice: `batch=on` (epoch-drained, pre-screened
/// certification — the default) against `batch=off` (the direct path, one
/// writeset at a time, i.e. the pre-batching baseline).  The
/// batching PR's scoreboard compares the two per trace × shard count; its
/// acceptance bar is a measurable win for `batch=on` at 4 shards on the
/// allupdates trace.
fn bench_sharded(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharded_certification");
    // The 4-thread batch runs on whatever cores the container grants (often
    // one): per-sample times swing with scheduler timeslicing, so the sweep
    // needs a large sample and the median (robust center) for comparisons.
    group.sample_size(50);
    group.throughput(Throughput::Elements(BATCH));
    for (trace_name, trace, lag) in [
        ("allupdates", allupdates_trace(4096), DEEP_LAG),
        ("tpcb", tpcb_trace(4096), START_LAG),
        ("tpcw_browsing", tpcw_browsing_trace(4096), START_LAG),
    ] {
        let trace = Arc::new(trace);
        for shards in [1usize, 2, 4] {
            for batch in [true, false] {
                let mut config = ShardedCertifierConfig::with_shards(shards);
                config.base.batch = batch;
                let certifier = Arc::new(Certifier::new(config));
                let cursor = AtomicUsize::new(0);
                let mode = if batch { "batch=on" } else { "batch=off" };
                group.bench_with_input(
                    BenchmarkId::new(trace_name, format!("shards={shards}/{mode}")),
                    &shards,
                    |b, _| {
                        b.iter(|| certify_batch(&certifier, &trace, &cursor, lag));
                    },
                );
            }
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sharded,
    bench_metrics_overhead,
    bench_events_overhead
);
criterion_main!(benches);
