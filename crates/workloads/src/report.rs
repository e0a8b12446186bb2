//! Rendering helpers for metrics snapshots.
//!
//! The per-stage commit-path breakdown is printed by the `tpcb_comparison`
//! example under each system's row.

use tashkent_common::metrics::{CounterId, GaugeId, Stage};
use tashkent_common::MetricsSnapshot;

/// Renders the per-stage latency breakdown of `snapshot` as a fixed-width
/// table: one row per commit-path stage (begin / execute / certify /
/// durable / announce / install) with sample count and p50 / p95 / max in
/// microseconds, followed by the lock-wait distribution and the queue-depth
/// gauge high-water marks.
#[must_use]
pub fn render_stage_breakdown(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12}{:>10}{:>12}{:>12}{:>12}\n",
        "stage", "count", "p50 us", "p95 us", "max us"
    ));
    for stage in Stage::ALL {
        let h = snapshot.stage(stage);
        out.push_str(&format!(
            "{:<12}{:>10}{:>12}{:>12}{:>12}\n",
            stage.label(),
            h.count(),
            h.median().as_micros(),
            h.percentile(95.0).as_micros(),
            h.max().as_micros(),
        ));
    }
    let lock_wait = &snapshot.lock_wait;
    out.push_str(&format!(
        "lock waits: {} blocked acquisitions, p95 {} us, max {} us\n",
        snapshot.counter(CounterId::LockWaits),
        lock_wait.percentile(95.0).as_micros(),
        lock_wait.max().as_micros(),
    ));
    let mut gauges = String::new();
    for gauge in GaugeId::ALL {
        let (_, high_water) = snapshot.gauge(gauge);
        if !gauges.is_empty() {
            gauges.push_str(", ");
        }
        gauges.push_str(&format!("{}={high_water}", gauge.label()));
    }
    out.push_str(&format!("queue high-water marks: {gauges}\n"));
    out
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use tashkent_common::MetricsRegistry;

    use super::*;

    #[test]
    fn breakdown_lists_every_stage_and_gauge() {
        let registry = MetricsRegistry::enabled();
        registry.record_stage(Stage::Certify, Duration::from_micros(120));
        registry.gauge_set(GaugeId::WalGroupBatch, 7);
        let text = render_stage_breakdown(&registry.snapshot());
        for stage in Stage::ALL {
            assert!(text.contains(stage.label()), "{text}");
        }
        assert!(text.contains("wal_group_batch=7"), "{text}");
        assert!(text.contains("lock waits"), "{text}");
    }
}
