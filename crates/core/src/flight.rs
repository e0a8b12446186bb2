//! The flight recorder: periodic metrics sampling into a bounded ring.
//!
//! A [`FlightRecorder`] snapshots a [`MetricsRegistry`] on a fixed interval
//! from a background thread, keeping the most recent samples in a bounded
//! ring buffer.  Reading the ring back after an incident (or after a
//! benchmark run) gives a timeline of per-stage latency distributions,
//! counter rates and queue depths — which is how the TPC-B throughput
//! bimodality was tracked down to its stage (see ROADMAP).
//!
//! The recorder is deliberately kept out of `tashkent-common`: the data
//! plane there is thread- and IO-free, whereas the recorder owns a sampling
//! thread.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use tashkent_common::{MetricsRegistry, MetricsSnapshot};

use crate::periodic::Periodic;

/// Default ring capacity (at a 250 ms interval: ~4 minutes of history).
pub const DEFAULT_SAMPLE_CAPACITY: usize = 1024;

/// One timeline entry: when the sample was taken (relative to recorder
/// start) and the full registry snapshot at that instant.
#[derive(Debug, Clone)]
pub struct FlightSample {
    /// Time since the recorder started.
    pub at: Duration,
    /// The registry snapshot taken at that instant.
    pub snapshot: MetricsSnapshot,
}

/// A background sampler turning a [`MetricsRegistry`] into a bounded
/// timeline of [`FlightSample`]s.
///
/// Dropping the recorder stops and joins the sampling thread.
pub struct FlightRecorder {
    samples: Arc<Mutex<VecDeque<FlightSample>>>,
    thread: Periodic,
    capacity: usize,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("samples", &self.samples.lock().len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl FlightRecorder {
    /// Starts sampling `registry` every `interval` into a ring of at most
    /// `capacity` samples (oldest evicted first).
    #[must_use]
    pub fn start(
        registry: Arc<MetricsRegistry>,
        interval: Duration,
        capacity: usize,
    ) -> Self {
        let capacity = capacity.max(1);
        let samples = Arc::new(Mutex::new(VecDeque::with_capacity(capacity)));
        let ring = Arc::clone(&samples);
        let started = Instant::now();
        let thread = Periodic::start("flight-recorder", interval, move || {
            let sample = FlightSample {
                at: started.elapsed(),
                snapshot: registry.snapshot(),
            };
            let mut ring = ring.lock();
            if ring.len() == capacity {
                ring.pop_front();
            }
            ring.push_back(sample);
        });
        FlightRecorder {
            samples,
            thread,
            capacity,
        }
    }

    /// The timeline recorded so far, oldest first.
    #[must_use]
    pub fn samples(&self) -> Vec<FlightSample> {
        self.samples.lock().iter().cloned().collect()
    }

    /// Stops the sampling thread and returns the recorded timeline.
    #[must_use]
    pub fn stop(mut self) -> Vec<FlightSample> {
        self.thread.stop();
        self.samples.lock().drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use tashkent_common::metrics::{CounterId, Stage};

    use super::*;

    #[test]
    fn recorder_samples_on_the_interval_and_stays_bounded() {
        let registry = Arc::new(MetricsRegistry::enabled());
        let recorder =
            FlightRecorder::start(Arc::clone(&registry), Duration::from_millis(5), 4);
        for i in 0..40u64 {
            registry.incr(CounterId::TxCommitted);
            registry.record_stage(Stage::Execute, Duration::from_micros(100 + i));
            std::thread::sleep(Duration::from_millis(2));
        }
        let samples = recorder.stop();
        assert!(!samples.is_empty(), "expected at least one sample");
        assert!(samples.len() <= 4, "ring exceeded capacity: {}", samples.len());
        // Samples are ordered and counters never regress along the timeline.
        for pair in samples.windows(2) {
            assert!(pair[0].at < pair[1].at);
            assert!(
                pair[0].snapshot.counter(CounterId::TxCommitted)
                    <= pair[1].snapshot.counter(CounterId::TxCommitted)
            );
        }
        let last = samples.last().unwrap();
        assert!(last.snapshot.counter(CounterId::TxCommitted) > 0);
        assert!(last.snapshot.stage(Stage::Execute).count() > 0);
    }

    #[test]
    fn dropping_a_recorder_stops_its_thread() {
        let registry = Arc::new(MetricsRegistry::enabled());
        let recorder =
            FlightRecorder::start(registry, Duration::from_millis(1), 16);
        std::thread::sleep(Duration::from_millis(10));
        drop(recorder); // must not hang
    }
}
