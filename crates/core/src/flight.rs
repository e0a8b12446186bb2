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
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use tashkent_common::{MetricsRegistry, MetricsSnapshot};

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

struct RecorderShared {
    samples: Mutex<VecDeque<FlightSample>>,
    stop: AtomicBool,
}

/// A background sampler turning a [`MetricsRegistry`] into a bounded
/// timeline of [`FlightSample`]s.
///
/// Dropping the recorder stops and joins the sampling thread.
pub struct FlightRecorder {
    shared: Arc<RecorderShared>,
    handle: Option<thread::JoinHandle<()>>,
    capacity: usize,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("samples", &self.shared.samples.lock().len())
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
        let shared = Arc::new(RecorderShared {
            samples: Mutex::new(VecDeque::with_capacity(capacity)),
            stop: AtomicBool::new(false),
        });
        let thread_shared = Arc::clone(&shared);
        let handle = thread::Builder::new()
            .name("flight-recorder".into())
            .spawn(move || {
                let started = Instant::now();
                // Wake at least every 10 ms so stop() never waits out a long
                // sampling interval.
                let tick = interval.min(Duration::from_millis(10)).max(Duration::from_millis(1));
                let mut next_sample = started + interval;
                while !thread_shared.stop.load(Ordering::Relaxed) {
                    thread::sleep(tick);
                    if Instant::now() < next_sample {
                        continue;
                    }
                    next_sample += interval;
                    let sample = FlightSample {
                        at: started.elapsed(),
                        snapshot: registry.snapshot(),
                    };
                    let mut samples = thread_shared.samples.lock();
                    if samples.len() == capacity {
                        samples.pop_front();
                    }
                    samples.push_back(sample);
                }
            })
            .expect("spawning the flight-recorder thread");
        FlightRecorder {
            shared,
            handle: Some(handle),
            capacity,
        }
    }

    /// The timeline recorded so far, oldest first.
    #[must_use]
    pub fn samples(&self) -> Vec<FlightSample> {
        self.shared.samples.lock().iter().cloned().collect()
    }

    /// Stops the sampling thread and returns the recorded timeline.
    #[must_use]
    pub fn stop(mut self) -> Vec<FlightSample> {
        self.stop_thread();
        self.shared.samples.lock().drain(..).collect()
    }

    fn stop_thread(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for FlightRecorder {
    fn drop(&mut self) {
        self.stop_thread();
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
