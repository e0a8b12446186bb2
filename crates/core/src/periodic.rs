//! One background thread that runs a task on a fixed interval.
//!
//! The flight recorder, the anomaly watchdog and the trimmer all tick on
//! an interval and must stop promptly.  The thread parks on a condvar
//! until its next deadline; [`Periodic::stop`] notifies it, so stopping
//! never waits out an interval and the thread never wakes between ticks.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

/// A named thread calling its task every `interval` until stopped.
///
/// Dropping it stops and joins the thread.
pub(crate) struct Periodic {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<thread::JoinHandle<()>>,
}

impl Periodic {
    /// Starts a thread named `name` that calls `task` one `interval` (at
    /// least 1 ms) after start and again one `interval` after each call
    /// returns, so a slow task never runs back to back.
    pub(crate) fn start(
        name: &str,
        interval: Duration,
        mut task: impl FnMut() + Send + 'static,
    ) -> Self {
        let interval = interval.max(Duration::from_millis(1));
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let thread_stop = Arc::clone(&stop);
        let handle = thread::Builder::new()
            .name(name.into())
            .spawn(move || {
                let (stopped, wake) = &*thread_stop;
                loop {
                    let next = Instant::now() + interval;
                    let mut guard = stopped.lock();
                    loop {
                        if *guard {
                            return;
                        }
                        let left = next.saturating_duration_since(Instant::now());
                        if left.is_zero() {
                            break;
                        }
                        wake.wait_for(&mut guard, left);
                    }
                    drop(guard);
                    task();
                }
            })
            .unwrap_or_else(|e| panic!("spawning the {name} thread: {e}"));
        Periodic {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the thread and joins it; a tick in progress finishes first.
    pub(crate) fn stop(&mut self) {
        let (stopped, wake) = &*self.stop;
        *stopped.lock() = true;
        wake.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Periodic {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    use super::*;

    #[test]
    fn ticks_on_the_interval_and_stops_without_waiting_one_out() {
        let ticks = Arc::new(AtomicU64::new(0));
        let counted = Arc::clone(&ticks);
        let mut periodic = Periodic::start("periodic-test", Duration::from_millis(2), move || {
            counted.fetch_add(1, Ordering::Relaxed);
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while ticks.load(Ordering::Relaxed) < 3 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
        periodic.stop();
        assert!(ticks.load(Ordering::Relaxed) >= 3);

        // A one-hour interval: stop() notifies the parked thread.
        let started = Instant::now();
        drop(Periodic::start(
            "periodic-test",
            Duration::from_secs(3600),
            || {},
        ));
        assert!(started.elapsed() < Duration::from_secs(5));
    }
}
