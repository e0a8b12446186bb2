//! Leader–follower epoch batching for certification.
//!
//! Callers submit their request to an [`EpochQueue`] and block until a
//! decision is available.  Whichever caller finds no leader becomes the
//! *epoch leader*: it drains everything queued so far (an *epoch*, in
//! arrival order), runs the shared processing closure over the whole epoch —
//! one lock acquisition, one log traversal, one grouped durable append — and
//! fills each request's outcome slot.  The leader keeps draining until the
//! queue is empty, so every queued request is decided by some epoch;
//! followers wake when their slot fills.
//!
//! Enqueueing and the leadership decision happen under **one** lock, and a
//! leader steps down only under that lock with the queue empty.  A follower
//! therefore enqueued while a leader existed, and that leader cannot quit
//! before draining it: the follower's wait needs no timeout, its wake-up is
//! the leader's [`Slot::fill`].
//!
//! The queue imposes **arrival order within an epoch**, which is what keeps
//! batched certification decision-identical to the serial scan: processing
//! an epoch `[a, b, c]` with each decision visible to its successors is
//! indistinguishable from `a`, `b`, `c` arriving serially.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

/// One request's outcome cell.
pub struct Slot<O> {
    outcome: Mutex<Option<O>>,
    ready: Condvar,
}

impl<O> Slot<O> {
    pub(crate) fn new() -> Self {
        Slot {
            outcome: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    /// Delivers the outcome and wakes the submitting caller.
    pub fn fill(&self, outcome: O) {
        *self.outcome.lock() = Some(outcome);
        self.ready.notify_all();
    }

    /// Blocks until the outcome is delivered, and takes it.
    pub(crate) fn wait(&self) -> O {
        let mut guard = self.outcome.lock();
        loop {
            if let Some(outcome) = guard.take() {
                return outcome;
            }
            self.ready.wait(&mut guard);
        }
    }
}

struct QueueState<R, O> {
    pending: VecDeque<(R, Arc<Slot<O>>)>,
    /// `true` while some submitter is draining epochs.
    led: bool,
}

/// Gives up leadership if the epoch it guards unwinds, so that a panicking
/// `process` does not leave later submitters waiting on a leader that is gone.
/// (A leader that finishes steps down itself, under the lock that found the
/// queue empty.)
struct StepDownOnUnwind<'a, R, O>(&'a Mutex<QueueState<R, O>>);

impl<R, O> Drop for StepDownOnUnwind<'_, R, O> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().led = false;
        }
    }
}

/// A queue of pending requests drained in epochs by an elected leader.
pub struct EpochQueue<R, O> {
    state: Mutex<QueueState<R, O>>,
}

impl<R, O> Default for EpochQueue<R, O> {
    fn default() -> Self {
        EpochQueue::new()
    }
}

impl<R, O> EpochQueue<R, O> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EpochQueue {
            state: Mutex::new(QueueState {
                pending: VecDeque::new(),
                led: false,
            }),
        }
    }

    /// Submits one request and blocks until its outcome is decided.
    ///
    /// `process` runs on whichever submitting thread holds leadership, once
    /// per drained epoch, and must fill **every** slot it is handed (the
    /// fairness contract: a leader decides for its followers).  Because the
    /// submitting slot is enqueued *before* leadership is decided, the
    /// drain-until-empty loop guarantees it is filled by the time leadership
    /// is released.
    pub fn submit(&self, request: R, process: impl Fn(Vec<(R, Arc<Slot<O>>)>)) -> O {
        let slot = Arc::new(Slot::new());
        let mut state = self.state.lock();
        state.pending.push_back((request, Arc::clone(&slot)));
        if !state.led {
            state.led = true;
            loop {
                let epoch: Vec<(R, Arc<Slot<O>>)> = state.pending.drain(..).collect();
                if epoch.is_empty() {
                    state.led = false;
                    break;
                }
                drop(state);
                let leading = StepDownOnUnwind(&self.state);
                process(epoch);
                drop(leading);
                state = self.state.lock();
            }
        }
        drop(state);
        slot.wait()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    use super::*;

    #[test]
    fn single_submitter_leads_its_own_epoch() {
        let queue: EpochQueue<u32, u32> = EpochQueue::new();
        let epochs = AtomicUsize::new(0);
        let out = queue.submit(7, |epoch| {
            epochs.fetch_add(1, Ordering::SeqCst);
            assert_eq!(epoch.len(), 1);
            for (request, slot) in epoch {
                slot.fill(request * 2);
            }
        });
        assert_eq!(out, 14);
        assert_eq!(epochs.load(Ordering::SeqCst), 1);
    }

    /// Followers wait untimed, so a lost wake-up would hang a submitter
    /// forever: each reports in over a channel and the test counts the ones
    /// that did not within a deadline no healthy run comes near.
    #[test]
    fn concurrent_submitters_all_get_their_own_outcome_and_none_waits_in_vain() {
        let queue: Arc<EpochQueue<u64, u64>> = Arc::new(EpochQueue::new());
        let max_epoch = Arc::new(AtomicUsize::new(0));
        let (finished, reports) = std::sync::mpsc::channel();
        for worker in 0..8u64 {
            let queue = Arc::clone(&queue);
            let max_epoch = Arc::clone(&max_epoch);
            let finished = finished.clone();
            std::thread::spawn(move || {
                for i in 0..200u64 {
                    let request = worker * 1000 + i;
                    let out = queue.submit(request, |epoch| {
                        max_epoch.fetch_max(epoch.len(), Ordering::SeqCst);
                        for (r, slot) in epoch {
                            slot.fill(r + 1);
                        }
                    });
                    assert_eq!(out, request + 1, "outcomes must not cross requests");
                }
                finished.send(worker).expect("the test is still listening");
            });
        }
        let timed_out = (0..8)
            .filter(|_| reports.recv_timeout(Duration::from_secs(60)).is_err())
            .count();
        assert_eq!(timed_out, 0, "submitters stuck waiting for an outcome");
        // Under contention at least one epoch should have batched more than
        // one request (not asserted strictly — scheduling-dependent — but
        // recorded so a degenerate run is visible in test output).
        eprintln!("max epoch size: {}", max_epoch.load(Ordering::SeqCst));
    }

    #[test]
    fn a_leader_whose_epoch_panics_steps_down() {
        let queue: EpochQueue<u32, u32> = EpochQueue::new();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            queue.submit(1, |_| panic!("processing failed"))
        }));
        assert!(panicked.is_err());
        // The next submitter finds no leader and leads its own epoch.
        let out = queue.submit(2, |epoch| {
            for (request, slot) in epoch {
                slot.fill(request * 2);
            }
        });
        assert_eq!(out, 4);
    }

    /// A follower neither polls nor leads: a request enqueued while the
    /// leader is inside an epoch is drained by that leader before it can
    /// step down.
    #[test]
    fn a_request_enqueued_during_the_leaders_last_epoch_is_decided_by_it() {
        let queue: EpochQueue<u32, u32> = EpochQueue::new();
        // Met twice: when the leader is inside its first epoch, and when the
        // test lets it finish that epoch.
        let gate = std::sync::Barrier::new(2);
        let epochs = AtomicUsize::new(0);
        let process = |epoch: Vec<(u32, Arc<Slot<u32>>)>| {
            if epochs.fetch_add(1, Ordering::SeqCst) == 0 {
                gate.wait();
                gate.wait();
            }
            for (request, slot) in epoch {
                slot.fill(request * 2);
            }
        };
        std::thread::scope(|scope| {
            let leader = scope.spawn(|| queue.submit(1, process));
            gate.wait();
            let follower = scope.spawn(|| queue.submit(2, process));
            while queue.state.lock().pending.is_empty() {
                std::thread::yield_now();
            }
            gate.wait();
            assert_eq!(leader.join().unwrap(), 2);
            assert_eq!(follower.join().unwrap(), 4);
        });
        assert_eq!(
            epochs.load(Ordering::SeqCst),
            2,
            "the leader ran both epochs"
        );
    }
}
