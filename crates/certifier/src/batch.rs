//! Leader–follower epoch batching for certification.
//!
//! Callers submit their request to an [`EpochQueue`] and block until a
//! decision is available.  Whichever caller finds no leader becomes the
//! *epoch leader*: it drains everything queued so far (an *epoch*, in
//! arrival order), runs the shared processing closure over the whole epoch —
//! one lock acquisition, one log traversal, one grouped durable append — and
//! fills each request's outcome slot.  The leader then returns: if requests
//! arrived during its epoch, it hands leadership to the head of the queue,
//! whose submitter wakes to lead the next epoch itself.  A caller therefore
//! waits out at most the epoch in flight when it arrived and its own, never
//! the epochs of requests that queued behind it.
//!
//! Enqueueing and the leadership decision happen under **one** lock, and a
//! leader steps down only under that lock — releasing leadership if the
//! queue is empty, handing it to the queue head otherwise.  A follower
//! therefore enqueued while a leader existed, and leadership stays held
//! until the follower's request is drained: the follower's wait needs no
//! timeout, its wake-up is either its [`Slot::fill`] or leadership arriving.
//!
//! The queue imposes **arrival order within an epoch**, which is what keeps
//! batched certification decision-identical to the serial scan: processing
//! an epoch `[a, b, c]` with each decision visible to its successors is
//! indistinguishable from `a`, `b`, `c` arriving serially.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

/// What a waiting submitter woke up to.
enum Turn<O> {
    /// Its request was decided.
    Decided(O),
    /// Its request heads the queue and it leads the next epoch.
    Lead,
}

struct SlotState<O> {
    outcome: Option<O>,
    lead: bool,
}

/// One request's outcome cell.
pub struct Slot<O> {
    state: Mutex<SlotState<O>>,
    ready: Condvar,
}

impl<O> Slot<O> {
    pub(crate) fn new() -> Self {
        Slot {
            state: Mutex::new(SlotState {
                outcome: None,
                lead: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Delivers the outcome and wakes the submitting caller.
    pub fn fill(&self, outcome: O) {
        self.state.lock().outcome = Some(outcome);
        self.ready.notify_all();
    }

    /// Hands the submitting caller leadership of the next epoch.
    fn hand_lead(&self) {
        self.state.lock().lead = true;
        self.ready.notify_all();
    }

    /// Blocks until the outcome is delivered or leadership arrives.
    fn wait_turn(&self) -> Turn<O> {
        let mut state = self.state.lock();
        loop {
            if let Some(outcome) = state.outcome.take() {
                return Turn::Decided(outcome);
            }
            if std::mem::take(&mut state.lead) {
                return Turn::Lead;
            }
            self.ready.wait(&mut state);
        }
    }

    /// Blocks until the outcome is delivered, and takes it.
    pub(crate) fn wait(&self) -> O {
        match self.wait_turn() {
            Turn::Decided(outcome) => outcome,
            Turn::Lead => unreachable!("leadership is handed only to a queued slot"),
        }
    }
}

struct QueueState<R, O> {
    pending: VecDeque<(R, Arc<Slot<O>>)>,
    /// `true` while some submitter leads (or has been handed) an epoch.
    led: bool,
}

/// Ends a leader's epoch, also when `process` unwinds: leadership passes to
/// the head of the queue, or is released if nobody is waiting.  Either way
/// no queued request is left without a leader.
struct StepDown<'a, R, O>(&'a Mutex<QueueState<R, O>>);

impl<R, O> Drop for StepDown<'_, R, O> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        match state.pending.front() {
            Some((_, head)) => head.hand_lead(),
            None => state.led = false,
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
    /// fairness contract: a leader decides for its followers).  A leader's
    /// own request is in the epoch it drains — it was enqueued before
    /// leadership was decided, or heads the queue when leadership is handed
    /// to it — so its slot is filled by the time it steps down.
    pub fn submit(&self, request: R, process: impl Fn(Vec<(R, Arc<Slot<O>>)>)) -> O {
        let slot = Arc::new(Slot::new());
        let leads = {
            let mut state = self.state.lock();
            state.pending.push_back((request, Arc::clone(&slot)));
            !std::mem::replace(&mut state.led, true)
        };
        if !leads {
            match slot.wait_turn() {
                Turn::Decided(outcome) => return outcome,
                Turn::Lead => {}
            }
        }
        let epoch: Vec<(R, Arc<Slot<O>>)> = self.state.lock().pending.drain(..).collect();
        let leading = StepDown(&self.state);
        process(epoch);
        drop(leading);
        slot.wait()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
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

    /// How long a test waits for an outcome that a healthy run delivers at
    /// once; only a lost wake-up comes near it.  Followers run on detached
    /// threads and report over channels, so a lost wake-up fails the test
    /// instead of hanging it.
    const DEADLINE: Duration = Duration::from_secs(30);

    fn double(epoch: Vec<(u32, Arc<Slot<u32>>)>) {
        for (request, slot) in epoch {
            slot.fill(request * 2);
        }
    }

    /// Spins (no sleeps) until `len` requests wait in the queue.
    fn wait_until_queued<R, O>(queue: &EpochQueue<R, O>, len: usize) {
        while queue.state.lock().pending.len() != len {
            std::thread::yield_now();
        }
    }

    /// A follower queued behind a panicking epoch is handed leadership like
    /// any other: it gets its outcome without some unrelated submitter
    /// having to arrive.
    #[test]
    fn a_leader_whose_epoch_panics_steps_down() {
        let queue: Arc<EpochQueue<u32, u32>> = Arc::new(EpochQueue::new());
        // Met twice inside the leader's epoch: once it has started, and
        // when the test lets it panic.
        let gate = Arc::new(Barrier::new(2));
        let leader = {
            let (queue, gate) = (Arc::clone(&queue), Arc::clone(&gate));
            std::thread::spawn(move || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    queue.submit(1, |_| {
                        gate.wait();
                        gate.wait();
                        panic!("processing failed")
                    })
                }))
                .is_err()
            })
        };
        gate.wait();
        let (decided, outcome) = std::sync::mpsc::channel();
        {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || decided.send(queue.submit(2, double)));
        }
        wait_until_queued(&queue, 1);
        gate.wait();
        assert!(leader.join().unwrap(), "the leader's submit unwinds");
        assert_eq!(
            outcome.recv_timeout(DEADLINE),
            Ok(4),
            "the request queued behind the panicking epoch was never decided"
        );
        // The queue is idle again: the next submitter leads its own epoch.
        assert_eq!(queue.submit(3, double), 6);
    }

    /// A leader decides its own epoch and returns; the request that queued
    /// during that epoch is decided by its own submitter, which the leader
    /// handed leadership to.
    #[test]
    fn a_leader_returns_after_its_own_epoch_and_hands_off() {
        struct Rig {
            queue: EpochQueue<u32, u32>,
            /// Met twice inside the first epoch: once it has started, and
            /// when the test lets it finish.
            first: Barrier,
            /// The test's go-ahead for every later epoch.
            release: Mutex<std::sync::mpsc::Receiver<()>>,
            /// The thread that ran each epoch, in order.
            led_by: Mutex<Vec<std::thread::ThreadId>>,
        }
        impl Rig {
            fn submit(&self, request: u32) -> u32 {
                self.queue.submit(request, |epoch| {
                    let mut led_by = self.led_by.lock();
                    led_by.push(std::thread::current().id());
                    let first = led_by.len() == 1;
                    drop(led_by);
                    if first {
                        self.first.wait();
                        self.first.wait();
                    } else {
                        self.release
                            .lock()
                            .recv()
                            .expect("the test is still running");
                    }
                    double(epoch);
                })
            }
        }
        let (go_ahead, release) = std::sync::mpsc::channel();
        let rig = Arc::new(Rig {
            queue: EpochQueue::new(),
            first: Barrier::new(2),
            release: Mutex::new(release),
            led_by: Mutex::new(Vec::new()),
        });
        let spawn = |request: u32| {
            let rig = Arc::clone(&rig);
            let (decided, outcome) = std::sync::mpsc::channel();
            let id = std::thread::spawn(move || decided.send(rig.submit(request)))
                .thread()
                .id();
            (id, outcome)
        };
        let (leader, leader_outcome) = spawn(1);
        rig.first.wait();
        let (follower, follower_outcome) = spawn(2);
        wait_until_queued(&rig.queue, 1);
        rig.first.wait();
        // The follower's epoch cannot finish before the go-ahead below, so
        // the leader's outcome arriving first proves it did not run it.
        let leader_out = leader_outcome.recv_timeout(DEADLINE);
        go_ahead.send(()).expect("the rig holds the receiver");
        assert_eq!(
            leader_out,
            Ok(2),
            "the leader waited out the follower's epoch"
        );
        assert_eq!(
            follower_outcome.recv_timeout(DEADLINE),
            Ok(4),
            "the follower was never handed leadership"
        );
        assert_eq!(*rig.led_by.lock(), [leader, follower]);
    }
}
