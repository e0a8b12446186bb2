//! Row-level write locks, blocking waits and deadlock handling.
//!
//! PostgreSQL — and therefore this engine — acquires a write lock on a row
//! *eagerly*, at the moment an update transaction first writes the row,
//! rather than checking for write-write conflicts only at commit time
//! (Section 8.2 of the paper).  The first writer proceeds; competitors block.
//! If the lock holder commits, every blocked competitor is aborted with a
//! write-write conflict (first-committer-wins); if the holder aborts, one
//! competitor is granted the lock and may proceed.
//!
//! Because writers block, deadlocks are possible, both between two local
//! update transactions (the traditional scenario) and between a local update
//! transaction and a remote writeset being applied by the proxy (the
//! replicated scenario of Section 8.2).  The lock manager detects deadlocks
//! by following the wait-for chain whenever a transaction is about to block
//! and aborts the requester that would close the cycle.
//!
//! The engine's remote-priority rule (Section 8.2) avoids most of these
//! deadlocks: a remote writeset that meets a local holder wounds it with
//! [`LockManager::wound`] instead of blocking.

use std::collections::{HashMap, HashSet, VecDeque};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use tashkent_common::{Error, Result, RowKey, TableId, TxId};

/// Default bound on one blocking lock wait (see [`LockManager::with_max_wait`]).
pub const DEFAULT_LOCK_WAIT: Duration = Duration::from_secs(1);

/// A lockable resource: one row of one table.
pub type Resource = (TableId, RowKey);

#[derive(Debug)]
struct LockEntry {
    holder: TxId,
    queue: VecDeque<TxId>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WaitDecision {
    /// The lock was transferred to the waiter.
    Granted,
    /// The previous holder committed: the waiter has a write-write conflict.
    Conflict,
}

#[derive(Debug, Default)]
struct LockState {
    locks: HashMap<Resource, LockEntry>,
    /// waiter → transaction it is waiting for (each transaction waits on at
    /// most one lock at a time, so a single edge per waiter suffices).
    waits_for: HashMap<TxId, TxId>,
    /// Decisions published by `release_all` / `wound` for waiting
    /// transactions, consumed inside the `acquire` loop.
    decisions: HashMap<TxId, WaitDecision>,
    /// Transactions that have been wounded (forced to abort) by the
    /// middleware to let a higher-priority remote writeset proceed.
    wounded: HashSet<TxId>,
}

/// The lock manager of one database engine.
#[derive(Debug)]
pub struct LockManager {
    state: Mutex<LockState>,
    changed: Condvar,
    max_wait: Duration,
}

impl Default for LockManager {
    fn default() -> Self {
        LockManager::with_max_wait(DEFAULT_LOCK_WAIT)
    }
}

impl LockManager {
    /// Creates an empty lock manager with the default wait bound.
    #[must_use]
    pub fn new() -> Self {
        LockManager::default()
    }

    /// Creates an empty lock manager whose blocking [`LockManager::acquire`]
    /// gives up after `max_wait`, reporting the requester as a presumed
    /// deadlock victim.
    ///
    /// The wait-for graph only tracks engine-local lock waits, so cycles that
    /// pass through other components (the ordered commit announce order, a
    /// thread join in the Tashkent-API pipeline) are invisible to cycle
    /// detection.  The bound converts any such stall
    /// into a retryable abort instead of a permanent hang — the same
    /// fallback real databases employ (cf. PostgreSQL's `deadlock_timeout`).
    #[must_use]
    pub fn with_max_wait(max_wait: Duration) -> Self {
        LockManager {
            state: Mutex::new(LockState::default()),
            changed: Condvar::new(),
            max_wait,
        }
    }

    /// Acquires the write lock on `resource` for `tx`, blocking until the
    /// lock is available.
    ///
    /// # Errors
    ///
    /// * [`Error::WriteConflict`] — the current holder committed while `tx`
    ///   was waiting (first-committer-wins), or `tx` has been
    ///   [wounded](LockManager::wound) by the middleware.
    /// * [`Error::Deadlock`] — blocking would close a wait-for cycle (`tx` is
    ///   chosen as the victim), or the wait exceeded the manager's bound and
    ///   `tx` is presumed to be part of a cycle the engine-local wait-for
    ///   graph cannot see.
    pub fn acquire(&self, tx: TxId, resource: &Resource) -> Result<()> {
        // Established lazily on first block: acquiring a free lock — the hot
        // path, taken once per written row — must not pay for a clock read.
        let mut deadline = None;
        let mut state = self.state.lock();
        let mut enqueued = false;
        loop {
            if state.wounded.contains(&tx) {
                self.cancel_wait(&mut state, tx, resource, enqueued);
                return Err(Error::WriteConflict {
                    tx,
                    detail: "transaction wounded by replication middleware".into(),
                });
            }
            // A decision may have been published while we were waiting.
            if let Some(decision) = state.decisions.remove(&tx) {
                state.waits_for.remove(&tx);
                match decision {
                    WaitDecision::Granted => return Ok(()),
                    WaitDecision::Conflict => {
                        return Err(Error::WriteConflict {
                            tx,
                            detail: format!(
                                "row {}/{} modified by a transaction that committed first",
                                resource.0, resource.1
                            ),
                        })
                    }
                }
            }
            match state.locks.get_mut(resource) {
                None => {
                    state.locks.insert(
                        resource.clone(),
                        LockEntry {
                            holder: tx,
                            queue: VecDeque::new(),
                        },
                    );
                    return Ok(());
                }
                Some(entry) if entry.holder == tx => return Ok(()),
                Some(entry) => {
                    if !enqueued {
                        // About to block: check that doing so would not close
                        // a wait-for cycle.
                        let holder = entry.holder;
                        if self.creates_cycle(&state, tx, holder) {
                            return Err(Error::Deadlock { tx });
                        }
                        let holder = {
                            let entry = state
                                .locks
                                .get_mut(resource)
                                .expect("entry existed moments ago");
                            entry.queue.push_back(tx);
                            entry.holder
                        };
                        state.waits_for.insert(tx, holder);
                        enqueued = true;
                    }
                }
            }
            let current_deadline =
                *deadline.get_or_insert_with(|| Instant::now() + self.max_wait);
            let timeout = current_deadline.saturating_duration_since(Instant::now());
            if timeout.is_zero() {
                // The wait bound elapsed and the loop above found neither a
                // published decision nor a free lock: give up as a presumed
                // deadlock victim (retryable by the client).  The abort is
                // deliberately unconditional — a holder-turnover heuristic
                // ("the queue is moving, keep waiting") reintroduces
                // cluster-wide stalls here, because cross-component cycles
                // (row lock ↔ ordered-announce chain) keep adjacent hot-row
                // queues churning while the cycle itself never resolves.
                self.cancel_wait(&mut state, tx, resource, enqueued);
                return Err(Error::Deadlock { tx });
            }
            self.changed.wait_for(&mut state, timeout);
        }
    }

    /// Attempts to acquire without blocking.
    ///
    /// Returns `Ok(true)` if the lock was acquired (or already held),
    /// `Ok(false)` if another transaction holds it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::WriteConflict`] if `tx` has been wounded.
    pub fn try_acquire(&self, tx: TxId, resource: &Resource) -> Result<bool> {
        let mut state = self.state.lock();
        if state.wounded.contains(&tx) {
            return Err(Error::WriteConflict {
                tx,
                detail: "transaction wounded by replication middleware".into(),
            });
        }
        match state.locks.get(resource) {
            None => {
                state.locks.insert(
                    resource.clone(),
                    LockEntry {
                        holder: tx,
                        queue: VecDeque::new(),
                    },
                );
                Ok(true)
            }
            Some(entry) if entry.holder == tx => Ok(true),
            Some(_) => Ok(false),
        }
    }

    /// Returns the holder of `resource`, if locked.
    #[must_use]
    pub fn holder(&self, resource: &Resource) -> Option<TxId> {
        self.state.lock().locks.get(resource).map(|e| e.holder)
    }

    /// Releases every lock held by `tx`.
    ///
    /// `committed` selects what happens to competitors that were blocked on
    /// those locks: if the holder committed they are aborted with a
    /// write-write conflict; if it aborted, the first waiter inherits the
    /// lock.
    pub fn release_all(&self, tx: TxId, committed: bool) {
        let mut state = self.state.lock();
        state.wounded.remove(&tx);
        state.waits_for.remove(&tx);
        let resources: Vec<Resource> = state
            .locks
            .iter()
            .filter(|(_, e)| e.holder == tx)
            .map(|(r, _)| r.clone())
            .collect();
        for resource in resources {
            let Some(mut entry) = state.locks.remove(&resource) else {
                continue;
            };
            if committed {
                // First committer wins: everybody queued behind us loses.
                for waiter in entry.queue {
                    state.decisions.insert(waiter, WaitDecision::Conflict);
                    state.waits_for.remove(&waiter);
                }
            } else if let Some(next) = entry.queue.pop_front() {
                state.decisions.insert(next, WaitDecision::Granted);
                state.waits_for.remove(&next);
                // Remaining waiters now wait on the new holder.
                for waiter in &entry.queue {
                    state.waits_for.insert(*waiter, next);
                }
                state.locks.insert(
                    resource,
                    LockEntry {
                        holder: next,
                        queue: entry.queue,
                    },
                );
            }
        }
        self.changed.notify_all();
    }

    /// Marks `tx` as wounded: its next (or current) lock wait fails with a
    /// write-write conflict, so that a remote writeset can proceed past it
    /// (Section 8.2).
    pub fn wound(&self, tx: TxId) {
        let mut state = self.state.lock();
        state.wounded.insert(tx);
        self.changed.notify_all();
    }

    /// `true` if `tx` has been wounded and must abort.
    #[must_use]
    pub fn is_wounded(&self, tx: TxId) -> bool {
        self.state.lock().wounded.contains(&tx)
    }

    /// Number of currently held locks (diagnostics / tests).
    #[must_use]
    pub fn held_locks(&self) -> usize {
        self.state.lock().locks.len()
    }

    /// `true` if any transaction is currently blocked waiting for a lock.
    #[must_use]
    pub fn has_waiters(&self) -> bool {
        !self.state.lock().waits_for.is_empty()
    }

    fn creates_cycle(&self, state: &LockState, requester: TxId, holder: TxId) -> bool {
        // Follow the wait-for chain starting at the holder; if it leads back
        // to the requester, blocking would create a cycle.
        let mut current = holder;
        let mut hops = 0;
        while let Some(&next) = state.waits_for.get(&current) {
            if next == requester {
                return true;
            }
            current = next;
            hops += 1;
            if hops > state.waits_for.len() {
                // Defensive: the chain should never be longer than the map.
                return false;
            }
        }
        false
    }

    fn cancel_wait(
        &self,
        state: &mut LockState,
        tx: TxId,
        resource: &Resource,
        enqueued: bool,
    ) {
        state.decisions.remove(&tx);
        state.waits_for.remove(&tx);
        if enqueued {
            if let Some(entry) = state.locks.get_mut(resource) {
                entry.queue.retain(|w| *w != tx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    use super::*;

    fn res(key: i64) -> Resource {
        (TableId(0), RowKey::Int(key))
    }

    #[test]
    fn first_writer_gets_the_lock() {
        let lm = LockManager::new();
        lm.acquire(TxId(1), &res(1)).unwrap();
        assert_eq!(lm.holder(&res(1)), Some(TxId(1)));
        // Re-acquiring a held lock is a no-op.
        lm.acquire(TxId(1), &res(1)).unwrap();
        assert!(lm.try_acquire(TxId(1), &res(1)).unwrap());
        assert!(!lm.try_acquire(TxId(2), &res(1)).unwrap());
        assert_eq!(lm.held_locks(), 1);
    }

    #[test]
    fn waiter_conflicts_when_holder_commits() {
        let lm = Arc::new(LockManager::new());
        lm.acquire(TxId(1), &res(1)).unwrap();
        let lm2 = Arc::clone(&lm);
        let waiter = thread::spawn(move || lm2.acquire(TxId(2), &res(1)));
        // Give the waiter a moment to block.
        thread::sleep(Duration::from_millis(20));
        assert!(lm.has_waiters());
        lm.release_all(TxId(1), true);
        let result = waiter.join().unwrap();
        assert!(matches!(result, Err(Error::WriteConflict { .. })));
        assert_eq!(lm.held_locks(), 0);
    }

    #[test]
    fn waiter_inherits_lock_when_holder_aborts() {
        let lm = Arc::new(LockManager::new());
        lm.acquire(TxId(1), &res(1)).unwrap();
        let lm2 = Arc::clone(&lm);
        let waiter = thread::spawn(move || lm2.acquire(TxId(2), &res(1)));
        thread::sleep(Duration::from_millis(20));
        lm.release_all(TxId(1), false);
        waiter.join().unwrap().unwrap();
        assert_eq!(lm.holder(&res(1)), Some(TxId(2)));
    }

    #[test]
    fn deadlock_is_detected_and_requester_aborted() {
        let lm = Arc::new(LockManager::new());
        lm.acquire(TxId(1), &res(1)).unwrap();
        lm.acquire(TxId(2), &res(2)).unwrap();
        // T2 blocks on resource 1 (held by T1).
        let lm2 = Arc::clone(&lm);
        let blocked = thread::spawn(move || lm2.acquire(TxId(2), &res(1)));
        thread::sleep(Duration::from_millis(20));
        // T1 now requests resource 2 (held by T2): cycle → T1 is the victim.
        let result = lm.acquire(TxId(1), &res(2));
        assert!(matches!(result, Err(Error::Deadlock { tx: TxId(1) })));
        // Resolving the deadlock: T1 aborts, releasing resource 1 to T2.
        lm.release_all(TxId(1), false);
        blocked.join().unwrap().unwrap();
        assert_eq!(lm.holder(&res(1)), Some(TxId(2)));
    }

    #[test]
    fn blocked_acquire_times_out_as_presumed_deadlock() {
        // Cycles that pass through non-lock resources (mutexes, thread
        // joins, the ordered announce order) are invisible to the wait-for
        // graph; the wait bound must convert them into retryable aborts.
        let lm = LockManager::with_max_wait(Duration::from_millis(50));
        lm.acquire(TxId(1), &res(1)).unwrap();
        let start = std::time::Instant::now();
        let result = lm.acquire(TxId(2), &res(1));
        assert!(matches!(result, Err(Error::Deadlock { tx: TxId(2) })));
        assert!(start.elapsed() >= Duration::from_millis(50));
        // The timed-out waiter left the queue: when the holder later aborts,
        // nobody inherits the lock.
        lm.release_all(TxId(1), false);
        assert_eq!(lm.held_locks(), 0);
        assert!(!lm.has_waiters());
    }

    #[test]
    fn wounded_transaction_fails_to_acquire() {
        let lm = LockManager::new();
        lm.wound(TxId(7));
        assert!(lm.is_wounded(TxId(7)));
        assert!(matches!(
            lm.acquire(TxId(7), &res(1)),
            Err(Error::WriteConflict { .. })
        ));
        assert!(lm.try_acquire(TxId(7), &res(1)).is_err());
        // Releasing (the abort path) clears the wounded flag.
        lm.release_all(TxId(7), false);
        assert!(!lm.is_wounded(TxId(7)));
        assert!(lm.acquire(TxId(7), &res(1)).is_ok());
    }

    #[test]
    fn wound_wakes_a_blocked_waiter() {
        let lm = Arc::new(LockManager::new());
        lm.acquire(TxId(1), &res(1)).unwrap();
        let lm2 = Arc::clone(&lm);
        let waiter = thread::spawn(move || lm2.acquire(TxId(2), &res(1)));
        thread::sleep(Duration::from_millis(20));
        lm.wound(TxId(2));
        let result = waiter.join().unwrap();
        assert!(matches!(result, Err(Error::WriteConflict { .. })));
        // The queue entry of the cancelled waiter must have been cleaned up:
        // when T1 aborts, nobody inherits the lock.
        lm.release_all(TxId(1), false);
        assert_eq!(lm.held_locks(), 0);
    }

    #[test]
    fn queued_waiters_transfer_to_new_holder() {
        let lm = Arc::new(LockManager::new());
        lm.acquire(TxId(1), &res(1)).unwrap();
        let mut handles = Vec::new();
        for tx in [2u64, 3] {
            let lm2 = Arc::clone(&lm);
            handles.push(thread::spawn(move || lm2.acquire(TxId(tx), &res(1))));
            thread::sleep(Duration::from_millis(10));
        }
        // Holder aborts: first waiter (T2) inherits, T3 keeps waiting on T2.
        lm.release_all(TxId(1), false);
        thread::sleep(Duration::from_millis(20));
        assert_eq!(lm.holder(&res(1)), Some(TxId(2)));
        assert!(lm.has_waiters());
        // T2 commits: T3 must get a conflict.
        lm.release_all(TxId(2), true);
        let mut results: Vec<Result<()>> = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect();
        let t3 = results.pop().unwrap();
        let t2 = results.pop().unwrap();
        assert!(t2.is_ok());
        assert!(matches!(t3, Err(Error::WriteConflict { .. })));
    }
}
