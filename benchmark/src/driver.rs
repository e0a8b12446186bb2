//! Closed-loop clients, measurement windows and the correctness gate.
//!
//! Load is closed-loop — each client is a caller of the synchronous commit
//! API and issues its next transaction only after the previous one
//! returned — with one client thread per replica.  A run is a warm-up
//! followed by equal windows; every transaction attempt is recorded with
//! the instants it began and ended, and assigned to a window by the instant
//! its `commit()` returned.

use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use crate::assemble::{Assembly, Field, Key, Session, Table, TxError, Txn};
use crate::trace::{CertifyLog, Clock, Outcome, TxRecord};
use crate::workload::{
    InputStream, Rng, Schema, TxInput, WorkloadSpec, ACCOUNTS_PER_BRANCH, BRANCHES,
    COUNTER_ROWS_PER_CLIENT, TELLERS_PER_BRANCH,
};

/// How one system's run is cut up.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub warmup: Duration,
    pub windows: usize,
    pub window: Duration,
}

/// The loaded tables of a schema.
#[derive(Debug, Clone, Copy)]
pub enum Tables {
    Bank {
        branches: Table,
        tellers: Table,
        accounts: Table,
        history: Table,
    },
    Counters {
        updates: Table,
    },
}

/// Creates the schema's tables on every replica and bulk-loads the initial
/// rows (all balances zero).
pub fn load(assembly: &Assembly, schema: Schema) -> Tables {
    match schema {
        Schema::Bank => {
            let branches = assembly.create_table("branches", &["balance"]);
            let tellers = assembly.create_table("tellers", &["branch", "balance"]);
            let accounts = assembly.create_table("accounts", &["branch", "balance"]);
            let history = assembly.create_table("history", &["account", "delta"]);
            let branch_rows: Vec<_> = (0..BRANCHES).map(|b| (b, vec![("balance", 0)])).collect();
            let owned_rows = |per_branch: i64| -> Vec<_> {
                (0..BRANCHES * per_branch)
                    .map(|k| (k, vec![("branch", k / per_branch), ("balance", 0)]))
                    .collect()
            };
            assembly.bulk_load(branches, &branch_rows);
            assembly.bulk_load(tellers, &owned_rows(TELLERS_PER_BRANCH));
            assembly.bulk_load(accounts, &owned_rows(ACCOUNTS_PER_BRANCH));
            Tables::Bank {
                branches,
                tellers,
                accounts,
                history,
            }
        }
        Schema::Counters => {
            let updates = assembly.create_table("updates", &["counter", "payload"]);
            let rows: Vec<_> = (0..assembly.replicas() as i64 * COUNTER_ROWS_PER_CLIENT)
                .map(|k| (k, vec![("counter", 0)]))
                .collect();
            assembly.bulk_load(updates, &rows);
            Tables::Counters { updates }
        }
    }
}

const PAYLOAD: [u8; 32] = [0xAB; 32];

/// Issues one transaction's statements.  A missing row is a wrong answer,
/// not a conflict.
fn statements(tx: &Txn, tables: &Tables, input: &TxInput) -> Result<(), TxError> {
    let balance_of = |table: Table, key: i64| -> Result<i64, TxError> {
        tx.read_int(table, key, "balance")?
            .ok_or_else(|| TxError::Fatal(format!("row {key} has no balance")))
    };
    match (input, tables) {
        (
            TxInput::Transfer {
                branch,
                teller,
                account,
                delta,
                history_key,
            },
            Tables::Bank {
                branches,
                tellers,
                accounts,
                history,
            },
        ) => {
            for (table, key) in [
                (*accounts, *account),
                (*tellers, *teller),
                (*branches, *branch),
            ] {
                let balance = balance_of(table, key)?;
                tx.update(table, key, &[("balance", Field::Int(balance + delta))])?;
            }
            tx.insert(
                *history,
                Key::Pair(history_key.0, history_key.1),
                &[
                    ("account", Field::Int(*account)),
                    ("delta", Field::Int(*delta)),
                ],
            )
        }
        (TxInput::Lookup { accounts: keys }, Tables::Bank { accounts, .. }) => {
            for key in keys {
                balance_of(*accounts, *key)?;
            }
            Ok(())
        }
        (TxInput::Bump { key }, Tables::Counters { updates }) => {
            let counter = tx.read_int(*updates, *key, "counter")?.unwrap_or(0);
            tx.insert(
                *updates,
                Key::Int(*key),
                &[
                    ("counter", Field::Int(counter + 1)),
                    ("payload", Field::Bytes(&PAYLOAD)),
                ],
            )
        }
        _ => Err(TxError::Fatal(
            "input does not fit the loaded schema".into(),
        )),
    }
}

/// What one client thread brings back.
#[derive(Debug, Default)]
pub struct ClientOutput {
    pub records: Vec<TxRecord>,
    /// Σ delta over this client's committed transfers.
    pub committed_delta: i64,
    /// The non-retryable error that stopped this client, if any.
    pub fatal: Option<String>,
}

struct ClientContext<'a> {
    session: Session,
    tables: Tables,
    clock: Clock,
    stop: &'a AtomicBool,
    /// This replica's client-side certify log (traced runs).
    certify_log: Option<&'a CertifyLog>,
    replica: usize,
}

impl ClientContext<'_> {
    fn attempt(&self, input: &TxInput) -> (TxRecord, Option<String>) {
        let traced = self.certify_log.is_some();
        let calls_before = self.certify_log.map(|log| log.len(self.replica));
        let t_begin = self.clock.now_ns();
        let tx = self.session.begin();
        let body = statements(&tx, &self.tables, input);
        let t_executed = if traced { self.clock.now_ns() } else { 0 };
        let t_commit = if traced { self.clock.now_ns() } else { 0 };
        let result = match body {
            Ok(()) => tx.commit(),
            Err(error) => {
                drop(tx);
                Err(error)
            }
        };
        let t_end = self.clock.now_ns();
        let (outcome, fatal) = match result {
            Ok(true) if input.is_update() => (Outcome::CommittedUpdate, None),
            Ok(false) if !input.is_update() => (Outcome::CommittedReadOnly, None),
            Ok(update) => (
                Outcome::Failed,
                Some(format!("{input:?} committed with update = {update}")),
            ),
            Err(TxError::Conflict) => (Outcome::Aborted, None),
            Err(TxError::Fatal(detail)) => (Outcome::Failed, Some(detail)),
        };
        let certify_index = self
            .certify_log
            .zip(calls_before)
            .and_then(|(log, before)| (log.len(self.replica) > before).then_some(before as u32));
        let record = TxRecord {
            outcome,
            t_begin,
            t_executed,
            t_commit,
            t_end,
            certify_index,
        };
        (record, fatal)
    }

    fn run(&self, inputs: InputStream, mut backoff: Rng) -> ClientOutput {
        let mut out = ClientOutput::default();
        for input in inputs {
            if self.stop.load(Ordering::Relaxed) {
                break;
            }
            // Retry the same input until it commits: a conflict is snapshot
            // isolation's normal answer, not a failure.
            loop {
                let (record, fatal) = self.attempt(&input);
                out.records.push(record);
                match record.outcome {
                    Outcome::CommittedUpdate | Outcome::CommittedReadOnly => {
                        if let TxInput::Transfer { delta, .. } = input {
                            out.committed_delta += delta;
                        }
                        break;
                    }
                    Outcome::Aborted => {
                        if self.stop.load(Ordering::Relaxed) {
                            return out;
                        }
                        // 10–100 µs of jitter de-phases clients that
                        // collided on a hot row (the repo driver's
                        // retry-convoy fix).
                        thread::sleep(Duration::from_micros(10 + backoff.below(90)));
                    }
                    Outcome::Failed => {
                        out.fatal = fatal;
                        return out;
                    }
                }
            }
        }
        out
    }
}

/// One system's run: per-client attempt records plus the window boundaries.
#[derive(Debug)]
pub struct SystemRun {
    /// `boundaries[0]` ends the warm-up; `boundaries[i + 1]` ends window `i`.
    pub boundaries: Vec<u64>,
    pub clients: Vec<ClientOutput>,
    /// Stop signal → last client joined.
    pub drain_ms: f64,
}

/// Lane offsets for the per-client generators derived from `--seed`.
const BACKOFF_LANE: u64 = 1 << 32;

/// Drives one client per replica against `assembly` for the plan's length.
pub fn run_system(
    assembly: &Assembly,
    tables: Tables,
    spec: &WorkloadSpec,
    seed: u64,
    plan: &Plan,
    clock: Clock,
) -> SystemRun {
    let stop = AtomicBool::new(false);
    // A traced cluster has certify logs; its clients then also record the
    // inner instants and certify indices spans are built from.
    let certify_log = assembly.client_certify_log().cloned();
    thread::scope(|scope| {
        let handles: Vec<_> = (0..assembly.replicas())
            .map(|replica| {
                let context = ClientContext {
                    session: assembly.session(replica),
                    tables,
                    clock,
                    stop: &stop,
                    certify_log: certify_log.as_deref(),
                    replica,
                };
                let inputs = InputStream::new(seed, replica, spec.mix);
                let backoff = Rng::stream(seed, BACKOFF_LANE + replica as u64);
                scope.spawn(move || context.run(inputs, backoff))
            })
            .collect();

        // Sleep to absolute targets so window lengths do not drift; the
        // boundaries are whatever the clock read when the sleep returned.
        let started = Instant::now();
        let mut boundaries = Vec::with_capacity(plan.windows + 1);
        for window in 0..=plan.windows {
            let target = plan.warmup + plan.window * window as u32;
            thread::sleep(target.saturating_sub(started.elapsed()));
            boundaries.push(clock.now_ns());
        }
        stop.store(true, Ordering::Relaxed);
        let stopped = Instant::now();
        let clients = handles
            .into_iter()
            .map(|handle| match handle.join() {
                Ok(output) => output,
                Err(_) => ClientOutput {
                    fatal: Some("client thread panicked".into()),
                    ..ClientOutput::default()
                },
            })
            .collect();
        SystemRun {
            boundaries,
            clients,
            drain_ms: stopped.elapsed().as_secs_f64() * 1e3,
        }
    })
}

/// Attempt totals over a whole run (warm-up and drain tail included).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub attempted: u64,
    pub committed_updates: u64,
    pub committed_reads: u64,
    pub aborted: u64,
    pub failed: u64,
}

impl SystemRun {
    pub fn totals(&self) -> Totals {
        let mut totals = Totals::default();
        for record in self.clients.iter().flat_map(|c| &c.records) {
            totals.attempted += 1;
            match record.outcome {
                Outcome::CommittedUpdate => totals.committed_updates += 1,
                Outcome::CommittedReadOnly => totals.committed_reads += 1,
                Outcome::Aborted => totals.aborted += 1,
                Outcome::Failed => totals.failed += 1,
            }
        }
        totals
    }
}

/// The correctness gate, run with load stopped: every replica catches up,
/// then replica contents must agree, the schema's conservation law must
/// hold, and the certifier must have committed exactly the update
/// transactions the clients saw commit.  Returns every violation found.
pub fn check(assembly: &Assembly, schema: Schema, run: &SystemRun) -> Vec<String> {
    let mut violations: Vec<String> = run
        .clients
        .iter()
        .enumerate()
        .filter_map(|(i, c)| c.fatal.as_ref().map(|e| format!("client {i} stopped: {e}")))
        .collect();
    if let Err(stuck) = assembly.settle(Duration::from_secs(20)) {
        violations.push(stuck);
        return violations;
    }
    let contents = assembly.contents();
    if let Err(diverged) = contents.agree() {
        violations.push(diverged);
    }
    let totals = run.totals();
    let version = assembly.system_version();
    if version != totals.committed_updates {
        violations.push(format!(
            "certifier committed {version} versions but clients saw {} update commits",
            totals.committed_updates
        ));
    }
    for replica in 0..assembly.replicas() {
        let tables = contents.totals(replica);
        let sum = |table: &str, column: &str| -> i64 {
            tables
                .get(table)
                .and_then(|t| t.int_sums.get(column))
                .copied()
                .unwrap_or(0)
        };
        match schema {
            Schema::Bank => {
                let expected: i64 = run.clients.iter().map(|c| c.committed_delta).sum();
                for (table, column) in [
                    ("branches", "balance"),
                    ("tellers", "balance"),
                    ("accounts", "balance"),
                    ("history", "delta"),
                ] {
                    let found = sum(table, column);
                    if found != expected {
                        violations.push(format!(
                            "replica {replica}: Σ {table}.{column} = {found}, committed deltas sum to {expected}"
                        ));
                    }
                }
                let history_rows = tables.get("history").map_or(0, |t| t.rows) as u64;
                if history_rows != totals.committed_updates {
                    violations.push(format!(
                        "replica {replica}: {history_rows} history rows for {} committed transfers",
                        totals.committed_updates
                    ));
                }
            }
            Schema::Counters => {
                let found = sum("updates", "counter");
                if found != totals.committed_updates as i64 {
                    violations.push(format!(
                        "replica {replica}: Σ counters = {found} for {} committed updates",
                        totals.committed_updates
                    ));
                }
            }
        }
    }
    violations
}
