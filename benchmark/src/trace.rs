//! Harness-side spans: recorded in memory around the calls into each layer,
//! written out when the run ends.
//!
//! Per transaction attempt the client thread records four instants
//! (`begin` called, statements done, `commit` called, `commit` returned);
//! the interposed certifier wrappers record the certify round trip on the
//! client side and — when a wire sits in between — on the server side.  A
//! span tree per transaction follows from those:
//!
//! ```text
//! tx ─┬─ execute
//!     └─ commit ── certify ── server_certify
//! ```

use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;
use crate::stats::self_time;

/// One monotonic clock for every span of a run, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// One certify call as a wrapper saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CertifySpan {
    pub start_ns: u64,
    pub end_ns: u64,
    /// Remote writesets the response handed to the replica for install.
    pub remote_writesets: u32,
}

/// Where the certifier wrappers put their spans: one list per replica, in
/// call order.  With one closed-loop client per replica the n-th client-side
/// span and the n-th server-side span of a replica are the same request.
#[derive(Debug)]
pub struct CertifyLog {
    pub clock: Clock,
    per_replica: Vec<Mutex<Vec<CertifySpan>>>,
}

impl CertifyLog {
    pub fn new(clock: Clock, replicas: usize) -> CertifyLog {
        CertifyLog {
            clock,
            per_replica: (0..replicas).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    pub fn record(&self, replica: usize, span: CertifySpan) {
        if let Some(list) = self.per_replica.get(replica) {
            list.lock().expect("certify log poisoned").push(span);
        }
    }

    /// Calls recorded so far for `replica`.
    pub fn len(&self, replica: usize) -> usize {
        self.per_replica[replica]
            .lock()
            .expect("certify log poisoned")
            .len()
    }

    pub fn take(&self, replica: usize) -> Vec<CertifySpan> {
        std::mem::take(
            &mut *self.per_replica[replica]
                .lock()
                .expect("certify log poisoned"),
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    CommittedUpdate,
    CommittedReadOnly,
    /// Retryable conflict (certification, write-write, deadlock, wound).
    Aborted,
    /// Anything else: counts as a failed operation.
    Failed,
}

/// What the client thread records per transaction attempt.
#[derive(Debug, Clone, Copy)]
pub struct TxRecord {
    pub outcome: Outcome,
    /// `begin()` about to be called.
    pub t_begin: u64,
    /// Statements done (0 when untraced).
    pub t_executed: u64,
    /// `commit()` about to be called (0 when untraced).
    pub t_commit: u64,
    /// `commit()` returned (or the attempt ended in an error).
    pub t_end: u64,
    /// Index of this attempt's certify call in its replica's
    /// [`CertifyLog`], if the commit reached the certifier.
    pub certify_index: Option<u32>,
}

impl TxRecord {
    pub fn committed(&self) -> bool {
        matches!(
            self.outcome,
            Outcome::CommittedUpdate | Outcome::CommittedReadOnly
        )
    }

    pub fn latency_ns(&self) -> u64 {
        self.t_end - self.t_begin
    }
}

/// The span tree of one traced, committed transaction.
#[derive(Debug, Clone, Copy)]
pub struct TxSpans {
    pub id: u64,
    pub update: bool,
    pub tx: (u64, u64),
    pub execute: (u64, u64),
    pub commit: (u64, u64),
    /// Client-side certify span (updates only).
    pub certify: Option<(u64, u64)>,
    /// Server-side certify span: the wrapper in front of the certifier.
    pub server_certify: Option<(u64, u64)>,
}

fn duration(span: (u64, u64)) -> u64 {
    span.1 - span.0
}

impl TxSpans {
    pub fn tx_ns(&self) -> u64 {
        duration(self.tx)
    }
    pub fn execute_ns(&self) -> u64 {
        duration(self.execute)
    }
    pub fn commit_ns(&self) -> u64 {
        duration(self.commit)
    }
    pub fn certify_ns(&self) -> Option<u64> {
        self.certify.map(duration)
    }
    pub fn server_certify_ns(&self) -> Option<u64> {
        self.server_certify.map(duration)
    }
    /// certify − server_certify: what the wire (codec, sockets, poll loops)
    /// adds.
    pub fn wire_ns(&self) -> Option<u64> {
        Some(self_time(self.certify?, &[self.server_certify?]))
    }
    /// commit − certify: remote install, local commit and WAL flush.
    pub fn commit_self_ns(&self) -> u64 {
        self_time(self.commit, self.certify.as_slice())
    }
    /// tx − (execute + commit): time the harness itself put inside the
    /// transaction.
    pub fn residual_ns(&self) -> u64 {
        self_time(self.tx, &[self.execute, self.commit])
    }
}

/// Joins one client's records with its replica's wrapper logs.  Returns the
/// span trees of committed transactions whose `commit()` returned inside
/// `[from_ns, to_ns)`, or an error if the logs do not line up (which would
/// make every certify attribution wrong).
pub fn build_spans(
    first_id: u64,
    records: &[TxRecord],
    client_log: &[CertifySpan],
    server_log: &[CertifySpan],
    from_ns: u64,
    to_ns: u64,
) -> Result<Vec<TxSpans>, String> {
    if server_log.len() != client_log.len() {
        return Err(format!(
            "certify logs disagree: {} client-side calls, {} server-side",
            client_log.len(),
            server_log.len()
        ));
    }
    let mut spans = Vec::new();
    for (offset, record) in records.iter().enumerate() {
        if !record.committed() || record.t_end < from_ns || record.t_end >= to_ns {
            continue;
        }
        let update = record.outcome == Outcome::CommittedUpdate;
        let lookup = |log: &[CertifySpan]| -> Result<Option<(u64, u64)>, String> {
            match record.certify_index {
                Some(index) => log
                    .get(index as usize)
                    .map(|s| Some((s.start_ns, s.end_ns)))
                    .ok_or_else(|| format!("certify index {index} outside the log")),
                None => Ok(None),
            }
        };
        let certify = lookup(client_log)?;
        if update && certify.is_none() {
            return Err("a committed update has no certify span".to_owned());
        }
        let server_certify = lookup(server_log)?;
        spans.push(TxSpans {
            id: first_id + offset as u64,
            update,
            tx: (record.t_begin, record.t_end),
            execute: (record.t_begin, record.t_executed),
            commit: (record.t_commit, record.t_end),
            certify,
            server_certify,
        });
    }
    Ok(spans)
}

/// The spans of `tx` as JSON objects: name, start, end, the span that caused
/// it, and the transaction id they share.
pub fn spans_json(system: &str, tx: &TxSpans) -> Vec<Json> {
    let span = |name: &str, parent: Option<&str>, (start, end): (u64, u64)| {
        Json::obj([
            ("system", Json::str(system)),
            ("tx", Json::Num(tx.id as f64)),
            ("name", Json::str(name)),
            ("parent", parent.map_or(Json::Null, Json::str)),
            ("start_ns", Json::Num(start as f64)),
            ("end_ns", Json::Num(end as f64)),
        ])
    };
    let mut out = vec![
        span("tx", None, tx.tx),
        span("execute", Some("tx"), tx.execute),
        span("commit", Some("tx"), tx.commit),
    ];
    if let Some(certify) = tx.certify {
        out.push(span("certify", Some("commit"), certify));
    }
    if let Some(server) = tx.server_certify {
        out.push(span("server_certify", Some("certify"), server));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(outcome: Outcome, t: [u64; 4], certify_index: Option<u32>) -> TxRecord {
        TxRecord {
            outcome,
            t_begin: t[0],
            t_executed: t[1],
            t_commit: t[2],
            t_end: t[3],
            certify_index,
        }
    }

    #[test]
    fn spans_join_records_with_both_wrapper_logs() {
        let records = [
            record(Outcome::Aborted, [0, 10, 11, 50], Some(0)),
            record(Outcome::CommittedUpdate, [100, 130, 132, 400], Some(1)),
            record(Outcome::CommittedReadOnly, [500, 520, 521, 530], None),
        ];
        let client = [
            CertifySpan {
                start_ns: 12,
                end_ns: 48,
                remote_writesets: 0,
            },
            CertifySpan {
                start_ns: 140,
                end_ns: 340,
                remote_writesets: 2,
            },
        ];
        let server = [
            CertifySpan {
                start_ns: 20,
                end_ns: 40,
                remote_writesets: 0,
            },
            CertifySpan {
                start_ns: 200,
                end_ns: 300,
                remote_writesets: 2,
            },
        ];
        let spans = build_spans(7, &records, &client, &server, 0, u64::MAX).unwrap();
        assert_eq!(spans.len(), 2, "aborted attempts carry no span tree");
        let update = spans[0];
        assert_eq!(update.id, 8);
        assert_eq!(update.tx_ns(), 300);
        assert_eq!(update.execute_ns(), 30);
        assert_eq!(update.certify_ns(), Some(200));
        assert_eq!(update.server_certify_ns(), Some(100));
        assert_eq!(update.wire_ns(), Some(100));
        assert_eq!(update.commit_self_ns(), 268 - 200);
        assert_eq!(update.residual_ns(), 2);
        // The reported parts tile the transaction.
        assert_eq!(
            update.execute_ns()
                + update.certify_ns().unwrap()
                + update.commit_self_ns()
                + update.residual_ns(),
            update.tx_ns()
        );
        let read = spans[1];
        assert!(!read.update);
        assert_eq!(read.certify, None);
        assert_eq!(read.commit_self_ns(), read.commit_ns());
        assert_eq!(spans_json("mw", &update).len(), 5);
        assert_eq!(spans_json("mw", &read).len(), 3);
    }

    #[test]
    fn the_measurement_interval_filters_by_commit_return_time() {
        let records = [
            record(Outcome::CommittedReadOnly, [0, 1, 2, 10], None),
            record(Outcome::CommittedReadOnly, [20, 21, 22, 30], None),
            record(Outcome::CommittedReadOnly, [40, 41, 42, 50], None),
        ];
        let spans = build_spans(0, &records, &[], &[], 15, 50).unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].id, 1);
    }

    #[test]
    fn misaligned_logs_are_an_error_not_a_guess() {
        let records = [record(Outcome::CommittedUpdate, [0, 1, 2, 9], Some(0))];
        let client = [CertifySpan {
            start_ns: 3,
            end_ns: 8,
            remote_writesets: 0,
        }];
        assert!(build_spans(0, &records, &client, &[], 0, 100).is_err());
        assert!(build_spans(0, &records, &[], &[], 0, 100).is_err());
    }
}
