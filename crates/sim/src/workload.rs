//! Per-benchmark cost profiles.
//!
//! The simulator characterises each benchmark by the quantities the paper
//! reports or that follow directly from its measurements: the fraction of
//! update transactions, CPU cost per transaction, cost of applying a remote
//! writeset, average writeset size, the real (certification) conflict rate
//! and the artificial-conflict rate among remote writesets that matters for
//! Tashkent-API (35 % for TPC-B, Section 9.3).

/// Cost profile of one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Benchmark name.
    pub name: String,
    /// Fraction of transactions that are updates (1.0 for AllUpdates and
    /// TPC-B, 0.2 for the TPC-W shopping mix).
    pub update_fraction: f64,
    /// CPU time at the replica to execute one transaction, in seconds.
    pub cpu_execute: f64,
    /// CPU time at the replica to apply one remote writeset, in seconds.
    pub cpu_apply_writeset: f64,
    /// CPU time at the certifier to intersection-test one writeset.
    pub cpu_certify: f64,
    /// Average writeset size in bytes (54 / 158 / 275 for the three
    /// benchmarks).
    pub writeset_bytes: usize,
    /// Probability that certification finds a real write-write conflict.
    pub conflict_rate: f64,
    /// Probability that a group of remote writesets contains an artificial
    /// conflict, forcing Tashkent-API to serialise (Section 5.2.1).
    pub artificial_conflict_rate: f64,
    /// Non-logging IO (page reads and dirty-page writebacks) per transaction
    /// on a *shared* channel, in seconds of channel occupancy.
    pub shared_io_per_txn: f64,
    /// Overhead per durable commit record at the replica, in seconds,
    /// charged when the database itself guarantees durability (Base and
    /// Tashkent-API).  It models what Section 9.2 blames for the residual
    /// gap between Tashkent-MW and Tashkent-API: PostgreSQL logs before/after
    /// images of data pages and runs a heavier multiprocess commit path,
    /// whereas the certifier logs only the small writeset.
    pub wal_record_io: f64,
    /// Closed-loop clients per replica (the paper drives each replica at 85 %
    /// of its standalone peak).
    pub clients_per_replica: usize,
}

impl WorkloadProfile {
    /// The AllUpdates micro-benchmark: back-to-back short, non-conflicting
    /// update transactions with 54-byte writesets — the worst case for a
    /// replicated system (Section 9.1).
    #[must_use]
    pub fn all_updates() -> Self {
        WorkloadProfile {
            name: "AllUpdates".into(),
            update_fraction: 1.0,
            cpu_execute: 0.0009,
            cpu_apply_writeset: 0.000_23,
            cpu_certify: 0.000_02,
            writeset_bytes: 54,
            conflict_rate: 0.0,
            artificial_conflict_rate: 0.0,
            shared_io_per_txn: 0.000_5,
            wal_record_io: 0.000_15,
            clients_per_replica: 10,
        }
    }

    /// TPC-B: small read-modify-write transactions with real write-write
    /// conflicts and a 35 % artificial-conflict rate among remote writeset
    /// groups (Section 9.3).
    #[must_use]
    pub fn tpcb() -> Self {
        WorkloadProfile {
            name: "TPC-B".into(),
            update_fraction: 1.0,
            cpu_execute: 0.0021,
            cpu_apply_writeset: 0.000_5,
            cpu_certify: 0.000_03,
            writeset_bytes: 158,
            conflict_rate: 0.02,
            artificial_conflict_rate: 0.35,
            shared_io_per_txn: 0.002_0,
            wal_record_io: 0.000_2,
            clients_per_replica: 10,
        }
    }

    /// TPC-W shopping mix: heavyweight, CPU-bound interactions with only 20 %
    /// updates (Section 9.4).
    #[must_use]
    pub fn tpcw_shopping() -> Self {
        WorkloadProfile {
            name: "TPC-W".into(),
            update_fraction: 0.20,
            cpu_execute: 0.045,
            cpu_apply_writeset: 0.001_1,
            cpu_certify: 0.000_05,
            writeset_bytes: 275,
            conflict_rate: 0.005,
            artificial_conflict_rate: 0.05,
            shared_io_per_txn: 0.045,
            wal_record_io: 0.000_5,
            clients_per_replica: 10,
        }
    }

    /// The profile by benchmark name (`allupdates`, `tpcb`, `tpcw`).
    #[must_use]
    pub fn by_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "allupdates" | "all_updates" | "all-updates" => Some(Self::all_updates()),
            "tpcb" | "tpc-b" => Some(Self::tpcb()),
            "tpcw" | "tpc-w" | "tpcw-shopping" => Some(Self::tpcw_shopping()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_match_paper_characteristics() {
        let all = WorkloadProfile::all_updates();
        let tpcb = WorkloadProfile::tpcb();
        let tpcw = WorkloadProfile::tpcw_shopping();
        // Writeset sizes quoted in Section 9.1.
        assert_eq!(all.writeset_bytes, 54);
        assert_eq!(tpcb.writeset_bytes, 158);
        assert_eq!(tpcw.writeset_bytes, 275);
        // Update fractions.
        assert_eq!(all.update_fraction, 1.0);
        assert_eq!(tpcb.update_fraction, 1.0);
        assert!((tpcw.update_fraction - 0.2).abs() < f64::EPSILON);
        // AllUpdates has no conflicts; TPC-B has the 35 % artificial rate.
        assert_eq!(all.conflict_rate, 0.0);
        assert!((tpcb.artificial_conflict_rate - 0.35).abs() < f64::EPSILON);
        // TPC-W is CPU bound: execution dwarfs certification.
        assert!(tpcw.cpu_execute > 100.0 * tpcw.cpu_certify);
        // Certification is an order of magnitude cheaper than execution.
        for profile in [&all, &tpcb, &tpcw] {
            assert!(profile.cpu_execute >= 10.0 * profile.cpu_certify);
        }
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(
            WorkloadProfile::by_name("TPC-B").unwrap().name,
            "TPC-B"
        );
        assert_eq!(
            WorkloadProfile::by_name("allupdates").unwrap().name,
            "AllUpdates"
        );
        assert_eq!(
            WorkloadProfile::by_name("tpcw").unwrap().name,
            "TPC-W"
        );
        assert!(WorkloadProfile::by_name("nope").is_none());
    }
}
