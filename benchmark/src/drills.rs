//! Layer drills: one public operation of one crate at a time, single
//! threaded unless stated, a fixed number of operations per batch, the
//! median of five batches.  The operations themselves are built in
//! `assemble`; this file only counts and times.

use std::time::Instant;

use crate::assemble::{drill, DrillBody, DrillId};
use crate::stats::median;
use crate::workload::Rng;

pub struct DrillDef {
    pub id: DrillId,
    pub name: &'static str,
    pub unit: &'static str,
    /// Nanoseconds per reported unit (timed drills).
    unit_ns: f64,
    /// Operations per batch (per thread for the two-thread count drill).
    ops: usize,
}

pub const BATCHES: usize = 5;

pub const DRILLS: [DrillDef; 10] = [
    DrillDef {
        id: DrillId::WsConflict,
        name: "common.ws_conflict_ns",
        unit: "ns",
        unit_ns: 1.0,
        ops: 200_000,
    },
    DrillDef {
        id: DrillId::LocalCommit,
        name: "storage.local_commit_us",
        unit: "us",
        unit_ns: 1e3,
        ops: 20_000,
    },
    DrillDef {
        id: DrillId::ApplyWriteset,
        name: "storage.apply_writeset_us",
        unit: "us",
        unit_ns: 1e3,
        ops: 10_000,
    },
    // 2 threads × 12 durable appends on the slept 8 ms disk per batch: a
    // count ratio (flushes per record), not a time.
    DrillDef {
        id: DrillId::GroupCommit,
        name: "storage.group_commit_fsyncs_per_record",
        unit: "ratio",
        unit_ns: 1.0,
        ops: 12,
    },
    DrillDef {
        id: DrillId::Certify1Shard,
        name: "certifier.certify_1shard_us",
        unit: "us",
        unit_ns: 1e3,
        ops: 1_000,
    },
    DrillDef {
        id: DrillId::Certify4Shard,
        name: "certifier.certify_4shard_us",
        unit: "us",
        unit_ns: 1e3,
        ops: 1_000,
    },
    // ~27 ms per append today (three serial slept flushes): few operations.
    DrillDef {
        id: DrillId::PaxosAppend,
        name: "certifier.paxos_append_ms",
        unit: "ms",
        unit_ns: 1e6,
        ops: 8,
    },
    DrillDef {
        id: DrillId::CodecRoundtrip,
        name: "net.codec_roundtrip_ns",
        unit: "ns",
        unit_ns: 1.0,
        ops: 20_000,
    },
    DrillDef {
        id: DrillId::TcpRtt,
        name: "net.tcp_rtt_us",
        unit: "us",
        unit_ns: 1e3,
        ops: 300,
    },
    DrillDef {
        id: DrillId::SessionCommit,
        name: "core.session_commit_us",
        unit: "us",
        unit_ns: 1e3,
        ops: 5_000,
    },
];

/// Lane offset for the drills' generators derived from `--seed`.
const DRILL_LANE: u64 = 1 << 40;

/// Runs every drill; `shrink` divides the operation counts (smoke runs).
pub fn run_all(seed: u64, shrink: usize) -> Vec<(&'static str, f64, &'static str)> {
    DRILLS
        .iter()
        .enumerate()
        .map(|(lane, def)| {
            let ops = (def.ops / shrink).max(2);
            let rng = Rng::stream(seed, DRILL_LANE + lane as u64);
            let batches: Vec<f64> = match drill(def.id, rng) {
                DrillBody::PerOp(mut op) => (0..BATCHES)
                    .map(|_| {
                        let started = Instant::now();
                        for _ in 0..ops {
                            op();
                        }
                        started.elapsed().as_nanos() as f64 / ops as f64 / def.unit_ns
                    })
                    .collect(),
                DrillBody::Ratio(mut batch) => (0..BATCHES).map(|_| batch(ops)).collect(),
            };
            (def.name, median(&batches), def.unit)
        })
        .collect()
}
