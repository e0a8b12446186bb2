//! The certifier's correctness anchor: a golden trace.
//!
//! `golden_trace.txt` holds the responses of the paper-shaped serial
//! certifier this crate used to carry beside the sharded engine (one log,
//! one lock, one request at a time), recorded on two seeded traces before
//! that engine was deleted.  Every shard count × batch mode must reproduce
//! it line for line — same decisions, abort reasons, commit versions, system
//! versions and remote-writeset streams, `conflict_free_to` included.  With
//! more than one shard the ordered two-phase certify must collapse to the
//! same global outcome; with batching the per-shard epochs must decide as
//! the serial scan did; with forced aborts the RNG must be drawn once per
//! surviving request, in the same order.  The file cannot be regenerated.
//!
//! Beyond the golden seeds, shard counts are compared against each other on
//! further random traces.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tashkent_certifier::{
    CertificationDecision, CertificationRequest, CertificationResponse, Certifier,
    CertifierConfig, ShardedCertifierConfig,
};
use tashkent_common::{ReplicaId, TableId, Value, Version, WriteItem, WriteSet};

const GOLDEN: &str = include_str!("golden_trace.txt");

/// A randomized writeset: 1–6 items over 4 tables and a smallish key space,
/// so the trace has real conflicts, multi-shard writesets and repeats.
fn random_writeset(rng: &mut StdRng) -> WriteSet {
    let items = rng.gen_range(1..=6);
    WriteSet::from_items(
        (0..items)
            .map(|_| {
                let table = TableId(rng.gen_range(0..4));
                let key = rng.gen_range(0..64i64);
                WriteItem::update(table, key, vec![("c".into(), Value::Int(key))])
            })
            .collect(),
    )
}

/// The next request of a trace, derived from the certifier's current system
/// version (the golden trace was recorded the same way).
fn random_request(rng: &mut StdRng, system: Version) -> CertificationRequest {
    let lag = rng.gen_range(0..4u64).min(system.value());
    let start_version = Version(system.value() - lag);
    let replica_lag = rng.gen_range(0..6u64).min(system.value());
    CertificationRequest {
        replica: ReplicaId(rng.gen_range(0..3)),
        start_version,
        writeset: random_writeset(rng),
        replica_version: Version(system.value() - replica_lag),
    }
}

/// One response in the golden file's line format (without the step).
fn golden_line(response: &CertificationResponse) -> String {
    let (decision, reason) = match &response.decision {
        CertificationDecision::Commit => ("commit", "-"),
        CertificationDecision::Abort { reason, forced } => {
            (if *forced { "forced" } else { "abort" }, reason.as_str())
        }
    };
    let commit = response
        .commit_version
        .map_or("-".to_string(), |v| v.value().to_string());
    let remotes: Vec<String> = response
        .remote_writesets
        .iter()
        .map(|r| {
            format!(
                "{}:{}:{}",
                r.commit_version.value(),
                r.writeset.len(),
                r.conflict_free_to.value()
            )
        })
        .collect();
    let remotes = if remotes.is_empty() {
        "-".to_string()
    } else {
        remotes.join(" ")
    };
    format!(
        "{decision}\t{reason}\t{commit}\t{}\t{remotes}",
        response.system_version.value()
    )
}

/// The forced-abort rate and the step lines of the golden trace for `seed`.
fn golden(seed: u64) -> (f64, Vec<&'static str>) {
    let header = format!("# trace seed={seed:#X} ");
    let mut lines = GOLDEN.lines().skip_while(|line| !line.starts_with(&header));
    let header = lines.next().expect("seed recorded in the golden trace");
    let rate = header
        .split_whitespace()
        .find_map(|field| field.strip_prefix("forced_abort_rate="))
        .and_then(|rate| rate.parse().ok())
        .expect("header names the forced-abort rate");
    let steps: Vec<&str> = lines.take_while(|line| !line.starts_with('#')).collect();
    assert_eq!(steps.len(), 400, "golden trace {seed:#X} is complete");
    (rate, steps)
}

fn certifier(shards: usize, batch: bool, forced_abort_rate: f64) -> Certifier {
    Certifier::new(ShardedCertifierConfig {
        shards,
        base: CertifierConfig {
            forced_abort_rate,
            batch,
            ..CertifierConfig::default()
        },
    })
}

/// Replays the golden trace for `seed` against `shards` × `batch`.
fn replay_golden(seed: u64, shards: usize, batch: bool) {
    let (rate, expected) = golden(seed);
    let candidate = certifier(shards, batch, rate);
    let mut rng = StdRng::seed_from_u64(seed);
    for (step, expected) in expected.iter().enumerate() {
        let request = random_request(&mut rng, candidate.system_version());
        let response = candidate.certify(&request).unwrap();
        assert_eq!(
            format!("{step}\t{}", golden_line(&response)),
            *expected,
            "seed {seed:#X}, {shards} shard(s), batch {batch}"
        );
    }
    let count = |decision: &str| {
        expected
            .iter()
            .filter(|line| line.split('\t').nth(1) == Some(decision))
            .count() as u64
    };
    // The replicated stream is the dense sequence of every commit.
    let stream: Vec<u64> = candidate
        .writesets_after(Version::ZERO)
        .iter()
        .map(|r| r.commit_version.value())
        .collect();
    assert_eq!(stream, (1..=count("commit")).collect::<Vec<u64>>());
}

/// Replays one randomized trace against a reference and a candidate
/// certifier, asserting identical behaviour request by request.
fn assert_equivalent(reference: &Certifier, candidate: &Certifier, seed: u64, trace: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    for step in 0..trace {
        let system = reference.system_version();
        assert_eq!(candidate.system_version(), system, "step {step}");
        let request = random_request(&mut rng, system);
        let expected = reference.certify(&request).unwrap();
        let actual = candidate.certify(&request).unwrap();
        assert_eq!(golden_line(&expected), golden_line(&actual), "step {step}");
    }
    // The full replicated streams agree from any starting point, including
    // each entry's extended-certification bound.
    for since in [0, 5, trace as u64 / 2] {
        let stream = |certifier: &Certifier| -> Vec<(u64, u64)> {
            certifier
                .writesets_after(Version(since))
                .iter()
                .map(|r| (r.commit_version.value(), r.conflict_free_to.value()))
                .collect()
        };
        assert_eq!(stream(reference), stream(candidate), "writesets_after({since})");
    }
}

fn run(shards: usize, forced_abort_rate: f64, seed: u64) {
    let reference = certifier(1, false, forced_abort_rate);
    let candidate = certifier(shards, true, forced_abort_rate);
    assert_equivalent(&reference, &candidate, seed, 400);
}

#[test]
fn single_shard_is_decision_identical_to_the_certifier() {
    for batch in [false, true] {
        replay_golden(0xE1, 1, batch);
    }
}

#[test]
fn two_and_four_shards_match_on_a_serial_trace() {
    for shards in [2, 4] {
        for batch in [false, true] {
            replay_golden(0xE1, shards, batch);
        }
    }
    run(2, 0.0, 0xE2);
    run(4, 0.0, 0xE3);
}

#[test]
fn forced_aborts_stay_in_lockstep() {
    // The forced-abort RNG is drawn once per surviving request, so with the
    // recorded seed the draw sequence — and the abort pattern — must match
    // the golden trace at every shard count, batched or not.
    for shards in [1, 2, 4] {
        for batch in [false, true] {
            replay_golden(0xE4, shards, batch);
        }
    }
    run(4, 0.15, 0xE5);
}

#[test]
fn conflict_abort_reasons_name_the_oldest_conflict() {
    // Beyond decisions: the reported conflict version is the oldest
    // conflicting entry (the serial forward scan's), even across shards.
    // `assert_equivalent` compares reasons verbatim.
    let reference = certifier(1, true, 0.0);
    let candidate = certifier(4, true, 0.0);
    assert_equivalent(&reference, &candidate, 0xE6, 200);
}
