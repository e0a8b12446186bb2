//! The batched certifier's correctness anchors.
//!
//! 1. **Decision equivalence**: on any trace of certification requests the
//!    batched, pre-screened per-shard epochs (`batch: true`, the default)
//!    must be decision-for-decision identical to the direct path taken one
//!    request at a time (`batch: false`) — same commit/abort decisions, same
//!    commit versions, same remote-writeset streams (including
//!    `conflict_free_to` bounds), same forced-abort pattern (with forced
//!    aborts on, both sides take the direct path and draw once per surviving
//!    request).  Checked for the [`Certifier`] at 1, 2 and 4 shards.
//! 2. **Pre-screen soundness**: whenever the footprint index declares a
//!    writeset clear ([`CertifierLog::prescreen_clear`]), the full suffix
//!    scan ([`CertifierLog::conflict_after`]) must find nothing — a screened
//!    -out writeset never conflicts with anything in the window.  Collisions
//!    may force spurious scans; the reverse direction is deliberately not
//!    asserted.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tashkent_certifier::CertificationDecision::Abort;
use tashkent_certifier::{
    CertificationRequest, Certifier, CertifierConfig, CertifierLog, ShardedCertifierConfig,
};
use tashkent_common::{ReplicaId, TableId, Value, Version, WriteItem, WriteSet};

/// A randomized writeset: 1–6 items over 4 tables and a smallish key space,
/// so traces carry real conflicts, repeats and (under sharding) multi-shard
/// writesets.
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

/// One randomized request derived from the current system version, identical
/// on both sides as long as the two replays stay in version lockstep.
fn random_request(rng: &mut StdRng, system: Version) -> CertificationRequest {
    let lag = rng.gen_range(0..4u64).min(system.value());
    let replica_lag = rng.gen_range(0..6u64).min(system.value());
    CertificationRequest {
        replica: ReplicaId(rng.gen_range(0..3)),
        start_version: Version(system.value() - lag),
        writeset: random_writeset(rng),
        replica_version: Version(system.value() - replica_lag),
    }
}

/// The comparable projection of a response: commit?, forced abort?, commit
/// version, system version, and (version, writeset len, source) per remote
/// writeset.
type ResponseDigest = (bool, bool, Option<u64>, u64, Vec<(u64, usize, u64)>);

fn digest(response: &tashkent_certifier::CertificationResponse) -> ResponseDigest {
    (
        response.decision.is_commit(),
        matches!(response.decision, Abort { forced: true, .. }),
        response.commit_version.map(Version::value),
        response.system_version.value(),
        response
            .remote_writesets
            .iter()
            .map(|r| {
                (
                    r.commit_version.value(),
                    r.writeset.len(),
                    r.conflict_free_to.value(),
                )
            })
            .collect(),
    )
}

/// A direct-path (`batch: false`) and a batched certifier over `shards`.
fn pair(shards: usize, forced_abort_rate: f64) -> (Certifier, Certifier) {
    let config = |batch| ShardedCertifierConfig {
        shards,
        base: CertifierConfig {
            forced_abort_rate,
            batch,
            ..CertifierConfig::default()
        },
    };
    (Certifier::new(config(false)), Certifier::new(config(true)))
}

fn assert_equivalent(shards: usize, forced_abort_rate: f64, seed: u64, trace: usize) {
    let (serial, batched) = pair(shards, forced_abort_rate);
    let mut rng = StdRng::seed_from_u64(seed);
    for step in 0..trace {
        let system = serial.system_version();
        assert_eq!(batched.system_version(), system, "step {step}");
        let request = random_request(&mut rng, system);
        let expected = serial.certify(&request).unwrap();
        let actual = batched.certify(&request).unwrap();
        assert_eq!(digest(&expected), digest(&actual), "shards {shards} step {step}");
    }
}

#[test]
fn batched_certifier_matches_the_serial_scan() {
    assert_equivalent(1, 0.0, 0xB1, 400);
}

#[test]
fn batched_certifier_forced_aborts_stay_in_rng_lockstep() {
    assert_equivalent(1, 0.15, 0xB2, 400);
}

#[test]
fn batched_sharded_certifier_matches_the_serial_scan() {
    for (shards, seed) in [(1usize, 0xB3u64), (2, 0xB4), (4, 0xB5)] {
        assert_equivalent(shards, 0.0, seed, 400);
    }
}

#[test]
fn batched_sharded_forced_aborts_stay_in_rng_lockstep() {
    for (shards, seed) in [(1usize, 0xB6u64), (2, 0xB7), (4, 0xB8)] {
        assert_equivalent(shards, 0.15, seed, 400);
    }
}

#[test]
fn equivalence_holds_across_truncation_floors() {
    // Truncation rebuilds the pre-screen index; decisions — including the
    // conservative below-floor aborts — must stay identical afterwards.
    let (serial, batched) = pair(1, 0.0);
    let mut rng = StdRng::seed_from_u64(0xB9);
    for _ in 0..120 {
        let request = random_request(&mut rng, serial.system_version());
        let expected = serial.certify(&request).unwrap();
        let actual = batched.certify(&request).unwrap();
        assert_eq!(digest(&expected), digest(&actual));
    }
    let watermark = Version(serial.system_version().value() / 2);
    serial.seal_checkpoint();
    batched.seal_checkpoint();
    serial.truncate_below(watermark).unwrap();
    batched.truncate_below(watermark).unwrap();
    assert_eq!(serial.truncation_floor(), batched.truncation_floor());
    for step in 0..200 {
        let system = serial.system_version();
        let request = random_request(&mut rng, system);
        let expected = serial.certify(&request).unwrap();
        let actual = batched.certify(&request).unwrap();
        assert_eq!(digest(&expected), digest(&actual), "post-truncation step {step}");
    }
}

#[test]
fn prescreen_clear_implies_no_conflict() {
    // Soundness on randomized windows: a writeset the index screens out must
    // also pass the full scan, from every probed snapshot version.
    let mut rng = StdRng::seed_from_u64(0xBA);
    for round in 0..20 {
        let mut log = CertifierLog::new();
        let mut version = Version::ZERO;
        for _ in 0..rng.gen_range(20..200) {
            let start = Version(version.value().saturating_sub(rng.gen_range(0..8)));
            version = log.append(random_writeset(&mut rng), start);
        }
        if round % 3 == 2 {
            // Exercise the rebuilt-after-truncation index too.
            log.truncate_up_to(Version(version.value() / 2));
        }
        let mut screened_out = 0u32;
        for probe in 0..300 {
            let writeset = random_writeset(&mut rng);
            let start =
                Version(rng.gen_range(log.floor().value()..=log.system_version().value()));
            if log.prescreen_clear(&writeset, start) {
                screened_out += 1;
                assert_eq!(
                    log.conflict_after(&writeset, start),
                    None,
                    "round {round} probe {probe}: pre-screen declared clear but the \
                     scan found a conflict"
                );
            }
        }
        // The key space (4 tables × 64 keys) is far below the bucket count,
        // so clear probes must actually occur — otherwise this test would
        // silently assert nothing.
        assert!(screened_out > 0, "round {round}: no probe was screened out");
    }
}

#[test]
fn prescreen_never_misses_a_known_conflict() {
    // Directed version of soundness: append a writeset, then probe the very
    // same footprint from an older snapshot — the pre-screen must demand a
    // scan (and the scan must find the conflict).
    let mut log = CertifierLog::new();
    let mut rng = StdRng::seed_from_u64(0xBB);
    for _ in 0..100 {
        let writeset = random_writeset(&mut rng);
        let snapshot = log.system_version();
        let committed = log.append(writeset.clone(), snapshot);
        assert!(
            !log.prescreen_clear(&writeset, snapshot),
            "footprint committed at {committed} must not be screened out at {snapshot}"
        );
        assert_eq!(log.conflict_after(&writeset, snapshot), Some(committed));
    }
}
