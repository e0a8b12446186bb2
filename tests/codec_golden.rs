//! Golden bytes of every on-disk and wire format.
//!
//! `codec_golden.txt` holds one sample per format (one per TKNP message
//! variant), recorded from the encoders before the formats shared one codec.
//! Each sample must decode, and re-encoding what it decoded to must give the
//! same bytes back: old logs, dumps, checkpoints and peers stay readable.
//! Nothing here can regenerate the file.

mod codec_formats;

use codec_formats::{decode, encode, samples};

#[test]
fn every_format_and_message_variant_has_a_sample() {
    let names: Vec<String> = samples().into_iter().map(|(name, _)| name).collect();
    for required in [
        "wal_commit",
        "wal_checkpoint",
        "tknp_hello",
        "tknp_hello_ack",
        "tknp_certify_request",
        "tknp_certify_decision",
        "tknp_fetch_writesets",
        "tknp_writeset_batch",
        "tknp_status_request",
        "tknp_status_response",
        "tknp_state_transfer_request",
        "tknp_state_transfer_response",
        "tknp_ping",
        "tknp_pong",
        "tknp_goodbye",
        "tknp_error_reply",
        "tkcp_image",
        "tkmf_manifest",
        "tkdp_dump",
        "tms1_snapshot",
        "tdb1_bundle",
        "certifier_checkpoint",
    ] {
        assert!(names.iter().any(|n| n == required), "no golden sample {required}");
    }
}

#[test]
fn every_sample_re_encodes_byte_for_byte() {
    for (name, bytes) in samples() {
        let decoded = decode(&name, &bytes)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .unwrap_or_else(|| panic!("{name}: no complete frame"));
        assert_eq!(encode(&decoded), bytes, "{name} re-encodes differently");
    }
}
