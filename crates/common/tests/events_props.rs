//! Property-based tests for the causal event journal.
//!
//! Three contracts are pinned here:
//!
//! * **Ring ordering and overflow** — an [`EventRing`] snapshot is always a
//!   contiguous *suffix* of what was recorded (oldest entries dropped
//!   first, never the middle), in record order, and never holds a torn
//!   event.
//! * **Causal-merge monotonicity** — [`merge_timelines`] produces a
//!   timeline whose timestamps never decrease regardless of how events are
//!   scattered across component streams, and it loses nothing.
//! * **Chrome-trace well-formedness** — [`chrome_trace_json`] emits valid
//!   JSON (checked with a full little parser, not substring pokes) whose
//!   per-transaction spans are monotonic: each stage span begins where the
//!   previous stage ended and durations are never negative.

use proptest::prelude::*;
use tashkent_common::metrics::{TraceTimer, STAGE_COUNT};
use tashkent_common::{
    chrome_trace_json, merge_timelines, text_timeline, CommitPathTrace, Component, Event,
    EventKind, EventRing, MetricsRegistry,
};

fn kind_of(i: u8) -> EventKind {
    EventKind::ALL[i as usize % EventKind::ALL.len()]
}

fn component_of(i: u8) -> Component {
    Component::ALL[i as usize % Component::ALL.len()]
}

fn event(at: u64, meta: u8, tx: u64) -> Event {
    let mut e = Event::new(component_of(meta), kind_of(meta))
        .tx(tx)
        .version(tx.wrapping_mul(131).wrapping_add(11))
        .shard((meta % 4) as usize)
        .node((meta % 3) as usize);
    e.at_micros = at;
    e
}

proptest! {
    /// Oldest-dropped, never torn: after any record sequence, the snapshot
    /// is exactly the last `min(n, capacity)` records, in order.
    #[test]
    fn ring_snapshot_is_the_ordered_suffix_of_what_was_recorded(
        capacity in 1usize..64,
        records in prop::collection::vec((0u64..10_000, 0u8..=255), 0..300),
    ) {
        let ring = EventRing::new(capacity);
        for (i, (at, meta)) in records.iter().enumerate() {
            ring.record(&event(*at, *meta, i as u64));
        }
        let snapshot = ring.snapshot();
        let expect = records.len().min(capacity);
        prop_assert_eq!(snapshot.len(), expect);
        prop_assert_eq!(ring.issued(), records.len() as u64);
        prop_assert_eq!(ring.dropped(), 0);
        let first = records.len() - expect;
        for (offset, got) in snapshot.iter().enumerate() {
            let (at, meta) = records[first + offset];
            let want = event(at, meta, (first + offset) as u64);
            prop_assert_eq!(*got, want, "slot {} diverged", offset);
        }
    }

    /// Merging any scatter of a timeline across component streams yields a
    /// time-monotonic timeline of the same length and content.
    #[test]
    fn merged_timelines_are_monotonic_and_lose_nothing(
        entries in prop::collection::vec((0u64..5_000, 0u8..=255, 0u8..5), 0..200),
    ) {
        let mut streams: Vec<Vec<Event>> = vec![Vec::new(); 5];
        for (i, (at, meta, stream)) in entries.iter().enumerate() {
            streams[*stream as usize].push(event(*at, *meta, i as u64));
        }
        // Per-stream order must be time-sorted, as ring tickets guarantee
        // for a single ring (the registry clock is read inside `emit`).
        for stream in &mut streams {
            stream.sort_by_key(|e| e.at_micros);
        }
        let merged = merge_timelines(streams);
        prop_assert_eq!(merged.len(), entries.len());
        for pair in merged.windows(2) {
            prop_assert!(pair[0].at_micros <= pair[1].at_micros);
        }
        // Nothing is lost or invented: multiset equality via sorted keys.
        let mut got: Vec<u64> = merged.iter().map(|e| e.tx).collect();
        let mut want: Vec<u64> = (0..entries.len() as u64).collect();
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
        // The text timeline renders one line per event, greppable by tx.
        let text = text_timeline(&merged);
        prop_assert_eq!(text.lines().count(), merged.len());
    }

    /// The Chrome-trace export is valid JSON, and every transaction's spans
    /// tile the commit path: stage N+1 starts where stage N ended and no
    /// duration is negative (ts and dur are u64 microseconds).
    #[test]
    fn chrome_trace_is_valid_json_with_monotonic_per_tx_spans(
        marks in prop::collection::vec(
            (1u64..50_000, prop::collection::vec(0u64..2_000, STAGE_COUNT..STAGE_COUNT + 1)),
            0..20,
        ),
        events in prop::collection::vec((0u64..50_000, 0u8..=255), 0..40),
    ) {
        let traces: Vec<CommitPathTrace> = marks
            .iter()
            .enumerate()
            .map(|(i, (started, deltas))| {
                let timer = TraceTimer::new_at(i as u64 + 1, *started);
                let mut trace = timer.finish();
                let mut cumulative = 0u64;
                for (slot, delta) in deltas.iter().enumerate() {
                    cumulative += delta;
                    trace.marks[slot] = cumulative;
                }
                trace
            })
            .collect();
        let events: Vec<Event> = events
            .iter()
            .enumerate()
            .map(|(i, (at, meta))| event(*at, *meta, i as u64))
            .collect();
        let json = chrome_trace_json(&events, &traces);
        let value = json::parse(&json).expect("export must be valid JSON");

        prop_assert!(matches!(&value, json::Value::Object(_)), "root is not an object");
        let Some(json::Value::Array(trace_events)) = value.get("traceEvents") else {
            panic!("missing traceEvents array");
        };
        prop_assert_eq!(
            trace_events.len(),
            traces.len() * STAGE_COUNT + events.len()
        );

        // Group the "X" spans by tid and verify they tile without gaps or
        // overlaps in emission (stage) order.
        let mut span_cursor: std::collections::HashMap<u64, u64> =
            std::collections::HashMap::new();
        for entry in trace_events {
            prop_assert!(
                matches!(entry, json::Value::Object(_)),
                "trace event is not an object"
            );
            let ph = entry.get("ph").and_then(json::Value::as_str).unwrap_or("");
            let ts = entry.get("ts").and_then(json::Value::as_u64);
            prop_assert!(ts.is_some(), "ts must be a non-negative integer");
            match ph {
                "X" => {
                    let tid = entry
                        .get("tid")
                        .and_then(json::Value::as_u64)
                        .expect("span tid");
                    let dur = entry
                        .get("dur")
                        .and_then(json::Value::as_u64)
                        .expect("span dur is a non-negative integer");
                    let ts = ts.unwrap();
                    if let Some(end) = span_cursor.get(&tid) {
                        prop_assert_eq!(
                            ts, *end,
                            "tx {} stage span does not start where the previous ended", tid
                        );
                    }
                    span_cursor.insert(tid, ts + dur);
                }
                "i" => {
                    prop_assert!(entry.get("args").is_some(), "instant without args");
                }
                other => panic!("unexpected phase {other:?}"),
            }
        }
    }
}

/// A minimal recursive-descent JSON parser: enough of RFC 8259 to fully
/// validate the Chrome-trace export (objects, arrays, strings with
/// escapes, integers/floats, booleans, null) without pulling in a real
/// JSON dependency.
mod json {
    use std::collections::HashMap;

    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Number(f64),
        String(String),
        Array(Vec<Value>),
        Object(HashMap<String, Value>),
    }

    impl Value {
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::String(s) => Some(s),
                _ => None,
            }
        }

        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
                _ => None,
            }
        }
    }

    impl Value {
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Object(map) => map.get(key),
                _ => None,
            }
        }
    }

    pub fn parse(input: &str) -> Result<Value, String> {
        let bytes = input.as_bytes();
        let mut at = 0usize;
        let value = parse_value(bytes, &mut at)?;
        skip_ws(bytes, &mut at);
        if at != bytes.len() {
            return Err(format!("trailing garbage at byte {at}"));
        }
        Ok(value)
    }

    fn skip_ws(bytes: &[u8], at: &mut usize) {
        while *at < bytes.len() && matches!(bytes[*at], b' ' | b'\t' | b'\n' | b'\r') {
            *at += 1;
        }
    }

    fn expect(bytes: &[u8], at: &mut usize, byte: u8) -> Result<(), String> {
        if bytes.get(*at) == Some(&byte) {
            *at += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                byte as char,
                at,
                bytes.get(*at).map(|b| *b as char)
            ))
        }
    }

    fn parse_value(bytes: &[u8], at: &mut usize) -> Result<Value, String> {
        skip_ws(bytes, at);
        match bytes.get(*at) {
            Some(b'{') => parse_object(bytes, at),
            Some(b'[') => parse_array(bytes, at),
            Some(b'"') => Ok(Value::String(parse_string(bytes, at)?)),
            Some(b't') => parse_literal(bytes, at, "true", Value::Bool(true)),
            Some(b'f') => parse_literal(bytes, at, "false", Value::Bool(false)),
            Some(b'n') => parse_literal(bytes, at, "null", Value::Null),
            Some(b'-' | b'0'..=b'9') => parse_number(bytes, at),
            other => Err(format!("unexpected byte {other:?} at {at}")),
        }
    }

    fn parse_literal(
        bytes: &[u8],
        at: &mut usize,
        literal: &str,
        value: Value,
    ) -> Result<Value, String> {
        if bytes[*at..].starts_with(literal.as_bytes()) {
            *at += literal.len();
            Ok(value)
        } else {
            Err(format!("malformed literal at byte {at}"))
        }
    }

    fn parse_object(bytes: &[u8], at: &mut usize) -> Result<Value, String> {
        expect(bytes, at, b'{')?;
        let mut map = HashMap::new();
        skip_ws(bytes, at);
        if bytes.get(*at) == Some(&b'}') {
            *at += 1;
            return Ok(Value::Object(map));
        }
        loop {
            skip_ws(bytes, at);
            let key = parse_string(bytes, at)?;
            skip_ws(bytes, at);
            expect(bytes, at, b':')?;
            let value = parse_value(bytes, at)?;
            map.insert(key, value);
            skip_ws(bytes, at);
            match bytes.get(*at) {
                Some(b',') => *at += 1,
                Some(b'}') => {
                    *at += 1;
                    return Ok(Value::Object(map));
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }

    fn parse_array(bytes: &[u8], at: &mut usize) -> Result<Value, String> {
        expect(bytes, at, b'[')?;
        let mut items = Vec::new();
        skip_ws(bytes, at);
        if bytes.get(*at) == Some(&b']') {
            *at += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(parse_value(bytes, at)?);
            skip_ws(bytes, at);
            match bytes.get(*at) {
                Some(b',') => *at += 1,
                Some(b']') => {
                    *at += 1;
                    return Ok(Value::Array(items));
                }
                other => return Err(format!("expected ',' or ']', found {other:?}")),
            }
        }
    }

    fn parse_string(bytes: &[u8], at: &mut usize) -> Result<String, String> {
        expect(bytes, at, b'"')?;
        let mut out = String::new();
        loop {
            match bytes.get(*at) {
                Some(b'"') => {
                    *at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *at += 1;
                    match bytes.get(*at) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(*at + 1..*at + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                            *at += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    *at += 1;
                }
                Some(b) if *b < 0x20 => return Err("raw control byte in string".into()),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so this is
                    // safe to do byte-wise: find the next char boundary).
                    let start = *at;
                    *at += 1;
                    while *at < bytes.len() && (bytes[*at] & 0xC0) == 0x80 {
                        *at += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&bytes[start..*at]).map_err(|e| e.to_string())?,
                    );
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn parse_number(bytes: &[u8], at: &mut usize) -> Result<Value, String> {
        let start = *at;
        if bytes.get(*at) == Some(&b'-') {
            *at += 1;
        }
        while *at < bytes.len()
            && matches!(bytes[*at], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        {
            *at += 1;
        }
        std::str::from_utf8(&bytes[start..*at])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Number)
            .ok_or_else(|| format!("malformed number at byte {start}"))
    }
}

/// The registry's own merged timeline (outside `proptest!` so it also runs
/// under `PROPTEST_SEED` replays as a plain deterministic check): events
/// emitted through an enabled registry come back causally ordered and the
/// export over them parses.
#[test]
fn registry_journal_exports_parseable_chrome_trace() {
    let registry = MetricsRegistry::enabled();
    for i in 0..50u64 {
        registry.emit(
            Event::new(Component::Proxy, EventKind::TxBegin)
                .tx(i)
                .node(0),
        );
        registry.emit(
            Event::new(Component::Certifier, EventKind::CertifyCommit)
                .tx(i)
                .version(i + 1)
                .shard((i % 4) as usize),
        );
    }
    let events = registry.events();
    assert_eq!(events.len(), 100);
    for pair in events.windows(2) {
        assert!(pair[0].at_micros <= pair[1].at_micros);
    }
    let json = chrome_trace_json(&events, &[]);
    let value = json::parse(&json).expect("valid JSON");
    let Some(json::Value::Array(entries)) = value.get("traceEvents") else {
        panic!("missing traceEvents");
    };
    assert_eq!(entries.len(), 100);
}
