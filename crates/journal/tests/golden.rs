//! The wire format, pinned: `golden_events.jsonl` holds one chained
//! event of every kind (three actors; a quote, a backslash, control
//! characters and a non-ASCII title among the strings) exactly as the
//! code before the schema table wrote it. Hashes cover the canonical
//! payload bytes, so a moved byte anywhere fails here before it can
//! move a committed digest.
//!
//! Adding a kind: add its row to the schema table and one line to the
//! golden — next `seq`, `prev` = that actor's latest `hash`, any
//! `hash`; the failure message of `verify_events` names the hash to
//! paste in.

use journal::{events_from_jsonl, kind, verify_events};
use std::collections::BTreeSet;

const GOLDEN: &str = include_str!("golden_events.jsonl");

#[test]
fn golden_round_trips_byte_identically() {
    let events = events_from_jsonl(GOLDEN).expect("golden parses");
    verify_events(&events).expect("golden chain intact");
    let again: String = events.iter().map(|e| e.to_json_line() + "\n").collect();
    assert_eq!(again, GOLDEN);
}

#[test]
fn golden_covers_every_kind_once() {
    let events = events_from_jsonl(GOLDEN).expect("golden parses");
    let tags: Vec<&str> = events.iter().map(|e| e.kind.tag()).collect();
    assert_eq!(tags.len(), kind::ALL.len(), "one golden line per kind");
    let golden: BTreeSet<&str> = tags.into_iter().collect();
    let schema: BTreeSet<&str> = kind::ALL.iter().copied().collect();
    assert_eq!(golden, schema, "a schema row without a golden line");
    let actors: BTreeSet<&str> = events.iter().map(|e| e.server.as_str()).collect();
    assert_eq!(actors.len(), 3);
}
