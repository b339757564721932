//! Wire-hostile input against the JSONL decoder: every mutation of a
//! valid line either fails to parse or yields an event the hash chain
//! refuses — never a panic, an abort, or a silently different event.
//! The valid lines are the golden's, one per kind.

use journal::{events_from_jsonl, verify_events, Event};

const GOLDEN: &str = include_str!("golden_events.jsonl");

/// Asserts that putting `mutated` in place of golden event `i` is
/// caught, by the parser or by chain verification.
fn assert_caught(golden: &mut [Event], i: usize, mutated: &str, what: &str) {
    let Ok(event) = Event::from_json_line(mutated) else {
        return;
    };
    let original = std::mem::replace(&mut golden[i], event);
    let verdict = verify_events(golden);
    golden[i] = original;
    assert!(
        verdict.is_err(),
        "{what} of line {i} went unnoticed: {mutated}"
    );
}

#[test]
fn truncation_at_every_byte_is_an_error() {
    for (i, line) in GOLDEN.lines().enumerate() {
        for cut in (0..line.len()).filter(|&cut| line.is_char_boundary(cut)) {
            assert!(
                Event::from_json_line(&line[..cut]).is_err(),
                "line {i} cut at {cut} parsed"
            );
        }
    }
}

#[test]
fn every_single_bit_flip_is_caught() {
    let mut golden = events_from_jsonl(GOLDEN).unwrap();
    for (i, line) in GOLDEN.lines().enumerate() {
        for at in 0..line.len() {
            for bit in 0..8 {
                let mut bytes = line.as_bytes().to_vec();
                bytes[at] ^= 1 << bit;
                if let Ok(mutated) = String::from_utf8(bytes) {
                    assert_caught(&mut golden, i, &mutated, "a bit flip");
                }
            }
        }
    }
}

/// Golden line 3 (`failover`), whose title carries `\u` escapes.
fn escaped_line() -> &'static str {
    let line = GOLDEN.lines().nth(3).unwrap();
    assert!(line.contains("\\u000a"));
    line
}

#[test]
fn lying_unicode_escapes_are_errors() {
    for lie in [
        "\\u00", "\\u00zz", "\\u+00a", "\\u000A", "\\ud800", "\\u", "\\x0a",
    ] {
        let mutated = escaped_line().replace("\\u000a", lie);
        assert!(Event::from_json_line(&mutated).is_err(), "{lie} parsed");
    }
    // A well-formed escape of a different character parses, and the
    // chain catches it.
    let mut golden = events_from_jsonl(GOLDEN).unwrap();
    let other = escaped_line().replace("\\u000a", "\\u000b");
    assert_caught(&mut golden, 3, &other, "an escape");
}

#[test]
fn numbers_out_of_range_are_errors() {
    let admit = GOLDEN.lines().next().unwrap();
    assert!(admit.contains("\"stream\":7,"));
    for (field, value) in [
        ("\"stream\":7,", "\"stream\":4294967296,"),
        ("\"stream\":7,", "\"stream\":-7,"),
        ("\"stream\":7,", "\"stream\":7.0,"),
        ("\"seq\":0,", "\"seq\":18446744073709551616,"),
        ("\"us\":1250,", "\"us\":99999999999999999999999999,"),
    ] {
        let mutated = admit.replace(field, value);
        assert_ne!(mutated, admit);
        assert!(Event::from_json_line(&mutated).is_err(), "{value} parsed");
    }
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    assert!(Event::from_json_line(&"{\"a\":".repeat(200_000)).is_err());
    let admit = GOLDEN.lines().next().unwrap();
    let nested = admit.replace("\"stream\":7,", "\"stream\":{\"n\":7},");
    assert!(Event::from_json_line(&nested).is_err());
}

#[test]
fn unknown_and_duplicate_fields_are_errors() {
    let admit = GOLDEN.lines().next().unwrap();
    for (field, value) in [
        // A payload key the row does not declare.
        ("\"stream\":7,", "\"stream\":7,\"extra\":1,"),
        // The same payload key twice.
        ("\"stream\":7,", "\"stream\":7,\"stream\":7,"),
        // The same at the top level.
        ("\"us\":1250,", "\"us\":1250,\"note\":\"x\","),
        ("\"us\":1250,", "\"us\":1250,\"us\":1250,"),
    ] {
        let mutated = admit.replace(field, value);
        assert_ne!(mutated, admit);
        assert!(Event::from_json_line(&mutated).is_err(), "{value} parsed");
    }
    // Width is as hostile as depth: the checks stop at the first
    // offender instead of comparing every key with every other.
    let wide: Vec<String> = (0..200_000).map(|i| format!("\"k{i}\":0")).collect();
    assert!(Event::from_json_line(&format!("{{{}}}", wide.join(","))).is_err());
    let twins = vec!["\"seq\":0"; 200_000].join(",");
    assert!(Event::from_json_line(&format!("{{{twins}}}")).is_err());
}
