//! The vendored JSON codec's gate.
//!
//! `vendor/` sits outside the workspace, so its crates' own tests never
//! run under `cargo test --workspace`. This suite is where the codec is
//! checked instead:
//!
//! * serde_json's round-trip tests;
//! * absolute digests of the bytes the serializer writes for a small
//!   simulated market. Those bytes *are* the NDJSON wire format, the
//!   store's record payloads and the input of every content fingerprint,
//!   so a serializer change that shifted them — even uniformly, which
//!   the batch-vs-stream equivalence suites cannot see — would make every
//!   existing store fail its recovery proof;
//! * round trips of escapes, raw multi-byte UTF-8 and control characters
//!   in keys and values;
//! * the exact message and byte offset of each malformed-input error.

use std::collections::BTreeMap;

use dial_model::{ContentHash, Dataset};
use dial_sim::SimConfig;
use dial_stream::{decode_ndjson, encode_ndjson, event_log, Event};
use serde::{Deserialize, Serialize};
use serde_json::{from_str, to_string, Value};

// ---------------------------------------------------------------------------
// serde_json's own tests
// ---------------------------------------------------------------------------

#[test]
fn value_round_trip() {
    let text = r#"{"a":[1,2.5,"x"],"b":{"c":true,"d":null}}"#;
    let v: Value = from_str(text).unwrap();
    assert_eq!(to_string(&v).unwrap(), text);
    assert_eq!(v.get("a").as_array().unwrap().len(), 3);
    assert_eq!(v.get("b").get("c"), &Value::Bool(true));
    assert_eq!(v.get("missing"), &Value::Null);
}

#[test]
fn escapes_round_trip() {
    let v = Value::String("line\nquote\"backslash\\tab\tünïcode".into());
    let json = to_string(&v).unwrap();
    let back: Value = from_str(&json).unwrap();
    assert_eq!(back, v);
}

#[test]
fn trailing_garbage_is_an_error() {
    assert!(from_str::<Value>("1 2").is_err());
}

// ---------------------------------------------------------------------------
// Byte pins
// ---------------------------------------------------------------------------

/// `(ContentHash::of(bytes), bytes.len())`.
fn digest(bytes: &str) -> (u64, usize) {
    (ContentHash::of(bytes.as_bytes()), bytes.len())
}

/// The serializer's bytes for a small market, pinned to the values the
/// codec wrote before its kernels were rewritten for speed. A failure
/// here means stores and fingerprints written by earlier builds no longer
/// verify.
#[test]
fn serializer_bytes_are_pinned() {
    let out = SimConfig::paper_default().with_seed(23).with_scale(0.03).simulate_full();
    let ndjson = encode_ndjson(&event_log(&out));
    let dataset = to_string(&out.dataset).unwrap();
    let ledger = to_string(&out.ledger).unwrap();

    assert_eq!(digest(&ndjson), (0x3dfe_90f5_edcb_0370, 2_164_366), "event-log NDJSON");
    assert_eq!(digest(&dataset), (0xd7c3_605c_3179_c201, 1_869_047), "dataset JSON");
    assert_eq!(digest(&ledger), (0xecb8_7463_c7f6_f734, 731), "ledger JSON");
    assert_eq!(out.dataset.fingerprint(), 0x0ac7_20a0_bd52_32df, "dataset fingerprint");
    assert_eq!(out.ledger.fingerprint(), 0xb18f_3337_445a_767c, "ledger fingerprint");

    // And the bytes read back to the same values.
    assert_eq!(decode_ndjson(&ndjson).unwrap(), event_log(&out));
    let back: Dataset = from_str(&dataset).unwrap();
    assert_eq!(back.reindex().fingerprint(), out.dataset.fingerprint());
}

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

/// Every control character, the characters JSON must escape, `/`, DEL
/// and raw 2-, 3- and 4-byte UTF-8.
fn awkward() -> String {
    let mut s: String = (0u8..0x20).map(char::from).collect();
    s.push_str("\"\\/\u{7f} é € 😀 end");
    s
}

#[test]
fn serializer_escapes_only_quote_backslash_and_control_characters() {
    let s = "a\u{0}\u{8}\t\n\u{c}\r\u{1f}\"\\/\u{7f}é€😀";
    assert_eq!(
        to_string(s).unwrap(),
        r#""a\u0000\u0008\t\n\u000c\r\u001f\"\\/"#.to_string() + "\u{7f}é€😀\""
    );
    assert_eq!(to_string(&'"').unwrap(), r#""\"""#);
    assert_eq!(to_string(&'😀').unwrap(), "\"😀\"");
}

#[test]
fn integers_and_floats_keep_their_bytes() {
    assert_eq!(to_string(&0u8).unwrap(), "0");
    assert_eq!(to_string(&u64::MAX).unwrap(), "18446744073709551615");
    assert_eq!(to_string(&usize::MAX).unwrap(), usize::MAX.to_string());
    assert_eq!(to_string(&i64::MIN).unwrap(), "-9223372036854775808");
    assert_eq!(to_string(&i8::MIN).unwrap(), "-128");
    assert_eq!(to_string(&-7i32).unwrap(), "-7");
    for v in [9u64, 10, 99, 100, 101, 999, 1_000, 12_345, 1_000_000_007] {
        assert_eq!(to_string(&v).unwrap(), v.to_string());
    }
    for v in [0.0f64, -0.0, 1.5, 0.1, 1e21, 1e-7, 123_456.789, f64::MIN_POSITIVE] {
        assert_eq!(to_string(&v).unwrap(), v.to_string());
    }
    assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    assert_eq!(to_string(&0.25f32).unwrap(), "0.25");
}

#[test]
fn awkward_strings_round_trip_in_keys_and_values() {
    let s = awkward();
    let back: String = from_str(&to_string(&s).unwrap()).unwrap();
    assert_eq!(back, s);

    let map: BTreeMap<String, String> =
        [(s.clone(), s.clone()), ("plain".into(), "é".into()), (String::new(), "\n".into())]
            .into_iter()
            .collect();
    let back: BTreeMap<String, String> = from_str(&to_string(&map).unwrap()).unwrap();
    assert_eq!(back, map);

    let value = Value::Object([(s.clone(), Value::String(s.clone()))].into_iter().collect());
    let json = to_string(&value).unwrap();
    assert_eq!(from_str::<Value>(&json).unwrap(), value);
    assert_eq!(json, value.to_string());
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Titled {
    ab: String,
    n: u32,
}

#[test]
fn derived_keys_match_escaped_and_unknown_keys_are_skipped() {
    let t = Titled { ab: awkward(), n: 3 };
    assert_eq!(from_str::<Titled>(&to_string(&t).unwrap()).unwrap(), t);
    // A key spelled with an escape names the same field.
    let v: Titled = from_str(r#"{"a\u0062":"x","extra":{"k":["\"",1]},"n":2}"#).unwrap();
    assert_eq!(v, Titled { ab: "x".into(), n: 2 });
}

#[test]
fn escapes_the_serializer_never_writes_decode() {
    let v: String = from_str(r#""\b\f\/\u00e9\u20AC€""#).unwrap();
    assert_eq!(v, "\u{8}\u{c}/é€€");
}

#[test]
fn escape_free_strings_are_borrowed_from_the_input() {
    use serde::de::Parser;
    use std::borrow::Cow;
    let mut p = Parser::new(r#" "plain é" "esc\n" "#);
    assert!(matches!(p.parse_str().unwrap(), Cow::Borrowed("plain é")));
    assert!(matches!(p.parse_str().unwrap(), Cow::Owned(s) if s == "esc\n"));
    p.finish().unwrap();
}

// ---------------------------------------------------------------------------
// Surrogate pairs
// ---------------------------------------------------------------------------

#[test]
fn escaped_surrogate_pairs_decode_to_one_character() {
    let v: String = from_str(r#""deal \ud83d\ude00 now \uD834\uDD1E""#).unwrap();
    assert_eq!(v, "deal 😀 now 𝄞");
}

/// A `ThreadStarted` line whose title carries a non-BMP character as an
/// escaped surrogate pair — what Python's `json.dumps` writes by default —
/// decodes to the same event as the raw UTF-8 line.
#[test]
fn ingest_accepts_a_title_with_an_escaped_surrogate_pair() {
    let dataset = SimConfig::paper_default().with_seed(5).with_scale(0.01).simulate();
    let mut thread = dataset.threads()[0].clone();
    thread.title = "deal 😀 now".into();
    let event = Event::ThreadStarted { thread };
    let events = std::slice::from_ref(&event);
    let raw = encode_ndjson(events);
    let escaped = raw.replace('😀', r"\ud83d\ude00");
    assert_ne!(raw, escaped);
    assert_eq!(decode_ndjson(&raw).unwrap(), events);
    assert_eq!(decode_ndjson(&escaped).unwrap(), events);
}

#[test]
fn lone_reversed_and_malformed_surrogates_are_refused() {
    for (json, msg) in [
        (r#""\ud83d""#, "invalid unicode escape at byte 7"),
        (r#""\ud83d x""#, "invalid unicode escape at byte 7"),
        (r#""\ude00\ud83d""#, "invalid unicode escape at byte 7"),
        (r#""\ud83d\ud83d""#, "invalid unicode escape at byte 7"),
        (r#""\ud83dA""#, "invalid unicode escape at byte 7"),
        (r#""\ud83d\ude0""#, "invalid unicode escape at byte 7"),
        (r#""\ud83d\n""#, "invalid unicode escape at byte 7"),
    ] {
        assert_eq!(err::<String>(json), msg, "{json}");
    }
}

#[test]
fn unicode_escapes_need_exactly_four_hex_digits() {
    assert_eq!(err::<String>(r#""x\u+041""#), "invalid \\u escape at byte 4");
    assert_eq!(err::<String>(r#""x\u-041""#), "invalid \\u escape at byte 4");
    assert_eq!(err::<String>(r#""x\u 041""#), "invalid \\u escape at byte 4");
    assert_eq!(from_str::<String>(r#""x\u0041""#).unwrap(), "xA");
}

// ---------------------------------------------------------------------------
// Error messages and offsets
// ---------------------------------------------------------------------------

fn err<T: serde::Deserialize + std::fmt::Debug>(json: &str) -> String {
    from_str::<T>(json).unwrap_err().to_string()
}

#[test]
fn malformed_strings_keep_their_messages_and_offsets() {
    assert_eq!(err::<String>(r#""abc"#), "unterminated string at byte 4");
    assert_eq!(err::<String>(r#""a\nbc"#), "unterminated string at byte 6");
    assert_eq!(err::<String>(r#""abc\"#), "unterminated escape at byte 5");
    assert_eq!(err::<String>(r#""a\qb""#), "unknown escape at byte 4");
    assert_eq!(err::<String>(r#""\u12"#), "truncated \\u escape at byte 3");
    assert_eq!(err::<String>(r#""\u12"x"#), "invalid \\u escape at byte 3");
    assert_eq!(err::<String>(r#""\u12é""#), "invalid \\u escape at byte 3");
    assert_eq!(err::<String>(r#""\u123é""#), "truncated \\u escape at byte 3");
    assert_eq!(err::<String>("  \"é"), "unterminated string at byte 5");
    assert_eq!(err::<String>("7"), "expected `\"`, found `7` at byte 0");
    assert_eq!(err::<Value>("1 2"), "trailing characters after JSON value at byte 2");
    assert_eq!(err::<Value>(r#"{"a":1} x"#), "trailing characters after JSON value at byte 8");
}

#[test]
fn an_unknown_event_kind_is_named_at_its_key() {
    assert_eq!(
        decode_ndjson(r#"{"ThreadOpened":{"thread":{"id":0}}}"#).unwrap_err(),
        "line 1: unknown Event variant `ThreadOpened` at byte 1"
    );
    assert_eq!(
        decode_ndjson(r#"{ "Bogus" :1}"#).unwrap_err(),
        "line 1: unknown Event variant `Bogus` at byte 2"
    );
    assert_eq!(
        err::<dial_model::ContractStatus>(r#"  "Settled""#),
        "unknown ContractStatus variant `Settled` at byte 2"
    );
}

/// A unit struct, and a tuple struct whose only field is skipped: both
/// travel as `null`.
#[derive(Serialize, Deserialize, Debug)]
struct Marker;

#[derive(Serialize, Deserialize, Debug)]
struct Skipped(#[serde(skip)] ());

#[test]
fn a_value_of_the_wrong_kind_is_reported_where_it_starts() {
    assert_eq!(
        decode_ndjson(r#"{"ContractCreated":{"contract":{"id":0,"status":5}}}"#).unwrap_err(),
        "line 1: expected a ContractStatus variant at byte 48"
    );
    assert_eq!(
        err::<dial_model::ContractStatus>(" [1]"),
        "expected a ContractStatus variant at byte 1"
    );
    assert_eq!(err::<Marker>("  0"), "expected null at byte 2");
    assert_eq!(err::<Skipped>(" {}"), "expected null at byte 1");
    assert_eq!(err::<Value>(r#"[1, nul]"#), "expected null at byte 4");
}

#[test]
fn a_missing_field_is_reported_at_the_object_that_lacks_it() {
    assert_eq!(
        decode_ndjson(r#"{"Watermark":{}}"#).unwrap_err(),
        "line 1: missing field `Watermark.month` at byte 13"
    );
    assert_eq!(
        decode_ndjson(r#"{"ThreadStarted":{"thread":{"id":0}}}"#).unwrap_err(),
        "line 1: missing field `Thread.author` at byte 27"
    );
    assert_eq!(err::<Titled>(r#" {"ab":"x"}"#), "missing field `Titled.n` at byte 1");
}
