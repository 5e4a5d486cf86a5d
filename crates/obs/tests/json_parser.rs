//! `JsonValue::parse` on input it did not write: any text returns `Ok`
//! or `Err` without panicking, escaped strings round-trip as values and
//! as keys, and parse time grows linearly with the document.

use std::time::{Duration, Instant};

use gms_obs::{escape_json, perfetto_trace, Event, FaultClass, JsonValue};
use gms_units::{NetResource, NodeId, SimTime};
use proptest::prelude::*;

/// Pieces of JSON syntax, so that random inputs get past the first
/// byte and into every branch of the parser.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\\",
    "\\u",
    "\\u00e9",
    "\"k\":",
    "0",
    "-",
    "1.5",
    "e",
    "E+",
    ".",
    "true",
    "null",
    " ",
    "\n",
    "\u{e9}",
    "\u{2713}",
    "\u{1f600}",
];

/// Either one JSON token or a few arbitrary bytes.
fn fragment() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        (0..TOKENS.len()).prop_map(|i| TOKENS[i].as_bytes().to_vec()),
        prop::collection::vec(0u8..=255, 1..4),
    ]
}

/// Any scalar value, weighted toward the ones escaping must handle:
/// controls, `"`, `\` and every UTF-8 encoding length.
fn any_char() -> impl Strategy<Value = char> {
    prop_oneof![
        4 => 0x20u32..0x7f,
        2 => 0u32..0x20,
        1 => Just(u32::from('"')),
        1 => Just(u32::from('\\')),
        1 => 0x7fu32..0x800,
        1 => 0x800u32..0xd800,
        1 => 0xe000u32..0x1_0000,
        1 => 0x1_0000u32..0x11_0000,
    ]
    .prop_map(|c| char::from_u32(c).expect("the ranges skip the surrogates"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn arbitrary_text_never_panics(pieces in prop::collection::vec(fragment(), 0..48)) {
        let text = String::from_utf8_lossy(&pieces.concat()).into_owned();
        // `Ok` or `Err` are both fine; a panic fails the test.
        let _ = JsonValue::parse(&text);
    }

    #[test]
    fn escaped_strings_round_trip(chars in prop::collection::vec(any_char(), 0..40)) {
        let s: String = chars.into_iter().collect();
        let literal = format!("\"{}\"", escape_json(&s));
        prop_assert_eq!(JsonValue::parse(&literal), Ok(JsonValue::String(s.as_str().into())));
        // The same literal as an object key.
        let doc = format!("{{{literal}:null}}");
        prop_assert_eq!(
            JsonValue::parse(&doc),
            Ok(JsonValue::Object(vec![(s.as_str().into(), JsonValue::Null)]))
        );
    }
}

/// A 2 MiB Perfetto trace parses in a fraction of the 2 s bound. A
/// parser that rescans the rest of the document per string character
/// is quadratic and needs tens of seconds at this size.
#[test]
fn parse_time_is_linear_in_document_size() {
    let events: Vec<Event> = (0..12_000u64)
        .flat_map(|i| {
            let node = NodeId::new((i % 5) as u32);
            let at = SimTime::from_nanos(i * 1_537);
            [
                Event::Fault {
                    node,
                    page: i,
                    subpage: (i % 8) as u8,
                    class: FaultClass::Remote,
                    at_ref: i * 31,
                    at,
                },
                Event::Occupancy {
                    node,
                    resource: NetResource::WireIn,
                    what: "data",
                    ready: at,
                    start: at,
                    end: SimTime::from_nanos(i * 1_537 + 1_104),
                },
            ]
        })
        .collect();
    let doc = perfetto_trace(&events);
    assert!(doc.len() >= 2 << 20, "only {} bytes", doc.len());

    let start = Instant::now();
    let parsed = JsonValue::parse(&doc).expect("an exported trace parses");
    let took = start.elapsed();
    assert!(
        took < Duration::from_secs(2),
        "parsing {} bytes took {took:?}",
        doc.len()
    );
    let items = parsed.get("traceEvents").and_then(JsonValue::as_array);
    // 5 nodes × 7 metadata records, then every event.
    assert_eq!(items.map(<[JsonValue]>::len), Some(5 * 7 + events.len()));
}
