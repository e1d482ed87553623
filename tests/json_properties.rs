//! `serde_json::parse_value` on damaged and hostile documents.
//!
//! Every artifact, cache entry and trace this workspace reads back goes
//! through the vendored JSON parser. Parsing must return `Ok` or `Err`,
//! never panic or abort, and must take one pass over its input. The
//! property overwrites bytes of committed golden fixtures and cuts their
//! tails; the hostile-document test feeds inputs built to expose a
//! quadratic or recursive parser.

use proptest::prelude::*;
use serde_json::{parse_value, Value};
use std::sync::OnceLock;

/// Three committed fixtures of different shapes: a grid of float records,
/// a timeline of nested series and a table of request-engine results.
fn fixtures() -> &'static [&'static str; 3] {
    static FIXTURES: OnceLock<[&'static str; 3]> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let docs = [
            include_str!("golden/fig5_small_grid.json"),
            include_str!("golden/timeline.json"),
            include_str!("golden/request_engines.json"),
        ];
        for doc in docs {
            parse_value(doc).expect("an undamaged fixture parses");
        }
        docs
    })
}

/// About 4 MiB, the size of each hostile document.
const HOSTILE_BYTES: usize = 4 << 20;

/// Each document parses or fails in one pass over its 4 MiB. A parser that
/// rescans its input per token, or per nesting level, turns this test into
/// a hang rather than a slow pass, as in `serde_json`'s own
/// `large_strings_parse_in_linear_time`.
#[test]
fn hostile_documents_parse_or_fail_in_one_pass() {
    // One string of nothing but escapes: `\"`, `\\` and `\u0041`.
    let escapes = r#"\"\\\u0041"#;
    let n = HOSTILE_BYTES / escapes.len();
    let doc = format!("[\"{}\"]", escapes.repeat(n));
    let Value::Array(items) = parse_value(&doc).expect("escaped string") else {
        panic!("expected an array");
    };
    assert!(matches!(&items[0], Value::Str(s) if s.len() == 3 * n));

    // A number of four million digits overflows every integer type.
    let doc = "9".repeat(4_000_000);
    assert!(parse_value(&doc).is_err());

    // Arrays 127 levels deep, repeated: with the outer array, each copy
    // sits exactly at the 128-level cap.
    let deep = "[".repeat(127) + &"]".repeat(127);
    let n = HOSTILE_BYTES / (deep.len() + 1);
    let doc = format!("[{}]", vec![deep; n].join(","));
    let Value::Array(items) = parse_value(&doc).expect("127 levels under one array") else {
        panic!("expected an array");
    };
    assert_eq!(items.len(), n);

    // An object with 200k keys.
    let fields: Vec<String> = (0..200_000).map(|i| format!("\"k{i:012}\":{i}")).collect();
    let doc = format!("{{{}}}", fields.join(","));
    assert!(doc.len() >= HOSTILE_BYTES);
    let Value::Object(fields) = parse_value(&doc).expect("wide object") else {
        panic!("expected an object");
    };
    assert_eq!(fields.len(), 200_000);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Overwritten bytes and, in half the cases, a cut tail: the parser
    /// returns either way. Bytes that break UTF-8 reach it as U+FFFD.
    #[test]
    fn damaged_fixtures_parse_or_fail_without_panicking(
        fixture in 0..3usize,
        overwrites in prop::collection::vec((any::<usize>(), any::<u8>()), 1..8),
        keep in prop::option::of(any::<usize>()),
    ) {
        let mut bytes = fixtures()[fixture].as_bytes().to_vec();
        for (at, byte) in overwrites {
            let at = at % bytes.len();
            bytes[at] = byte;
        }
        if let Some(keep) = keep {
            bytes.truncate(keep % (bytes.len() + 1));
        }
        let _ = parse_value(&String::from_utf8_lossy(&bytes));
    }
}
