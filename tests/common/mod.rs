//! Shared fixtures and comparison helpers for the integration-test suite.
//!
//! Every golden-regression target (`tests/golden.rs`,
//! `tests/hedge_determinism.rs`, …) compares a regenerated artifact byte
//! for byte against a checked-in JSON fixture under `tests/golden/`, and
//! every determinism target compares two runs of the same grid bitwise.
//! Both comparisons live here so a failure names the **first mismatching
//! cell and field** (e.g. `[12].p99_us`) instead of dumping two
//! multi-kilobyte JSON strings.
//!
//! Since the workspace JSON writer emits shortest-round-trip floats
//! (including a distinct `-0`), byte equality of two serialized artifacts
//! is exactly bit equality of every finite float in them.

// Each test target compiles this module independently and uses a subset.
#![allow(dead_code)]

use serde::Serialize;
use serde_json::{parse_value, Value};
use std::path::PathBuf;

/// The checked-in fixture directory, `tests/golden/` at the workspace root.
pub fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Serializes `value` with the workspace's deterministic pretty writer
/// (trailing newline included, matching the on-disk fixtures).
pub fn pretty_json<T: Serialize>(value: &T) -> String {
    let mut s = serde_json::to_string_pretty(value).expect("serialize artifact");
    s.push('\n');
    s
}

/// Walks two JSON values in lockstep and describes the first diverging
/// path, e.g. `[12].p99_us: 31.5 vs 31.25`. Returns `None` when equal.
pub fn first_mismatch(a: &Value, b: &Value) -> Option<String> {
    fn walk(a: &Value, b: &Value, path: &str) -> Option<String> {
        if a == b {
            return None;
        }
        match (a, b) {
            (Value::Array(xs), Value::Array(ys)) => {
                if xs.len() != ys.len() {
                    return Some(format!("{path}: array length {} vs {}", xs.len(), ys.len()));
                }
                xs.iter()
                    .zip(ys)
                    .enumerate()
                    .find_map(|(i, (x, y))| walk(x, y, &format!("{path}[{i}]")))
            }
            (Value::Object(xs), Value::Object(ys)) => {
                if xs.len() != ys.len() || xs.iter().zip(ys).any(|((ka, _), (kb, _))| ka != kb) {
                    return Some(format!(
                        "{path}: field sets differ ({:?} vs {:?})",
                        xs.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
                        ys.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>()
                    ));
                }
                xs.iter()
                    .zip(ys)
                    .find_map(|((k, x), (_, y))| walk(x, y, &format!("{path}.{k}")))
            }
            _ => Some(format!("{path}: {a:?} vs {b:?}")),
        }
    }
    walk(a, b, "")
}

/// Describes where two serialized artifacts first diverge, preferring the
/// structural cell/field path and falling back to the first differing
/// byte offset for non-JSON drift (e.g. whitespace).
fn describe_drift(actual: &str, expected: &str) -> String {
    if let (Ok(a), Ok(b)) = (parse_value(actual), parse_value(expected)) {
        if let Some(m) = first_mismatch(&a, &b) {
            return format!("first mismatch at {m}");
        }
    }
    let at = actual
        .bytes()
        .zip(expected.bytes())
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| actual.len().min(expected.len()));
    format!(
        "texts diverge at byte {at} (lengths {} vs {})",
        actual.len(),
        expected.len()
    )
}

/// Compares `value`'s pretty JSON against `tests/golden/<name>.json`, or
/// rewrites the fixture when `UPDATE_GOLDEN=1` is set. `test_target` is the
/// `cargo test --test <target>` that owns the fixture, quoted in the
/// regeneration hint.
pub fn assert_matches_golden<T: Serialize>(test_target: &str, name: &str, value: &T) {
    assert_text_matches_golden(test_target, &format!("{name}.json"), &pretty_json(value));
}

/// [`assert_matches_golden`] for an artifact that renders its own text
/// (e.g. `Timeline::to_json`, or a rendered report table), compared
/// against `tests/golden/<file>`.
pub fn assert_text_matches_golden(test_target: &str, file: &str, actual: &str) {
    let path = golden_dir().join(file);
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, actual).expect("write golden fixture");
        eprintln!("updated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\nrun `UPDATE_GOLDEN=1 cargo test --test {test_target}` to create it",
            path.display()
        )
    });
    assert!(
        actual == expected,
        "{file} drifted from its golden fixture ({}); if the change is \
         intentional, regenerate with `UPDATE_GOLDEN=1 cargo test --test \
         {test_target}` and review `git diff tests/golden/`",
        describe_drift(actual, &expected)
    );
}

/// Asserts two runs of the same artifact are **bit-identical**, naming the
/// first mismatching cell/field. Shortest-round-trip serialization makes
/// byte equality of the JSON exactly bit equality of every finite float.
pub fn assert_identical_artifacts<T: Serialize>(label: &str, a: &T, b: &T) {
    let ja = pretty_json(a);
    let jb = pretty_json(b);
    assert!(
        ja == jb,
        "{label}: artifacts are not bit-identical ({})",
        describe_drift(&ja, &jb)
    );
}
