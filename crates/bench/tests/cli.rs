//! The `report` binary rejects bad command-line input before it simulates
//! anything, and fails a run whose artifacts could not be written. Every
//! case pairs the bad input with `--table1` or `--table2`, which render
//! without simulating, so a binary that ignored the input would exit 0
//! quickly instead of hanging on a full report.

use std::ffi::OsStr;
use std::fmt::Debug;
use std::path::PathBuf;
use std::process::{Command, Output};

fn report<A: AsRef<OsStr>>(args: &[A]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_report"))
        .args(args)
        .output()
        .expect("run the report binary")
}

/// Asserts a usage error: exit status 2, nothing rendered, and a message
/// naming `flag`.
fn assert_usage_error<A: AsRef<OsStr> + Debug>(args: &[A], flag: &str) {
    let out = report(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} rendered output");
    assert!(stderr.contains(flag), "{args:?}: {stderr}");
}

#[test]
fn an_unparsable_seed_is_rejected() {
    assert_usage_error(&["--seed", "x", "--table1"], "--seed");
}

#[test]
fn a_trailing_flag_without_its_value_is_rejected() {
    assert_usage_error(&["--table1", "--threads"], "--threads");
}

#[test]
fn an_unknown_flag_is_rejected() {
    assert_usage_error(&["--cluser", "--table1"], "--cluser");
}

/// A flag or a value that is not UTF-8 is named in its lossy form, with
/// U+FFFD for the bad byte.
#[cfg(unix)]
#[test]
fn a_non_utf8_argument_is_rejected() {
    use std::os::unix::ffi::OsStrExt;
    let bad_flag = OsStr::from_bytes(b"--seed\xff");
    assert_usage_error(&[bad_flag, OsStr::new("--table1")], "--seed\u{FFFD}");
    let bad_value = OsStr::from_bytes(b"\xff");
    assert_usage_error(
        &[OsStr::new("--seed"), bad_value, OsStr::new("--table1")],
        "\u{FFFD}\" is not UTF-8",
    );
}

#[test]
fn a_failed_artifact_write_finishes_the_run_and_exits_1() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("duplexity-cli-json-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // A directory where the artifact file should go makes its write fail.
    std::fs::create_dir_all(dir.join("table2.json")).expect("create the blocking directory");
    let out = report(&["--table2", "--json", dir.to_str().expect("UTF-8 temp path")]);
    let manifest_written = dir.join("table2.json.manifest.json").is_file();
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("failed to write"), "{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("Table II"));
    assert!(manifest_written, "the run stopped at the failed write");
}
