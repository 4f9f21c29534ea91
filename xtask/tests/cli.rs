//! End-to-end tests for the `xtask` binary: exit codes, the per-rule
//! fixture trees under `tests/fixtures/`, and the byte-for-byte pinned
//! `--json` report (same discipline as `crates/fsck/tests/cli.rs`).

use std::process::Command;

fn fixture(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn xtask(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(args)
        .output()
        .expect("spawn xtask");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn analyze_fixture(name: &str) -> (i32, String, String) {
    xtask(&["analyze", "--root", &fixture(name)])
}

#[test]
fn clean_fixture_exits_zero() {
    let (code, stdout, stderr) = analyze_fixture("clean");
    assert_eq!(code, 0, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("0 finding(s)"), "stdout: {stdout}");
}

#[test]
fn vfs_fixture_trips_vfs_io() {
    let (code, stdout, _) = analyze_fixture("vfs_bad");
    assert_eq!(code, 1);
    assert!(stdout.contains("[vfs-io/high]"), "stdout: {stdout}");
}

#[test]
fn lock_cycle_fixture_trips_lock_cycle() {
    let (code, stdout, _) = analyze_fixture("lock_cycle");
    assert_eq!(code, 1);
    assert!(stdout.contains("[lock-cycle/high]"), "stdout: {stdout}");
    assert!(stdout.contains("{alpha, beta}"), "stdout: {stdout}");
}

#[test]
fn lock_poison_fixture_trips_lock_poison() {
    let (code, stdout, _) = analyze_fixture("lock_poison");
    assert_eq!(code, 1);
    assert!(stdout.contains("[lock-poison/medium]"), "stdout: {stdout}");
}

#[test]
fn wire_fixture_trips_both_wire_rules() {
    let (code, stdout, _) = analyze_fixture("wire_bad");
    assert_eq!(code, 1);
    assert!(stdout.contains("[wire-cast/medium]"), "stdout: {stdout}");
    assert!(stdout.contains("[wire-alloc/high]"), "stdout: {stdout}");
    assert!(
        stdout.contains("crates/storage/src/lib.rs:10: [wire-alloc/high]"),
        "an unchecked map capacity in an on-disk decoder: {stdout}"
    );
    assert!(
        stdout.contains("crates/proto/src/lib.rs:22: [wire-alloc/high]"),
        "an unrelated `MAX_*` constant above does not bound the allocation: {stdout}"
    );
}

#[test]
fn net_fixture_trips_net_io() {
    let (code, stdout, _) = analyze_fixture("net_bad");
    assert_eq!(code, 1);
    assert!(stdout.contains("[net-io/high]"), "stdout: {stdout}");
}

#[test]
fn one_path_fixture_trips_one_path() {
    let (code, stdout, _) = analyze_fixture("one_path_bad");
    assert_eq!(code, 1);
    assert!(
        stdout.contains("crates/dedup/src/lib.rs:8: [one-path/medium] `thread::scope`"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("1 finding(s)"), "stdout: {stdout}");
}

#[test]
fn one_client_fixture_trips_each_client_row() {
    let (code, stdout, _) = analyze_fixture("one_client_bad");
    assert_eq!(code, 1);
    for (line, token) in [
        (9, "write_staged"),
        (15, "Socket::connect"),
        (16, "DataWriter::new"),
        (18, "write_staged"),
    ] {
        let finding = format!("crates/cli/src/lib.rs:{line}: [one-path/medium] `{token}`");
        assert!(stdout.contains(&finding), "{finding}\nstdout: {stdout}");
    }
    assert!(stdout.contains("4 finding(s)"), "stdout: {stdout}");
}

#[test]
fn panic_fixture_trips_panic_marker() {
    let (code, stdout, _) = analyze_fixture("panic_bad");
    assert_eq!(code, 1);
    assert!(stdout.contains("[panic-marker/medium]"), "stdout: {stdout}");
}

#[test]
fn panic_call_fixture_trips_panic_call() {
    let (code, stdout, _) = analyze_fixture("panic_call_bad");
    assert_eq!(code, 1);
    assert!(
        stdout.contains("crates/misc/src/lib.rs:8: [panic-call/medium] forbidden `unwrap()`"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("1 finding(s)"), "stdout: {stdout}");
}

#[test]
fn crate_attr_fixture_trips_crate_root_attr() {
    let (code, stdout, _) = analyze_fixture("crate_attr_bad");
    assert_eq!(code, 1);
    for attr in ["#![forbid(unsafe_code)]", "#![warn(missing_docs)]"] {
        assert!(
            stdout.contains(&format!(
                "crates/bare/src/lib.rs: [crate-root-attr/medium] crate root is missing `{attr}`"
            )),
            "stdout: {stdout}"
        );
    }
    assert!(stdout.contains("2 finding(s)"), "stdout: {stdout}");
}

#[test]
fn json_report_is_pinned_byte_for_byte() {
    let (code, stdout, _) = xtask(&["analyze", "--json", "--root", &fixture("vfs_bad")]);
    assert_eq!(code, 1);
    assert_eq!(
        stdout,
        "{\"tool\":\"xtask-analyze\",\"schema\":1,\"clean\":false,\"files\":2,\
         \"findings\":[{\"rule\":\"vfs-io\",\"severity\":\"high\",\
         \"file\":\"crates/store/src/lib.rs\",\"line\":8,\
         \"message\":\"direct `std::fs` bypasses the Vfs shim \
         (crash-matrix blind spot): std::fs::write(path, data)\"},\
         {\"rule\":\"vfs-io\",\"severity\":\"high\",\
         \"file\":\"crates/tree/src/lib.rs\",\"line\":6,\
         \"message\":\"direct `std::fs` bypasses the Vfs shim \
         (crash-matrix blind spot): use std::fs;\"},\
         {\"rule\":\"vfs-io\",\"severity\":\"high\",\
         \"file\":\"crates/tree/src/lib.rs\",\"line\":10,\
         \"message\":\"direct `fs::` module access bypasses the Vfs shim \
         (crash-matrix blind spot): fs::read(path)\"}]}\n"
    );
}

#[test]
fn clean_json_report_is_pinned_byte_for_byte() {
    let (code, stdout, _) = xtask(&["analyze", "--json", "--root", &fixture("clean")]);
    assert_eq!(code, 0);
    assert_eq!(
        stdout,
        "{\"tool\":\"xtask-analyze\",\"schema\":1,\"clean\":true,\"files\":1,\"findings\":[]}\n"
    );
}

#[test]
fn shipped_tree_is_clean() {
    // The repository's own sources plus the checked-in allowlist must pass:
    // this is the wall ci.sh runs.
    let (code, stdout, stderr) = xtask(&["analyze"]);
    assert_eq!(code, 0, "stdout: {stdout}\nstderr: {stderr}");
}

#[test]
fn usage_errors_exit_two() {
    assert_eq!(xtask(&[]).0, 2);
    assert_eq!(xtask(&["frobnicate"]).0, 2);
    assert_eq!(xtask(&["analyze", "--bogus"]).0, 2);
    assert_eq!(xtask(&["analyze", "--root"]).0, 2);
}

#[test]
fn help_exits_zero_with_usage() {
    let (code, stdout, _) = xtask(&["help"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("cargo xtask <task>"), "stdout: {stdout}");
    assert!(stdout.contains("analyze"), "stdout: {stdout}");
}
