//! The `custom` binary's contract for Destor-style config files: a bad
//! config is refused with exit 2, a message naming what is accepted, and
//! nothing on stdout; a good one runs the experiment.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run_custom(name: &str, config: &str) -> Output {
    let dir = std::env::temp_dir().join(format!("hds-custom-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path: PathBuf = dir.join(format!("{name}.config"));
    std::fs::write(&path, config).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_custom"))
        .arg(&path)
        .env("HIDESTORE_MB", "1")
        .env("HIDESTORE_VERSIONS", "2")
        .output()
        .unwrap();
    std::fs::remove_file(&path).unwrap();
    out
}

fn assert_refused(name: &str, config: &str, mentions: &[&str]) {
    let out = run_custom(name, config);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
    assert!(out.stdout.is_empty(), "{name}: wrote to stdout");
    for word in mentions {
        assert!(stderr.contains(word), "{name}: {stderr:?} lacks {word:?}");
    }
}

#[test]
fn retired_index_is_refused_naming_the_paper_baselines() {
    assert_refused(
        "extreme-binning",
        "index = extreme-binning\n",
        &["extreme-binning", "ddfs", "sparse", "silo"],
    );
}

#[test]
fn out_of_range_values_are_refused_not_panics() {
    assert_refused("chunk", "chunk = 10\n", &["64-byte minimum"]);
    assert_refused("segment", "segment = 0\n", &["segment"]);
    assert_refused("container", "container = 100\n", &["cannot hold"]);
}

#[test]
fn valid_config_runs_the_experiment() {
    let out = run_custom(
        "silo-capping",
        "chunk = 2048\ncontainer = 131072\nindex = silo\nrewrite = capping\ncap = 4\n",
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("cumulative dedup ratio"), "{stdout}");
}
