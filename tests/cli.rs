//! Integration tests driving the `hidestore` CLI binary end-to-end.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use hidestore::core::{HiDeStore, HiDeStoreConfig};
use hidestore::server::{serve, ServerConfig};
use hidestore::workloads::{Profile, VersionStream};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_hidestore")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("binary launches")
}

fn temp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hidestore-cli-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn noise(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as u8
        })
        .collect()
}

#[test]
fn full_cli_lifecycle() {
    let repo = temp("lifecycle");
    let repo_s = repo.to_str().unwrap();
    let data_dir = temp("lifecycle-data");
    fs::create_dir_all(&data_dir).unwrap();

    // init
    let out = run(&["init", repo_s, "--chunk", "1024", "--container", "65536"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // three backups of an evolving file
    let mut content = noise(200_000, 1);
    for i in 0..3u64 {
        let f = data_dir.join(format!("v{i}.bin"));
        fs::write(&f, &content).unwrap();
        let out = run(&["backup", repo_s, f.to_str().unwrap()]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        content[5_000..9_000].copy_from_slice(&noise(4_000, 100 + i));
    }

    // list shows three versions
    let out = run(&["list", repo_s]);
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("V1") && text.contains("V3"), "{text}");

    // verify is clean
    let out = run(&["verify", repo_s]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("clean"));

    // restore V1 and compare
    let restored = data_dir.join("restored.bin");
    let out = run(&["restore", repo_s, "1", restored.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        fs::read(&restored).unwrap(),
        fs::read(data_dir.join("v0.bin")).unwrap()
    );

    // prune to the last 2; V1 must disappear, V2/V3 must survive
    let out = run(&["prune", repo_s, "2"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = run(&["list", repo_s]);
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(!text.contains("V1 "), "pruned version still listed: {text}");
    let out = run(&["restore", repo_s, "3", restored.to_str().unwrap()]);
    assert!(out.status.success());
    assert_eq!(
        fs::read(&restored).unwrap(),
        fs::read(data_dir.join("v2.bin")).unwrap()
    );

    // flatten succeeds
    let out = run(&["flatten", repo_s]);
    assert!(out.status.success());

    fs::remove_dir_all(&repo).unwrap();
    fs::remove_dir_all(&data_dir).unwrap();
}

#[test]
fn verify_detects_corruption() {
    let repo = temp("corrupt");
    let repo_s = repo.to_str().unwrap();
    run(&["init", repo_s, "--chunk", "1024", "--container", "32768"]);
    let f = repo.join("input.bin");
    fs::write(&f, noise(100_000, 9)).unwrap();
    run(&["backup", repo_s, f.to_str().unwrap()]);
    // Force chunks into archival containers: a second, different backup.
    fs::write(&f, noise(100_000, 10)).unwrap();
    run(&["backup", repo_s, f.to_str().unwrap()]);

    // Flip bytes inside an archival container's data section.
    let archival = repo.join("archival");
    let victim = fs::read_dir(&archival)
        .unwrap()
        .filter_map(Result::ok)
        .find(|e| e.file_name().to_string_lossy().ends_with(".ctr"))
        .expect("archival container exists");
    let mut bytes = fs::read(victim.path()).unwrap();
    let n = bytes.len();
    for b in &mut bytes[n - 64..] {
        *b ^= 0xFF;
    }
    fs::write(victim.path(), bytes).unwrap();

    let out = run(&["verify", repo_s]);
    assert!(!out.status.success(), "verify must fail on corruption");
    assert!(String::from_utf8_lossy(&out.stderr).contains("CORRUPT"));

    fs::remove_dir_all(&repo).unwrap();
}

/// A truncated archival container fails `verify` both ways. The daemon
/// reads its tenant's open instance, so it names the container it cannot
/// decode and moves nothing; the local verify opens the repository, which
/// quarantines the file, and names it as the dependency of every version
/// that no longer restores.
#[test]
fn verify_fails_over_a_truncated_container_local_and_remote() {
    let repo = temp("truncated");
    let repo_s = repo.to_str().unwrap();
    let inputs = temp("truncated-inputs");
    fs::create_dir_all(&inputs).unwrap();
    let out = run(&["init", repo_s, "--chunk", "4096", "--container", "65536"]);
    assert!(out.status.success());
    let daemon = serve(
        &repo,
        ServerConfig {
            quiet: true,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = daemon.addr().to_string();
    let spec = Profile::Gcc.spec().scaled(1 << 20, 8);
    for (i, data) in VersionStream::new(spec, 23)
        .all_versions()
        .iter()
        .enumerate()
    {
        let f = inputs.join(format!("v{i}.bin"));
        fs::write(&f, data).unwrap();
        let out = run(&["backup", "--remote", &addr, f.to_str().unwrap()]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    let lowest = fs::read_dir(repo.join("archival"))
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().to_string_lossy().into_owned();
            name.strip_prefix('c')?
                .strip_suffix(".ctr")?
                .parse::<u32>()
                .ok()
        })
        .min()
        .expect("cold chunks reached the archival store");
    let victim = repo.join("archival").join(format!("c{lowest}.ctr"));
    let bytes = fs::read(&victim).unwrap();
    fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();
    let names_victim = |out: &Output| {
        String::from_utf8_lossy(&out.stderr).contains(&format!("CORRUPT: container {lowest}:"))
    };

    let out = run(&["verify", "--remote", &addr]);
    assert_eq!(out.status.code(), Some(1), "remote verify over damage");
    assert!(
        names_victim(&out),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(victim.exists(), "a daemon read verb moved the container");
    assert!(
        !repo.join("quarantine").exists(),
        "a daemon read verb quarantined"
    );
    daemon.shutdown_and_join();

    let out = run(&["verify", repo_s]);
    assert_eq!(out.status.code(), Some(1), "local verify over damage");
    assert!(
        names_victim(&out),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    fs::remove_dir_all(&repo).unwrap();
    fs::remove_dir_all(&inputs).unwrap();
}

#[test]
fn init_refuses_double_init_and_bad_args() {
    let repo = temp("doubleinit");
    let repo_s = repo.to_str().unwrap();
    assert!(run(&["init", repo_s]).status.success());
    assert!(
        !run(&["init", repo_s]).status.success(),
        "second init must fail"
    );
    assert!(!run(&["backup", "/definitely/not/a/repo", "/etc/hostname"])
        .status
        .success());
    assert!(!run(&["bogus-command"]).status.success());
    fs::remove_dir_all(&repo).unwrap();
}

#[test]
fn restore_unknown_version_fails_cleanly() {
    let repo = temp("unknown");
    let repo_s = repo.to_str().unwrap();
    run(&["init", repo_s]);
    let out = run(&["restore", repo_s, "7", "/tmp/never-written.bin"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
    fs::remove_dir_all(&repo).unwrap();
}

/// Restore stages in `<outfile>.tmp` — `.tmp` appended to the full file
/// name, never substituted for the extension — so a sibling sharing the stem
/// is untouched, and a failed restore to a path that itself ends in `.tmp`
/// leaves the user's previous file intact.
#[test]
fn restore_staging_never_touches_other_files() {
    let repo = temp("staging");
    let repo_s = repo.to_str().unwrap();
    let data_dir = temp("staging-data");
    fs::create_dir_all(&data_dir).unwrap();
    assert!(
        run(&["init", repo_s, "--chunk", "1024", "--container", "65536"])
            .status
            .success()
    );
    let input = data_dir.join("input.bin");
    fs::write(&input, noise(50_000, 4)).unwrap();
    assert!(run(&["backup", repo_s, input.to_str().unwrap()])
        .status
        .success());

    let sibling = data_dir.join("a.tmp");
    fs::write(&sibling, b"unrelated sibling").unwrap();
    let out = run(&[
        "restore",
        repo_s,
        "1",
        data_dir.join("a.bin").to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        fs::read(data_dir.join("a.bin")).unwrap(),
        fs::read(&input).unwrap()
    );
    assert_eq!(fs::read(&sibling).unwrap(), b"unrelated sibling");
    assert!(!data_dir.join("a.bin.tmp").exists());

    let keep = data_dir.join("keep.tmp");
    fs::write(&keep, b"previous good output").unwrap();
    let out = run(&["restore", repo_s, "99", keep.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(fs::read(&keep).unwrap(), b"previous good output");
    assert!(!data_dir.join("keep.tmp.tmp").exists());

    fs::remove_dir_all(&repo).unwrap();
    fs::remove_dir_all(&data_dir).unwrap();
}

/// Every repository `init` wrote before the staged restore engine was
/// deleted carries its three keys in `config`. They fall into the
/// unknown-key arm: the repository opens and restores byte-identically
/// whatever their values, and `init` no longer writes them.
#[test]
fn config_with_retired_restore_keys_still_opens() {
    let repo = temp("retired-keys");
    let repo_s = repo.to_str().unwrap();
    let data_dir = temp("retired-keys-data");
    fs::create_dir_all(&data_dir).unwrap();
    assert!(
        run(&["init", repo_s, "--chunk", "1024", "--container", "65536"])
            .status
            .success()
    );
    let written = fs::read_to_string(repo.join("config")).unwrap();
    assert_eq!(
        written,
        "chunk=1024\ncontainer=65536\ndepth=1\nscheme=hidestore\n"
    );
    let input = data_dir.join("input.bin");
    fs::write(&input, noise(80_000, 6)).unwrap();
    assert!(run(&["backup", repo_s, input.to_str().unwrap()])
        .status
        .success());

    // The file exactly as the parent commit's `init` wrote it, with
    // non-default values a user could have edited in.
    fs::write(
        repo.join("config"),
        "chunk=1024\ncontainer=65536\ndepth=1\nthreads=1\nrestore_threads=4\n\
         restore_queue=2\nrestore_readahead=16\nnet_timeout=30\nscheme=hidestore\n",
    )
    .unwrap();
    let restored = data_dir.join("restored.bin");
    let out = run(&["restore", repo_s, "1", restored.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(fs::read(&restored).unwrap(), fs::read(&input).unwrap());
    // Even values the old validation rejected are just ignored text now.
    fs::write(
        repo.join("config"),
        "chunk=1024\ncontainer=65536\nrestore_threads=many\nrestore_queue=0\nrestore_readahead=0\n",
    )
    .unwrap();
    let out = run(&["restore", repo_s, "1", restored.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(fs::read(&restored).unwrap(), fs::read(&input).unwrap());

    fs::remove_dir_all(&repo).unwrap();
    fs::remove_dir_all(&data_dir).unwrap();
}

/// The ingest thread knobs are retired: the front end picks inline or
/// staged hashing from the core count and the input size. So is the
/// repository's network deadline: the daemon takes `--timeout`. A
/// `threads=` or `net_timeout=` key an older `init` wrote is ignored, so
/// the repository opens and restores byte-identically, and the
/// `HDS_THREADS` environment variable is no longer read at all. (`init`
/// no longer writes either key: see the pinned text in
/// `config_with_retired_restore_keys_still_opens`.)
#[test]
fn config_with_retired_ingest_keys_still_opens() {
    let repo = temp("retired-ingest");
    let repo_s = repo.to_str().unwrap();
    let data_dir = temp("retired-ingest-data");
    fs::create_dir_all(&data_dir).unwrap();
    assert!(
        run(&["init", repo_s, "--chunk", "1024", "--container", "65536"])
            .status
            .success()
    );
    let input = data_dir.join("input.bin");
    fs::write(&input, noise(80_000, 7)).unwrap();
    assert!(run(&["backup", repo_s, input.to_str().unwrap()])
        .status
        .success());

    // The file exactly as an older `init` wrote it, with the thread count
    // or the disabled deadline a user could have edited in.
    let restored = data_dir.join("restored.bin");
    for text in [
        "chunk=1024\ncontainer=65536\ndepth=1\nthreads=8\nnet_timeout=30\nscheme=hidestore\n",
        "chunk=1024\ncontainer=65536\ndepth=1\nnet_timeout=0\nscheme=hidestore\n",
    ] {
        fs::write(repo.join("config"), text).unwrap();
        let out = run(&["restore", repo_s, "1", restored.to_str().unwrap()]);
        assert!(
            out.status.success(),
            "{text:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(fs::read(&restored).unwrap(), fs::read(&input).unwrap());
    }

    // A value the parent rejected ("HDS_THREADS has invalid value") is
    // just an unrelated environment variable now.
    let out = Command::new(bin())
        .args(["list", repo_s])
        .env("HDS_THREADS", "x")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("V1"));

    fs::remove_dir_all(&repo).unwrap();
    fs::remove_dir_all(&data_dir).unwrap();
}

/// Configuration values are outside input: an out-of-range `init` flag is a
/// usage error (exit 2, nothing created), and an out-of-range value edited
/// into `config` is a runtime error naming the field (exit 1) on every
/// later command — never a panic (exit 101).
#[test]
fn out_of_range_config_values_are_errors_not_panics() {
    let repo = temp("config-range");
    let repo_s = repo.to_str().unwrap();
    for flags in [
        &["--chunk", "10"] as &[&str],
        &["--depth", "0"],
        &["--chunk", "8192", "--container", "4096"],
    ] {
        let mut args = vec!["init", repo_s];
        args.extend_from_slice(flags);
        let out = run(&args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "init {flags:?} must be a usage error: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
        assert!(
            !repo.exists(),
            "init {flags:?} must not create the repository"
        );
    }

    assert!(
        run(&["init", repo_s, "--chunk", "1024", "--container", "65536"])
            .status
            .success()
    );
    let input = repo.join("input.bin");
    fs::write(&input, noise(20_000, 8)).unwrap();
    for (text, field) in [
        ("chunk=1024\ncontainer=65536\ndepth=0\n", "history depth"),
        ("chunk=10\ncontainer=65536\n", "average chunk size"),
        ("chunk=8192\ncontainer=4096\n", "container capacity"),
    ] {
        fs::write(repo.join("config"), text).unwrap();
        for args in [
            &["backup", repo_s, input.to_str().unwrap()] as &[&str],
            &["list", repo_s],
        ] {
            let out = run(args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                out.status.code(),
                Some(1),
                "{args:?} over {text:?} must fail cleanly: {stderr}"
            );
            assert!(
                stderr.contains("error:") && stderr.contains(field),
                "{args:?} over {text:?} must name {field:?}: {stderr}"
            );
        }
    }

    fs::remove_dir_all(&repo).unwrap();
}

/// Exit codes are part of the CLI contract: 2 for usage mistakes (with the
/// usage text), 1 for runtime failures (with an `error:` line), 0 for
/// success. Scripts and ci.sh branch on them.
#[test]
fn exit_codes_distinguish_usage_from_runtime_errors() {
    let repo = temp("exitcodes");
    let repo_s = repo.to_str().unwrap();

    // Usage errors -> exit 2 + usage text.
    for args in [
        &[] as &[&str],
        &["bogus-command"],
        &["init"],
        &["backup", repo_s],
        &["restore", repo_s, "1"],
        // The restore thread flag is retired: restore has one path.
        &["restore", repo_s, "1", "/tmp/x", "--threads", "2"],
        &["restore-tree", repo_s, "1", "/tmp/x-tree", "--threads", "2"],
        // So are the ingest thread flags: the front end picks its own.
        &["init", repo_s, "--threads", "2"],
        &["backup-tree", repo_s, "/tmp", "--threads", "2"],
        // The daemon has one I/O deadline, `--timeout`.
        &["serve", repo_s, "--read-timeout", "5"],
        &["serve", repo_s, "--write-timeout", "5"],
        &["backup", "--remote"],
        &["restore", repo_s, "not-a-number", "/tmp/x"],
        &["prune", repo_s, "many"],
        &["list", repo_s, "extra-arg"],
        &["flatten", "--remote", "127.0.0.1:1", repo_s],
    ] {
        let out = run(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "usage error {args:?} must exit 2: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "usage text expected for {args:?}"
        );
    }

    // Runtime errors -> exit 1 + error line, no usage text.
    assert!(run(&["init", repo_s]).status.success());
    for args in [
        &["backup", repo_s, "/definitely/missing/file.bin"] as &[&str],
        &["restore", repo_s, "7", "/tmp/never-written.bin"],
        &["prune", repo_s, "0"],
        &["init", repo_s],
        &["list", "--remote", "127.0.0.1:1"],
    ] {
        let out = run(args);
        assert_eq!(
            out.status.code(),
            Some(1),
            "runtime error {args:?} must exit 1: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("error:"),
            "error line expected for {args:?}"
        );
        assert!(
            !stderr.contains("usage:"),
            "runtime error {args:?} must not print usage"
        );
    }

    // Success -> exit 0.
    assert_eq!(run(&["list", repo_s]).status.code(), Some(0));
    fs::remove_dir_all(&repo).unwrap();
}

/// The `--json` schema is a stable machine interface shared with the wire
/// protocol's response types; this pins it byte-for-byte on an empty
/// repository and structurally once versions exist.
#[test]
fn json_output_schema_is_pinned() {
    let repo = temp("json");
    let repo_s = repo.to_str().unwrap();
    assert!(
        run(&["init", repo_s, "--chunk", "1024", "--container", "32768"])
            .status
            .success()
    );

    let out = run(&["list", repo_s, "--json"]);
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).trim(),
        "{\"versions\":[],\"archival_containers\":0,\"active_containers\":0,\"hot_chunks\":0}"
    );
    let out = run(&["stats", repo_s, "--json"]);
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).trim(),
        "{\"versions\":[],\"pool_containers\":0,\"pool_chunks\":0,\"pool_live_bytes\":0,\
         \"out_of_line_rewritten_bytes\":0}"
    );

    let f = repo.join("input.bin");
    fs::write(&f, noise(50_000, 4)).unwrap();
    assert!(run(&["backup", repo_s, f.to_str().unwrap()])
        .status
        .success());

    let out = run(&["list", repo_s, "--json"]);
    let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
    assert!(
        text.starts_with("{\"versions\":[{\"version\":1,\"bytes\":50000,\"chunks\":"),
        "{text}"
    );
    assert!(text.contains("\"archival_containers\":"), "{text}");
    let out = run(&["stats", repo_s, "--json"]);
    let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
    assert!(
        text.starts_with("{\"versions\":[{\"version\":1,\"bytes\":50000,\"chunks\":"),
        "{text}"
    );
    assert!(
        text.contains("\"cfl\":") && text.contains("\"mean_kib_per_container\":"),
        "{text}"
    );
    assert!(text.contains("\"pool_live_bytes\":50000"), "{text}");

    fs::remove_dir_all(&repo).unwrap();
}

/// `init --scheme`, `dedup-pass`, and the out-of-line byte accounting in
/// `stats --json`: a reverse-dedup rewrite is rewrite traffic, not new user
/// data, so it must appear in `out_of_line_rewritten_bytes` and leave the
/// pool counters untouched.
#[test]
fn scheme_lifecycle_with_out_of_line_pass() {
    let repo = temp("scheme");
    let repo_s = repo.to_str().unwrap();
    let out = run(&[
        "init",
        repo_s,
        "--chunk",
        "1024",
        "--container",
        "16384",
        "--scheme",
        "hybrid",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("scheme hybrid"));

    // Recurring content after a gap leaves cross-version duplicates that
    // only the out-of-line pass can reclaim.
    let f = repo.join("input.bin");
    let base = noise(60_000, 11);
    let extra = noise(20_000, 12);
    for round in 0..4u64 {
        let mut content = base.clone();
        content[(round as usize * 10_000)..][..5_000].copy_from_slice(&noise(5_000, 500 + round));
        if round % 2 == 0 {
            content.extend_from_slice(&extra);
        }
        fs::write(&f, &content).unwrap();
        assert!(run(&["backup", repo_s, f.to_str().unwrap()])
            .status
            .success());
    }

    let snapshot_v1 = {
        let restored = repo.join("v1-before.bin");
        run(&["restore", repo_s, "1", restored.to_str().unwrap()]);
        fs::read(&restored).unwrap()
    };
    let out = run(&["dedup-pass", repo_s]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("duplicate chunks removed"), "{text}");
    assert!(text.contains("bytes rewritten"), "{text}");

    // Every version still restores byte-exact and the repo verifies clean.
    let restored = repo.join("v1-after.bin");
    assert!(run(&["restore", repo_s, "1", restored.to_str().unwrap()])
        .status
        .success());
    assert_eq!(fs::read(&restored).unwrap(), snapshot_v1);
    assert!(run(&["verify", repo_s]).status.success());

    // Scheme repos bypass the active pool entirely, and the rewrite counter
    // is per-process (this `stats` invocation did no out-of-line work), so
    // the trailing fields are exact.
    let out = run(&["stats", repo_s, "--json"]);
    let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
    assert!(
        text.ends_with(
            "\"pool_containers\":0,\"pool_chunks\":0,\"pool_live_bytes\":0,\
             \"out_of_line_rewritten_bytes\":0}"
        ),
        "{text}"
    );

    // The inline scheme rejects the pass with a runtime error.
    let other = temp("scheme-inline");
    let other_s = other.to_str().unwrap();
    assert!(run(&["init", other_s]).status.success());
    let out = run(&["dedup-pass", other_s]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("no out-of-line pass"));

    // Bad scheme names are usage errors.
    let bogus = temp("scheme-bogus");
    let out = run(&["init", bogus.to_str().unwrap(), "--scheme", "lru"]);
    assert_eq!(out.status.code(), Some(2));

    fs::remove_dir_all(&repo).unwrap();
    fs::remove_dir_all(&other).unwrap();
    let _ = fs::remove_dir_all(&bogus);
}

#[test]
fn recluster_keeps_repository_restorable() {
    let repo = temp("recluster");
    let repo_s = repo.to_str().unwrap();
    run(&["init", repo_s, "--chunk", "1024", "--container", "8192"]);
    let f = repo.join("input.bin");
    let mut content = noise(120_000, 77);
    for i in 0..4u64 {
        fs::write(&f, &content).unwrap();
        assert!(run(&["backup", repo_s, f.to_str().unwrap()])
            .status
            .success());
        content[(i as usize * 25_000) % 90_000..][..20_000]
            .copy_from_slice(&noise(20_000, 300 + i));
    }
    let snapshot_v1 = {
        let restored = repo.join("v1-before.bin");
        run(&["restore", repo_s, "1", restored.to_str().unwrap()]);
        fs::read(&restored).unwrap()
    };
    let out = run(&["recluster", repo_s]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let restored = repo.join("v1-after.bin");
    assert!(run(&["restore", repo_s, "1", restored.to_str().unwrap()])
        .status
        .success());
    assert_eq!(fs::read(&restored).unwrap(), snapshot_v1);
    // Still verifies clean.
    assert!(run(&["verify", repo_s]).status.success());
    fs::remove_dir_all(&repo).unwrap();
}

#[test]
fn tree_backup_restore_lifecycle() {
    let repo = temp("tree");
    let repo_s = repo.to_str().unwrap();
    let work = temp("tree-work");
    let src = work.join("src");
    fs::create_dir_all(src.join("code/deep")).unwrap();
    fs::create_dir_all(src.join("empty-dir")).unwrap();
    fs::write(src.join("top.txt"), b"top file").unwrap();
    fs::write(src.join("code/main.rs"), noise(5_000, 50)).unwrap();
    fs::write(src.join("code/deep/util.rs"), noise(3_000, 51)).unwrap();
    fs::write(src.join("debug.log"), b"excluded").unwrap();
    #[cfg(unix)]
    std::os::unix::fs::symlink("top.txt", src.join("link")).unwrap();

    let out = run(&["init", repo_s, "--chunk", "1024", "--container", "16384"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // backup-tree with an exclude
    let out = run(&[
        "backup-tree",
        repo_s,
        src.to_str().unwrap(),
        "--exclude",
        "*.log",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        text.contains("3 files") && text.contains("1 excluded"),
        "{text}"
    );

    // full restore round-trips content and omits the excluded file
    let dest = work.join("dest");
    let out = run(&["restore-tree", repo_s, "1", dest.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(fs::read(dest.join("top.txt")).unwrap(), b"top file");
    assert_eq!(
        fs::read(dest.join("code/deep/util.rs")).unwrap(),
        noise(3_000, 51)
    );
    assert!(dest.join("empty-dir").is_dir());
    assert!(!dest.join("debug.log").exists());
    #[cfg(unix)]
    assert_eq!(
        fs::read_link(dest.join("link")).unwrap().to_str().unwrap(),
        "top.txt"
    );

    // subtree restore lands the subtree at the destination
    let sub = work.join("sub");
    let out = run(&[
        "restore-tree",
        repo_s,
        "1",
        sub.to_str().unwrap(),
        "--subtree",
        "/code",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(fs::read(sub.join("main.rs")).unwrap(), noise(5_000, 50));
    assert!(!sub.join("top.txt").exists());

    // a missing subtree is a runtime error (exit 1)
    let out = run(&[
        "restore-tree",
        repo_s,
        "1",
        work.join("nope").to_str().unwrap(),
        "--subtree",
        "/does/not/exist",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("error:"));

    // an unreadable entry (fifo) is skipped, reported, and exits non-zero,
    // but the backup itself is saved
    #[cfg(unix)]
    {
        let fifo = src.join("pipe");
        let status = std::process::Command::new("mkfifo")
            .arg(&fifo)
            .status()
            .expect("mkfifo runs");
        assert!(status.success());
        let out = run(&[
            "backup-tree",
            repo_s,
            src.to_str().unwrap(),
            "--exclude",
            "*.log",
        ]);
        assert_eq!(out.status.code(), Some(1));
        let err = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(err.contains("skipped /pipe"), "{err}");
        let out = run(&["list", repo_s]);
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("V2"),
            "the partial backup must still be saved"
        );
    }

    // usage errors exit 2
    let out = run(&["backup-tree", repo_s]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["restore-tree", repo_s, "1"]);
    assert_eq!(out.status.code(), Some(2));

    let _ = fs::remove_dir_all(&repo);
    let _ = fs::remove_dir_all(&work);
}

/// A saved three-version repository written through the library, with the
/// `config` file `init` would have written.
fn build_repo(dir: &Path) {
    fs::create_dir_all(dir).unwrap();
    let config = HiDeStoreConfig::small_for_tests();
    config.save_to(dir).unwrap();
    let mut hds = HiDeStore::open_repository(config, dir).unwrap();
    let mut data = noise(90_000, 7);
    for round in 0..3u64 {
        hds.backup(&data).unwrap();
        let patch = noise(6_000, 70 + round);
        let start = (round as usize * 11_000) % 80_000;
        data[start..start + patch.len()].copy_from_slice(&patch);
    }
    hds.save_repository(dir).unwrap();
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn verify_clean_repository_exits_zero() {
    let repo = temp("verify-clean");
    build_repo(&repo);
    let out = run(&["verify", repo.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    assert!(stdout_of(&out).contains("clean"), "{}", stdout_of(&out));
    fs::remove_dir_all(&repo).unwrap();
}

#[test]
fn verify_json_reports_clean() {
    let repo = temp("verify-json");
    build_repo(&repo);
    let out = run(&["verify", repo.to_str().unwrap(), "--json"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let text = stdout_of(&out);
    assert!(text.starts_with("{\n  \"clean\": true,\n"), "{text}");
    assert!(text.contains("  \"findings\": [\n  ]\n}"), "{text}");
    fs::remove_dir_all(&repo).unwrap();
}

#[test]
fn verify_corrupted_container_exits_one_with_the_finding() {
    let repo = temp("verify-corrupt");
    build_repo(&repo);
    let victim = fs::read_dir(repo.join("archival"))
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "ctr"))
        .expect("at least one archival container");
    let mut bytes = fs::read(&victim).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    fs::write(&victim, bytes).unwrap();

    let out = run(&["verify", repo.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr_of(&out));
    let text = stdout_of(&out);
    assert!(
        text.contains("error: container") && text.contains("fails re-hash"),
        "{text}"
    );
    assert!(text.contains("1 finding(s): 1 error(s)"), "{text}");
    assert!(stderr_of(&out).contains("CORRUPT: container"));
    fs::remove_dir_all(&repo).unwrap();
}

/// An unopenable repository is a runtime failure, as for every other verb.
#[test]
fn verify_missing_repository_exits_one() {
    let out = run(&["verify", "/nonexistent/hidestore-verify-test-repo"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = stderr_of(&out);
    assert!(
        stderr.contains("error:") && !stderr.contains("usage:"),
        "{stderr}"
    );
}

#[test]
fn verify_bad_flag_exits_two() {
    for args in [
        &["verify", "--bogus"] as &[&str],
        &["verify", "/tmp/repo", "--bogus"],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr_of(&out).contains("unknown flag"), "{args:?}");
    }
}

/// `--tenants` audits every repository under `<root>/tenants/<id>/`; an
/// entry that is not a tenant id fails the run.
#[test]
fn verify_tenants_audits_every_tenant_and_refuses_foreign_entries() {
    let root = temp("verify-tenants");
    let tenants = root.join(hidestore::tenant::TENANTS_SUBDIR);
    build_repo(&tenants.join("alice"));
    build_repo(&tenants.join("bob"));
    let root_s = root.to_str().unwrap();

    let out = run(&["verify", root_s, "--tenants"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let text = stdout_of(&out);
    assert!(
        text.contains("== tenant alice ==") && text.contains("== tenant bob =="),
        "{text}"
    );
    assert!(
        text.contains("2 tenants checked, aggregate: clean"),
        "{text}"
    );

    let out = run(&["verify", root_s, "--tenants", "--json"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let text = stdout_of(&out);
    assert!(text.starts_with("{\n  \"clean\": true,\n"), "{text}");
    assert!(text.contains("\"tenants_checked\": 2,"), "{text}");
    assert!(
        text.contains("\"tenant\": \"alice\",") && text.contains("\"tenant\": \"bob\","),
        "{text}"
    );

    fs::create_dir_all(tenants.join("Not_An_Id")).unwrap();
    let out = run(&["verify", root_s, "--tenants"]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout_of(&out));
    assert!(
        stdout_of(&out).contains("ERROR: foreign entry"),
        "{}",
        stdout_of(&out)
    );
    assert!(
        stderr_of(&out).contains("CORRUPT: tenant Not_An_Id:"),
        "{}",
        stderr_of(&out)
    );

    // A plain repository is not a multi-tenant root.
    let out = run(&[
        "verify",
        tenants.join("alice").to_str().unwrap(),
        "--tenants",
    ]);
    assert_eq!(out.status.code(), Some(1));
    fs::remove_dir_all(&root).unwrap();
}

/// An interrupted save is reported before the open resolves it: a
/// `staging/` tree without a valid commit record is a warning (exit 0),
/// and the open that follows discards it.
#[test]
fn verify_reports_a_pending_journal_before_the_open_resolves_it() {
    let repo = temp("verify-pending");
    build_repo(&repo);
    fs::create_dir_all(repo.join("staging")).unwrap();
    fs::write(repo.join("staging").join("meta"), b"half a save").unwrap();

    let out = run(&["verify", repo.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let text = stdout_of(&out);
    assert!(
        text.contains("warning: interrupted save transaction in staging/: no valid commit record"),
        "{text}"
    );
    assert!(text.contains("0 error(s), 1 warning(s)"), "{text}");
    assert!(!repo.join("staging").exists(), "the open rolled it back");

    let out = run(&["verify", repo.to_str().unwrap(), "--json"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout_of(&out).contains("\"clean\": true"));
    fs::remove_dir_all(&repo).unwrap();
}
