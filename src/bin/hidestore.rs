//! `hidestore` — command-line interface to a HiDeStore backup repository.
//!
//! ```text
//! hidestore init    <repo>                      create an empty repository
//! hidestore backup  <repo> <file>               back up a file as the next version
//! hidestore restore <repo> <version> <outfile> restore a version to a file
//! hidestore backup-tree  <repo> <dir> [--exclude <glob>]...
//!                                               back up a directory tree
//! hidestore restore-tree <repo> <version> <destdir> [--subtree <apath>]
//!                                               restore a tree (or one subtree)
//! hidestore list    <repo> [--json]             list retained versions
//! hidestore prune   <repo> <keep-last-N>        expire all but the newest N versions
//! hidestore verify  <repo> [--json] [--tenants] audit every invariant; exit 1 if
//!                                               some restore would fail
//! hidestore flatten <repo>                      run Algorithm 1 on the recipe chain
//! hidestore recluster <repo>                    defragment old versions' archival layout
//! hidestore stats   <repo> [--json]             per-version fragmentation statistics
//! hidestore serve   <repo> [--port N] ...       run the daemon until a client shuts it down
//! ```
//!
//! `backup`, `restore`, `list`, `stats`, `prune` and `verify` also take
//! `--remote <host:port>` to run against a daemon started by `hidestore
//! serve` instead of a local repository directory; the `<repo>` argument is
//! then omitted. Each verb has one implementation: `--remote` only picks
//! where its result comes from. `init`, `backup-tree`, `restore-tree`,
//! `flatten` and `recluster` are local only. A remote verb makes one
//! connection and moves each version whole; the protocol has no retry or
//! resume. A remote backup that fails on the transport may still have
//! committed (its acknowledgement was lost, or the daemon finished a
//! stream it had already received), so run `list` before backing up
//! again.
//!
//! ```text
//! hidestore backup  --remote 127.0.0.1:4321 <file>
//! hidestore restore --remote 127.0.0.1:4321 <version> <outfile>
//! hidestore list    --remote 127.0.0.1:4321 [--json]
//! hidestore stats   --remote 127.0.0.1:4321 [--json]
//! hidestore prune   --remote 127.0.0.1:4321 <keep-last-N>
//! hidestore verify  --remote 127.0.0.1:4321
//! hidestore shutdown --remote 127.0.0.1:4321
//! ```
//!
//! Against a multi-tenant daemon (`serve --tenants`), every remote data
//! verb additionally takes `--tenant <id>` to address one tenant's
//! repository (defaults to the `default` tenant), and two admin verbs
//! inspect the whole root:
//!
//! ```text
//! hidestore backup --remote 127.0.0.1:4321 --tenant alice <file>
//! hidestore tenant list  --remote 127.0.0.1:4321 [--json]
//! hidestore tenant stats --remote 127.0.0.1:4321 [--json]
//! ```
//!
//! `verify` runs the one integrity checker, `hidestore_fsck::SystemAuditor`,
//! locally or on the daemon's open repository, and prints a
//! `CORRUPT: container N: ...` line on stderr for each error (container 0
//! when none is to blame). Locally it also prints every finding, including
//! an interrupted save pending in `staging/`, scanned before the open
//! resolves it. `--json` prints the whole report; `--tenants` audits every
//! repository under a multi-tenant root's `tenants/<id>/`, and a foreign
//! entry there is an error. Both flags are local only.
//!
//! Exit codes: 0 success, 1 runtime failure (for `verify`: some finding is
//! an error, meaning some restore would fail or return wrong data;
//! warnings alone exit 0), 2 usage error.

use std::fmt;
use std::fs;
use std::io::Write;
use std::num::NonZeroU32;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use hidestore::core::{
    repository_recovery_state, write_staged, HiDeStore, HiDeStoreConfig, PendingJournal,
    RESTORE_AREA_BYTES,
};
use hidestore::fsck::{AuditReport, Finding, FindingKind, Severity, SystemAuditor};
use hidestore::proto::json::json_string;
use hidestore::proto::{TenantId, VerifySummary};
use hidestore::restore::Faa;
use hidestore::server::{view, RemoteClient, ServerConfig, DEFAULT_NET_TIMEOUT};
use hidestore::storage::{FileContainerStore, VersionId};
use hidestore::tenant::TENANTS_SUBDIR;

/// A CLI failure, split by who got it wrong.
///
/// `Usage` is the operator's mistake (bad flag, missing argument) and maps
/// to exit code 2 with the usage text; `Runtime` is the operation's failure
/// (I/O, corruption, server error) and maps to exit code 1 with an
/// `error:` line. The split is pinned by `tests/cli.rs`.
enum CliError {
    Usage(String),
    Runtime(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) | CliError::Runtime(msg) => write!(f, "{msg}"),
        }
    }
}

impl<E: std::error::Error> From<E> for CliError {
    fn from(e: E) -> Self {
        CliError::Runtime(e.to_string())
    }
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn runtime(msg: impl Into<String>) -> CliError {
    CliError::Runtime(msg.into())
}

type CliResult = Result<(), CliError>;

fn print_usage() {
    eprintln!(
        "usage:\n  hidestore init    <repo> [--chunk <bytes>] [--container <bytes>] [--depth <1|2>]\n  \
         hidestore backup  <repo> <file>\n  \
         hidestore restore <repo> <version> <outfile>\n  \
         hidestore backup-tree  <repo> <dir> [--exclude <glob>]...\n  \
         hidestore restore-tree <repo> <version> <destdir> [--subtree <apath>]\n  \
         hidestore list    <repo> [--json]\n  \
         hidestore prune   <repo> <keep-last-N>\n  \
         hidestore verify  <repo> [--json] [--tenants]\n  \
         hidestore flatten <repo>\n  \
         hidestore recluster <repo>\n  \
         hidestore stats   <repo> [--json]\n  \
         hidestore serve   <repo> [--bind ADDR] [--port N] [--workers N] [--quiet]\n  \
         \x20                [--timeout SECS]\n  \
         \x20                [--tenants] [--max-tenants N] [--no-auto-tenants]\n  \
         \x20                [--quota-bytes N] [--quota-versions N]\n\n\
         remote variants (against a running `hidestore serve`); each also takes\n\
         --remote-timeout SECS (per-I/O deadline, 0 disables, default 30)\n\
         and --tenant <id> (address one tenant of a --tenants daemon;\n\
         defaults to the `default` tenant):\n  \
         hidestore backup  --remote <host:port> <file>\n  \
         hidestore restore --remote <host:port> <version> <outfile>\n  \
         hidestore list    --remote <host:port> [--json]\n  \
         hidestore stats   --remote <host:port> [--json]\n  \
         hidestore prune   --remote <host:port> <keep-last-N>\n  \
         hidestore verify  --remote <host:port>\n  \
         hidestore tenant  list  --remote <host:port> [--json]\n  \
         hidestore tenant  stats --remote <host:port> [--json]\n  \
         hidestore shutdown --remote <host:port>"
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = run(&args);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            print_usage();
            ExitCode::from(2)
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The `--remote` connection options shared by every remote verb.
struct Remote {
    addr: String,
    /// `--remote-timeout` if given; otherwise [`DEFAULT_NET_TIMEOUT`].
    timeout: Option<Duration>,
    /// `--tenant` if given; otherwise requests address the `default` tenant.
    tenant: Option<TenantId>,
}

/// Where a verb runs: on a repository directory, or on a daemon.
enum Target {
    Local(String),
    Remote(Remote),
}

impl Target {
    /// The suffix naming the daemon a verb ran on; empty when local.
    fn on(&self) -> String {
        match self {
            Target::Local(_) => String::new(),
            Target::Remote(remote) => format!(" on {}", remote.addr),
        }
    }
}

/// Pulls `--remote <host:port>` (plus `--remote-timeout SECS` and
/// `--tenant <id>`) out of the argument list, returning the connection
/// options (if remote) and the remaining positional/flag arguments.
fn split_remote(args: &[String]) -> Result<(Option<Remote>, Vec<String>), CliError> {
    let mut addr = None;
    let mut timeout = None;
    let mut tenant = None;
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--remote" {
            let value = it
                .next()
                .ok_or_else(|| usage("--remote needs a <host:port> value"))?;
            addr = Some(value.clone());
        } else if arg == "--remote-timeout" {
            let value = it
                .next()
                .ok_or_else(|| usage("--remote-timeout needs a seconds value"))?;
            let secs: u64 = value
                .parse()
                .map_err(|_| usage(format!("--remote-timeout must be a number, got {value}")))?;
            timeout = Some(Duration::from_secs(secs));
        } else if arg == "--tenant" {
            let value = it
                .next()
                .ok_or_else(|| usage("--tenant needs a tenant id"))?;
            // Validate here so a typo'd id is a usage error, not a wire
            // round-trip that the server rejects.
            let id = TenantId::new(value)
                .map_err(|e| usage(format!("invalid tenant id {value:?}: {e}")))?;
            tenant = Some(id);
        } else {
            rest.push(arg.clone());
        }
    }
    match (addr, timeout, tenant) {
        (Some(addr), timeout, tenant) => Ok((
            Some(Remote {
                addr,
                timeout,
                tenant,
            }),
            rest,
        )),
        (None, Some(_), _) => Err(usage("--remote-timeout requires --remote")),
        (None, None, Some(_)) => Err(usage("--tenant requires --remote")),
        (None, None, None) => Ok((None, rest)),
    }
}

/// Removes a boolean flag from the argument list, returning whether it was
/// there.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != flag);
    args.len() < before
}

fn run(args: &[String]) -> CliResult {
    let [cmd, raw @ ..] = args else {
        return Err(usage(""));
    };
    let cmd = cmd.as_str();
    let (remote, mut rest) = split_remote(raw)?;
    if let ("serve", None) = (cmd, &remote) {
        return cmd_serve(&rest);
    }
    let json =
        matches!(cmd, "list" | "stats" | "verify" | "tenant") && take_flag(&mut rest, "--json");
    let tenants = cmd == "verify" && take_flag(&mut rest, "--tenants");
    if cmd == "verify" {
        if let Some(flag) = rest.iter().find(|a| a.starts_with('-')) {
            return Err(usage(format!("unknown flag {flag}")));
        }
        if remote.is_some() && (json || tenants) {
            return Err(usage(
                "--json and --tenants are local-only for verify: \
                 the daemon's verify summary has no JSON form",
            ));
        }
    }
    let target = match remote {
        Some(remote) => Some(Target::Remote(remote)),
        None if rest.is_empty() => None,
        None => Some(Target::Local(rest.remove(0))),
    };
    match (cmd, target.as_ref(), rest.as_slice()) {
        ("init", Some(Target::Local(repo)), opts) => cmd_init(repo, opts),
        ("backup", Some(target), [file]) => cmd_backup(target, file),
        ("restore", Some(target), [version, outfile]) => cmd_restore(target, version, outfile),
        ("backup-tree", Some(Target::Local(repo)), [dir, opts @ ..]) => {
            cmd_backup_tree(repo, dir, opts)
        }
        ("restore-tree", Some(Target::Local(repo)), [version, dest, opts @ ..]) => {
            cmd_restore_tree(repo, version, dest, opts)
        }
        ("list", Some(target), []) => cmd_list(target, json),
        ("stats", Some(target), []) => cmd_stats(target, json),
        ("prune", Some(target), [keep]) => cmd_prune(target, keep),
        ("verify", Some(Target::Local(root)), []) if tenants => cmd_verify_tenants(root, json),
        ("verify", Some(target), []) => cmd_verify(target, json),
        ("flatten", Some(Target::Local(repo)), []) => cmd_flatten(repo),
        ("recluster", Some(Target::Local(repo)), []) => cmd_recluster(repo),
        ("shutdown", Some(Target::Remote(remote)), []) => cmd_shutdown_remote(remote),
        ("tenant", Some(Target::Remote(remote)), [sub]) if sub == "list" => {
            cmd_tenant_list_remote(remote, json)
        }
        ("tenant", Some(Target::Remote(remote)), [sub]) if sub == "stats" => {
            cmd_tenant_stats_remote(remote, json)
        }
        ("tenant", Some(Target::Remote(_)), _) => {
            Err(usage("tenant needs a subcommand: list or stats"))
        }
        ("tenant" | "shutdown", ..) => Err(usage(format!("{cmd} needs --remote <host:port>"))),
        ("backup" | "restore" | "list" | "stats" | "prune" | "verify", ..)
        | (
            "init" | "backup-tree" | "restore-tree" | "flatten" | "recluster",
            None | Some(Target::Local(_)),
            _,
        ) => Err(usage(format!("wrong arguments for {cmd}"))),
        (_, Some(Target::Remote(_)), _) => Err(usage(format!("{cmd} has no --remote variant"))),
        _ => Err(usage("")),
    }
}

fn open(repo: &str) -> Result<HiDeStore<FileContainerStore>, CliError> {
    let config = HiDeStoreConfig::load_from(repo)?;
    Ok(HiDeStore::open_repository(config, repo)?)
}

/// Opens the repository at `repo`, applies `mutate` and saves the result:
/// the write path of every local verb that changes a repository except
/// `prune`, which saves only when something expired.
fn update<T>(
    repo: &str,
    mutate: impl FnOnce(&mut HiDeStore<FileContainerStore>) -> Result<T, CliError>,
) -> Result<T, CliError> {
    let mut system = open(repo)?;
    let value = mutate(&mut system)?;
    system.save_repository(repo)?;
    Ok(value)
}

fn connect(remote: &Remote) -> Result<RemoteClient, CliError> {
    let timeout = remote.timeout.unwrap_or(DEFAULT_NET_TIMEOUT);
    let mut client =
        RemoteClient::connect_with(&remote.addr, hidestore::proto::Limits::default(), timeout)
            .map_err(|e| runtime(format!("cannot reach the daemon at {}: {e}", remote.addr)))?;
    if let Some(tenant) = &remote.tenant {
        client.set_tenant(tenant.clone());
    }
    Ok(client)
}

fn parse_version(version: &str) -> Result<VersionId, CliError> {
    let v: u32 = version
        .trim_start_matches(['v', 'V'])
        .parse()
        .map_err(|_| usage(format!("{version} is not a version number")))?;
    if v == 0 {
        return Err(runtime("version ids are 1-based"));
    }
    Ok(VersionId::new(v))
}

fn cmd_init(repo: &str, opts: &[String]) -> CliResult {
    let mut config = HiDeStoreConfig::default();
    let mut it = opts.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| usage(format!("{flag} needs a value")))?;
        let parsed = |what: &str| {
            value
                .parse::<usize>()
                .map_err(|_| usage(format!("{what} must be a number, got {value}")))
        };
        match flag.as_str() {
            "--chunk" => config.avg_chunk_size = parsed("--chunk")?,
            "--container" => config.container_capacity = parsed("--container")?,
            "--depth" => config.history_depth = parsed("--depth")?,
            other => return Err(usage(format!("unknown option {other}"))),
        }
    }
    config.validate().map_err(|e| usage(e.to_string()))?;
    let dir = Path::new(repo);
    if dir.join(hidestore::core::CONFIG_FILE).exists() {
        return Err(runtime(format!("{repo} already contains a repository")));
    }
    fs::create_dir_all(dir)?;
    config.save_to(dir)?;
    // Materialize the directory layout.
    update(repo, |_| Ok(()))?;
    println!(
        "initialized repository at {repo} (chunk {} B, container {} B, history depth {})",
        config.avg_chunk_size, config.container_capacity, config.history_depth,
    );
    Ok(())
}

fn cmd_backup(target: &Target, file: &str) -> CliResult {
    let data = fs::read(file)?;
    let summary = match target {
        Target::Local(repo) => update(repo, |system| {
            Ok(view::backup_summary(&system.backup(&data)?))
        })?,
        Target::Remote(remote) => connect(remote)?.backup_bytes(&data)?,
    };
    println!(
        "{file} -> V{}{}: {} bytes, {} chunks, {} new bytes stored, {} cold chunks archived",
        summary.version,
        target.on(),
        summary.logical_bytes,
        summary.chunks,
        summary.stored_bytes,
        summary.cold_chunks,
    );
    Ok(())
}

fn cmd_restore(target: &Target, version: &str, outfile: &str) -> CliResult {
    let version = parse_version(version)?;
    // Output is staged in `<outfile>.tmp` and renamed on success, so a
    // failed restore never leaves a partial file behind.
    let summary = write_staged(Path::new(outfile), |out| match target {
        Target::Local(repo) => {
            let mut cache = Faa::new(RESTORE_AREA_BYTES);
            let report = open(repo)?.restore(version, &mut cache, out)?;
            Ok::<_, CliError>(view::restore_summary(&report))
        }
        Target::Remote(remote) => Ok(connect(remote)?.restore_to(version.get(), out)?),
    })?;
    println!(
        "restored {version} to {outfile}: {} bytes, {} container reads{}",
        summary.bytes_restored,
        summary.container_reads,
        target.on(),
    );
    Ok(())
}

fn cmd_backup_tree(repo: &str, dir: &str, opts: &[String]) -> CliResult {
    let mut excludes = hidestore::tree::ExcludeSet::none();
    let mut it = opts.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| usage(format!("{flag} needs a value")))?;
        match flag.as_str() {
            "--exclude" => excludes.add(value).map_err(|e| usage(e.to_string()))?,
            other => return Err(usage(format!("unknown option {other}"))),
        }
    }
    let report = update(repo, |system| {
        Ok(hidestore::tree::backup_tree(
            system,
            &hidestore::failpoint::RealVfs,
            Path::new(dir),
            &hidestore::tree::TreeBackupOptions { excludes },
        )?)
    })?;
    println!(
        "{} -> {}: {} files, {} dirs, {} symlinks, {} content bytes \
         ({:.1}% deduplicated), {} excluded",
        dir,
        report.stats.version,
        report.files,
        report.dirs,
        report.symlinks,
        report.content_bytes,
        report.stats.dedup_ratio() * 100.0,
        report.excluded,
    );
    if report.is_complete() {
        Ok(())
    } else {
        // The backup itself is saved; the skips make the run non-zero.
        for skip in &report.skipped {
            eprintln!("skipped {skip}");
        }
        Err(runtime(format!(
            "{} entries could not be read (backup saved without them)",
            report.skipped.len()
        )))
    }
}

fn cmd_restore_tree(repo: &str, version: &str, dest: &str, opts: &[String]) -> CliResult {
    let version = parse_version(version)?;
    let mut subtree = None;
    let mut it = opts.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| usage(format!("{flag} needs a value")))?;
        match flag.as_str() {
            "--subtree" => subtree = Some(value.clone()),
            other => return Err(usage(format!("unknown option {other}"))),
        }
    }
    let system = open(repo)?;
    let report = hidestore::tree::restore_tree(
        &system,
        &hidestore::failpoint::RealVfs,
        version,
        Path::new(dest),
        &hidestore::tree::TreeRestoreOptions { subtree },
    )?;
    println!(
        "restored {version} to {dest}: {} files, {} dirs, {} symlinks, {} bytes, \
         {} container reads",
        report.files, report.dirs, report.symlinks, report.bytes_restored, report.container_reads,
    );
    if report.is_complete() {
        Ok(())
    } else {
        for skip in &report.skipped {
            eprintln!("skipped {skip}");
        }
        Err(runtime(format!(
            "{} entries could not be restored",
            report.skipped.len()
        )))
    }
}

fn cmd_list(target: &Target, json: bool) -> CliResult {
    let list = match target {
        Target::Local(repo) => view::list_response(&open(repo)?),
        Target::Remote(remote) => connect(remote)?.list()?,
    };
    if json {
        println!("{}", list.to_json());
        return Ok(());
    }
    if list.versions.is_empty() {
        println!("repository is empty");
        return Ok(());
    }
    println!("{:>8}  {:>12}  {:>8}", "version", "bytes", "chunks");
    for v in &list.versions {
        println!(
            "{:>8}  {:>12}  {:>8}",
            format!("V{}", v.version),
            v.bytes,
            v.chunks
        );
    }
    println!(
        "{} archival containers, {} active containers ({} hot chunks)",
        list.archival_containers, list.active_containers, list.hot_chunks,
    );
    Ok(())
}

fn cmd_stats(target: &Target, json: bool) -> CliResult {
    let stats = match target {
        Target::Local(repo) => view::stats_response(&open(repo)?)?,
        Target::Remote(remote) => connect(remote)?.stats()?,
    };
    if json {
        println!("{}", stats.to_json());
        return Ok(());
    }
    if stats.versions.is_empty() && stats.lost.is_empty() {
        println!("repository is empty");
        return Ok(());
    }
    println!(
        "{:>8}  {:>12}  {:>8}  {:>6}  {:>12}",
        "version", "bytes", "chunks", "CFL", "KiB/container"
    );
    for v in &stats.versions {
        println!(
            "{:>8}  {:>12}  {:>8}  {:>6.3}  {:>12.1}",
            format!("V{}", v.version),
            v.bytes,
            v.chunks,
            v.cfl,
            v.mean_kib_per_container,
        );
    }
    if !stats.lost.is_empty() {
        let lost: Vec<String> = stats.lost.iter().map(|v| format!("V{v}")).collect();
        println!(
            "lost: {} (depend on quarantined artifacts; run verify)",
            lost.join(", ")
        );
    }
    println!(
        "pool: {} containers, {} hot chunks, {:.1} KiB live",
        stats.pool_containers,
        stats.pool_chunks,
        stats.pool_live_bytes as f64 / 1024.0,
    );
    Ok(())
}

fn cmd_prune(target: &Target, keep: &str) -> CliResult {
    let keep: u32 = keep
        .parse()
        .map_err(|_| usage(format!("keep-last must be a number, got {keep}")))?;
    let keep = NonZeroU32::new(keep).ok_or_else(|| runtime("must keep at least one version"))?;
    let summary = match target {
        Target::Local(repo) => {
            let mut system = open(repo)?;
            let report = system.prune_keep_last(keep)?;
            if report.is_some() {
                system.save_repository(repo)?;
            }
            view::prune_summary(report.as_ref())
        }
        Target::Remote(remote) => connect(remote)?.prune(keep.get())?,
    };
    if summary.versions_removed == 0 {
        println!("nothing to prune{}", target.on());
        return Ok(());
    }
    println!(
        "pruned {} versions, dropped {} containers, reclaimed {} bytes{}",
        summary.versions_removed,
        summary.containers_dropped,
        summary.bytes_reclaimed,
        target.on(),
    );
    Ok(())
}

/// Locally, prints every finding (or with `json` the whole report); on a
/// daemon, the wire summary's coverage line. Both end in one `CORRUPT:`
/// line on stderr per damage found.
fn cmd_verify(target: &Target, json: bool) -> CliResult {
    let summary = match target {
        Target::Local(repo) => {
            let report = audit(repo)?;
            if json {
                println!("{{\n{}\n}}", json_report(&report, "  "));
            } else {
                print_report(&report);
            }
            view::verify_response(&report)
        }
        Target::Remote(remote) => {
            let summary = connect(remote)?.verify()?;
            println!(
                "checked {} containers, {} chunks, {} recipes on {}",
                summary.containers_checked,
                summary.chunks_checked,
                summary.recipes_checked,
                remote.addr,
            );
            if summary.corrupt_chunks.is_empty() {
                println!("repository is clean");
            }
            summary
        }
    };
    verdict(damage(&summary))
}

/// Audits every repository under `<root>/tenants/`. An entry that is not a
/// tenant id, or a tenant repository that does not open, is an error of
/// that tenant.
fn cmd_verify_tenants(root: &str, json: bool) -> CliResult {
    let dir = Path::new(root).join(TENANTS_SUBDIR);
    if !dir.is_dir() {
        return Err(runtime(format!(
            "{root}: not a multi-tenant root (no {TENANTS_SUBDIR}/ directory)"
        )));
    }
    let mut names: Vec<String> = fs::read_dir(&dir)?
        .filter_map(Result::ok)
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let outcomes: Vec<(String, Result<AuditReport, String>)> = names
        .into_iter()
        .map(|name| {
            let path = dir.join(&name);
            // The registry only ever creates directories named by a valid
            // tenant id; anything else was put there by hand.
            let result = match TenantId::new(&name) {
                Err(e) => Err(format!("foreign entry (not a tenant id): {e}")),
                Ok(_) if !path.is_dir() => Err("foreign entry (not a directory)".to_string()),
                Ok(_) => audit(&path.to_string_lossy()).map_err(|e| e.to_string()),
            };
            (name, result)
        })
        .collect();
    let worst = outcomes
        .iter()
        .filter_map(|(_, result)| match result {
            Ok(report) => report.max_severity(),
            Err(_) => Some(Severity::Error),
        })
        .max();

    if json {
        println!("{{");
        println!("  \"clean\": {},", worst.is_none());
        println!("  \"tenants_checked\": {},", outcomes.len());
        println!("  \"tenants\": [");
        for (i, (name, result)) in outcomes.iter().enumerate() {
            let comma = if i + 1 < outcomes.len() { "," } else { "" };
            println!("    {{");
            println!("      \"tenant\": {},", json_string(name));
            match result {
                Ok(report) => println!("{}", json_report(report, "      ")),
                Err(why) => {
                    println!("      \"clean\": false,");
                    println!("      \"error\": {}", json_string(why));
                }
            }
            println!("    }}{comma}");
        }
        println!("  ]");
        println!("}}");
    } else {
        if outcomes.is_empty() {
            println!("no tenants under {}", dir.display());
        }
        for (name, result) in &outcomes {
            println!("== tenant {name} ==");
            match result {
                Ok(report) => print_report(report),
                Err(why) => println!("ERROR: {why}"),
            }
        }
        println!(
            "{} tenants checked, aggregate: {}",
            outcomes.len(),
            match worst {
                None => "clean",
                Some(Severity::Warning) => "warnings",
                Some(Severity::Error) => "errors",
            }
        );
    }
    verdict(outcomes.iter().flat_map(|(name, result)| {
        match result {
            Ok(report) => damage(&view::verify_response(report))
                .map(|what| format!("tenant {name}: {what}"))
                .collect(),
            Err(why) => vec![format!("tenant {name}: {why}")],
        }
    }))
}

/// Audits the repository at `repo`. The scan for an interrupted save runs
/// before the open, because opening resolves it.
fn audit(repo: &str) -> Result<AuditReport, CliError> {
    let pending = repository_recovery_state(repo);
    let mut report = SystemAuditor::new().audit(&open(repo)?);
    if let Some(pending) = pending {
        let detail = match pending {
            PendingJournal::RollForward {
                publishes,
                removals,
            } => format!(
                "valid commit record ({publishes} publishes, {removals} removals); \
                 opening the repository rolls it forward"
            ),
            PendingJournal::RollBack => {
                "no valid commit record; opening the repository discards the staging tree"
                    .to_string()
            }
        };
        let kind = FindingKind::PendingJournal { detail };
        report.findings.insert(
            0,
            Finding {
                severity: Severity::Warning,
                kind,
            },
        );
    }
    Ok(report)
}

/// Every finding, then the coverage line and the tally.
fn print_report(report: &AuditReport) {
    for finding in &report.findings {
        println!("{finding}");
    }
    println!("{report}");
}

/// The report's key/value body as JSON lines, one `indent` deep, without
/// the surrounding braces (so it can be embedded per tenant).
fn json_report(report: &AuditReport, indent: &str) -> String {
    let mut out = format!("{indent}\"clean\": {},\n", report.is_clean());
    for (key, value) in [
        ("containers_checked", report.containers_checked),
        ("chunks_checked", report.chunks_checked),
        ("recipes_checked", report.recipes_checked),
        ("entries_checked", report.entries_checked),
        ("orphan_chunks", report.orphan_chunks),
        ("orphan_bytes", report.orphan_bytes),
        ("tree_manifests_checked", report.tree_manifests_checked),
    ] {
        out.push_str(&format!("{indent}\"{key}\": {value},\n"));
    }
    out.push_str(&format!("{indent}\"findings\": [\n"));
    for (i, finding) in report.findings.iter().enumerate() {
        let comma = if i + 1 < report.findings.len() {
            ","
        } else {
            ""
        };
        out.push_str(&format!(
            "{indent}  {{\"severity\": \"{}\", \"message\": {}}}{comma}\n",
            finding.severity,
            json_string(&finding.to_string())
        ));
    }
    out.push_str(&format!("{indent}]"));
    out
}

/// The damage lines of one verify: the container blamed (0 when none) and
/// what is wrong.
fn damage(summary: &VerifySummary) -> impl Iterator<Item = String> + '_ {
    summary
        .corrupt_chunks
        .iter()
        .map(|(container, what)| format!("container {container}: {what}"))
}

/// The end of every `verify` form: one `CORRUPT:` line on stderr per damage
/// found and a failing exit, or success when there is none.
fn verdict(damage: impl Iterator<Item = String>) -> CliResult {
    let mut problems = 0;
    for what in damage {
        eprintln!("CORRUPT: {what}");
        problems += 1;
    }
    match problems {
        0 => Ok(()),
        n => Err(runtime(format!("{n} integrity problems found"))),
    }
}

fn cmd_tenant_list_remote(remote: &Remote, json: bool) -> CliResult {
    let mut client = connect(remote)?;
    let list = client.tenant_list()?;
    if json {
        println!("{}", list.to_json());
        return Ok(());
    }
    if list.tenants.is_empty() {
        println!("no tenants");
        return Ok(());
    }
    println!(
        "{:<24}  {:>8}  {:>14}  {:>5}",
        "tenant", "versions", "logical bytes", "live"
    );
    for t in &list.tenants {
        println!(
            "{:<24}  {:>8}  {:>14}  {:>5}",
            t.tenant,
            t.versions,
            t.logical_bytes,
            if t.live { "yes" } else { "no" }
        );
    }
    Ok(())
}

fn cmd_tenant_stats_remote(remote: &Remote, json: bool) -> CliResult {
    let mut client = connect(remote)?;
    let stats = client.tenant_stats()?;
    if json {
        println!("{}", stats.to_json());
        return Ok(());
    }
    if stats.tenants.is_empty() {
        println!("no tenant activity since the daemon started");
        return Ok(());
    }
    println!(
        "{:<24}  {:>6}  {:>6}  {:>12}  {:>12}  {:>6}  {:>6}",
        "tenant", "ok", "failed", "bytes in", "bytes out", "rback", "quota"
    );
    for t in &stats.tenants {
        println!(
            "{:<24}  {:>6}  {:>6}  {:>12}  {:>12}  {:>6}  {:>6}",
            t.tenant,
            t.requests_ok,
            t.requests_failed,
            t.bytes_in,
            t.bytes_out,
            t.rolled_back,
            t.quota_refused,
        );
    }
    Ok(())
}

fn cmd_shutdown_remote(remote: &Remote) -> CliResult {
    let client = connect(remote)?;
    client.shutdown()?;
    println!("the daemon at {} is draining", remote.addr);
    Ok(())
}

fn cmd_recluster(repo: &str) -> CliResult {
    let report = update(repo, |system| Ok(system.recluster_archival()?))?;
    println!(
        "reclustered {} tag groups: {} containers rewritten, {} chunks moved, \
         {} recipe entries updated",
        report.tag_groups,
        report.containers_rewritten,
        report.chunks_moved,
        report.recipe_entries_updated,
    );
    Ok(())
}

fn cmd_flatten(repo: &str) -> CliResult {
    let (updated, elapsed) = update(repo, |system| Ok(system.flatten_recipes()))?;
    println!("flattened recipe chains: {updated} entries updated in {elapsed:?}");
    Ok(())
}

fn cmd_serve(args: &[String]) -> CliResult {
    let (repo, config) = serve_config(args).map_err(usage)?;
    let handle = hidestore::server::serve(&repo, config)?;
    // Scripts block on this exact line to learn the bound (ephemeral) port.
    println!("hds-served listening on {}", handle.addr());
    let _ = std::io::stdout().flush();
    let stats = handle.join();
    eprintln!("hds-served: drained; final counters: {stats}");
    Ok(())
}

/// Parses `serve`'s command line — `<repo>` followed by flags — into the
/// repository directory and the daemon configuration.
///
/// # Errors
///
/// A one-line description of the usage error: missing repository
/// directory, unknown flag, or a missing or out-of-range flag value.
fn serve_config(args: &[String]) -> Result<(String, ServerConfig), String> {
    fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
        value
            .parse()
            .map_err(|_| format!("{flag} must be a number, got {value}"))
    }
    fn at_least_one(flag: &str, value: &str) -> Result<usize, String> {
        match number(flag, value)? {
            0 => Err(format!("{flag} must be >= 1, got {value}")),
            n => Ok(n),
        }
    }
    let mut it = args.iter();
    let repo = match it.next() {
        Some(repo) if !repo.starts_with('-') => repo.clone(),
        _ => return Err("serving needs a <repo-dir>".into()),
    };
    let mut bind = "127.0.0.1".to_string();
    let mut port: u16 = 0;
    let mut config = ServerConfig::default();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--bind" => bind = value()?.clone(),
            "--port" => port = number(flag, value()?)?,
            "--workers" => config.workers = at_least_one(flag, value()?)?,
            "--quiet" => config.quiet = true,
            "--timeout" => config.io_timeout = Duration::from_secs(number(flag, value()?)?),
            "--tenants" => config.tenants_root = true,
            "--max-tenants" => config.max_live_tenants = at_least_one(flag, value()?)?,
            "--no-auto-tenants" => config.auto_create_tenants = false,
            "--quota-bytes" => config.default_quota.max_bytes = number(flag, value()?)?,
            "--quota-versions" => config.default_quota.max_versions = number(flag, value()?)?,
            other => return Err(format!("unknown option {other}")),
        }
    }
    config.bind = format!("{bind}:{port}");
    Ok((repo, config))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeout_flag_sets_the_one_io_deadline() {
        let args = ["repo", "--timeout", "7"].map(String::from);
        let (repo, config) = serve_config(&args).unwrap();
        assert_eq!(repo, "repo");
        assert_eq!(config.io_timeout, Duration::from_secs(7));
    }
}
