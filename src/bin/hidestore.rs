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
//! hidestore verify  <repo>                      integrity scrub
//! hidestore flatten <repo>                      run Algorithm 1 on the recipe chain
//! hidestore recluster <repo>                    defragment old versions' archival layout
//! hidestore dedup-pass <repo>                   run the out-of-line reverse-dedup pass
//!                                               (revdedup / hybrid schemes)
//! hidestore stats   <repo> [--json]             per-version fragmentation statistics
//! hidestore serve   <repo> [--port N] ...       run the hds-served daemon in-process
//! ```
//!
//! Every data command also takes `--remote <host:port>` to run against an
//! `hds-served` daemon instead of a local repository directory; the `<repo>`
//! argument is then omitted:
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
//! Exit codes: 0 success, 1 runtime failure, 2 usage error.

use std::fmt;
use std::fs;
use std::num::NonZeroU32;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use hidestore::core::{DedupMode, HiDeStore, HiDeStoreConfig};
use hidestore::proto::TenantId;
use hidestore::restore::Faa;
use hidestore::server::{view, RemoteClient, ServerConfig, DEFAULT_NET_TIMEOUT};
use hidestore::storage::{FileContainerStore, VersionId};

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
         \x20                [--scheme <hidestore|revdedup|hybrid>]\n  \
         hidestore backup  <repo> <file>\n  \
         hidestore restore <repo> <version> <outfile>\n  \
         hidestore backup-tree  <repo> <dir> [--exclude <glob>]...\n  \
         hidestore restore-tree <repo> <version> <destdir> [--subtree <apath>]\n  \
         hidestore list    <repo> [--json]\n  \
         hidestore prune   <repo> <keep-last-N>\n  \
         hidestore verify  <repo>\n  \
         hidestore flatten <repo>\n  \
         hidestore recluster <repo>\n  \
         hidestore dedup-pass <repo>\n  \
         hidestore stats   <repo> [--json]\n  \
         hidestore serve   <repo> [--bind ADDR] [--port N] [--workers N] [--quiet]\n  \
         \x20                [--timeout SECS]\n  \
         \x20                [--tenants] [--max-tenants N] [--no-auto-tenants]\n  \
         \x20                [--quota-bytes N] [--quota-versions N]\n\n\
         remote variants (against a running hds-served); each also takes\n\
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

/// Pulls a boolean `--json` flag out of the argument list.
fn split_json(args: Vec<String>) -> (bool, Vec<String>) {
    let json = args.iter().any(|a| a == "--json");
    let rest = args.into_iter().filter(|a| a != "--json").collect();
    (json, rest)
}

fn run(args: &[String]) -> CliResult {
    let [cmd, raw @ ..] = args else {
        return Err(usage(""));
    };
    let (remote, rest) = split_remote(raw)?;
    match (cmd.as_str(), remote) {
        ("init", None) => match rest.as_slice() {
            [repo, opts @ ..] => cmd_init(repo, opts),
            _ => Err(usage("init needs a <repo>")),
        },
        ("backup", None) => match rest.as_slice() {
            [repo, file] => cmd_backup(repo, file),
            _ => Err(usage("backup needs <repo> <file>")),
        },
        ("backup", Some(remote)) => match rest.as_slice() {
            [file] => cmd_backup_remote(&remote, file),
            _ => Err(usage("remote backup needs <file>")),
        },
        ("restore", None) => match rest.as_slice() {
            [repo, version, outfile] => cmd_restore(repo, version, outfile),
            _ => Err(usage("restore needs <repo> <version> <outfile>")),
        },
        ("restore", Some(remote)) => match rest.as_slice() {
            [version, outfile] => cmd_restore_remote(&remote, version, outfile),
            _ => Err(usage("remote restore needs <version> <outfile>")),
        },
        ("backup-tree", None) => match rest.as_slice() {
            [repo, dir, opts @ ..] => cmd_backup_tree(repo, dir, opts),
            _ => Err(usage("backup-tree needs <repo> <dir>")),
        },
        ("restore-tree", None) => match rest.as_slice() {
            [repo, version, dest, opts @ ..] => cmd_restore_tree(repo, version, dest, opts),
            _ => Err(usage("restore-tree needs <repo> <version> <destdir>")),
        },
        ("list", None) => {
            let (json, rest) = split_json(rest);
            match rest.as_slice() {
                [repo] => cmd_list(repo, json),
                _ => Err(usage("list needs a <repo>")),
            }
        }
        ("list", Some(remote)) => {
            let (json, rest) = split_json(rest);
            match rest.as_slice() {
                [] => cmd_list_remote(&remote, json),
                _ => Err(usage("remote list takes no positional arguments")),
            }
        }
        ("stats", None) => {
            let (json, rest) = split_json(rest);
            match rest.as_slice() {
                [repo] => cmd_stats(repo, json),
                _ => Err(usage("stats needs a <repo>")),
            }
        }
        ("stats", Some(remote)) => {
            let (json, rest) = split_json(rest);
            match rest.as_slice() {
                [] => cmd_stats_remote(&remote, json),
                _ => Err(usage("remote stats takes no positional arguments")),
            }
        }
        ("prune", None) => match rest.as_slice() {
            [repo, keep] => cmd_prune(repo, keep),
            _ => Err(usage("prune needs <repo> <keep-last-N>")),
        },
        ("prune", Some(remote)) => match rest.as_slice() {
            [keep] => cmd_prune_remote(&remote, keep),
            _ => Err(usage("remote prune needs <keep-last-N>")),
        },
        ("verify", None) => match rest.as_slice() {
            [repo] => cmd_verify(repo),
            _ => Err(usage("verify needs a <repo>")),
        },
        ("verify", Some(remote)) => match rest.as_slice() {
            [] => cmd_verify_remote(&remote),
            _ => Err(usage("remote verify takes no positional arguments")),
        },
        ("shutdown", Some(remote)) => match rest.as_slice() {
            [] => cmd_shutdown_remote(&remote),
            _ => Err(usage("shutdown takes no positional arguments")),
        },
        ("tenant", Some(remote)) => {
            let (json, rest) = split_json(rest);
            match rest.iter().map(String::as_str).collect::<Vec<_>>()[..] {
                ["list"] => cmd_tenant_list_remote(&remote, json),
                ["stats"] => cmd_tenant_stats_remote(&remote, json),
                _ => Err(usage("tenant needs a subcommand: list or stats")),
            }
        }
        ("tenant", None) => Err(usage("tenant verbs need --remote <host:port>")),
        ("flatten", None) => match rest.as_slice() {
            [repo] => cmd_flatten(repo),
            _ => Err(usage("flatten needs a <repo>")),
        },
        ("recluster", None) => match rest.as_slice() {
            [repo] => cmd_recluster(repo),
            _ => Err(usage("recluster needs a <repo>")),
        },
        ("dedup-pass", None) => match rest.as_slice() {
            [repo] => cmd_dedup_pass(repo),
            _ => Err(usage("dedup-pass needs a <repo>")),
        },
        ("serve", None) => cmd_serve(&rest),
        (cmd, Some(_)) => Err(usage(format!("{cmd} has no --remote variant"))),
        _ => Err(usage("")),
    }
}

fn open(repo: &str) -> Result<HiDeStore<FileContainerStore>, CliError> {
    let config = HiDeStoreConfig::load_from(repo)?;
    Ok(HiDeStore::open_repository(config, repo)?)
}

fn connect(remote: &Remote) -> Result<RemoteClient, CliError> {
    let timeout = remote.timeout.unwrap_or(DEFAULT_NET_TIMEOUT);
    let mut client =
        RemoteClient::connect_with(&remote.addr, hidestore::proto::Limits::default(), timeout)
            .map_err(|e| runtime(format!("cannot reach hds-served at {}: {e}", remote.addr)))?;
    if let Some(tenant) = &remote.tenant {
        client.set_tenant(tenant.clone());
    }
    Ok(client)
}

fn parse_version(version: &str) -> Result<u32, CliError> {
    version
        .trim_start_matches(['v', 'V'])
        .parse()
        .map_err(|_| usage(format!("{version} is not a version number")))
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
            "--scheme" => config.scheme = DedupMode::parse(value).map_err(usage)?,
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
    let mut system = HiDeStore::open_repository(config, repo)?;
    system.save_repository(repo)?;
    println!(
        "initialized repository at {repo} (chunk {} B, container {} B, history depth {}, \
         scheme {})",
        config.avg_chunk_size, config.container_capacity, config.history_depth, config.scheme,
    );
    Ok(())
}

fn cmd_backup(repo: &str, file: &str) -> CliResult {
    let data = fs::read(file)?;
    let mut system = open(repo)?;
    let stats = system.backup(&data)?;
    system.save_repository(repo)?;
    println!(
        "{} -> {}: {} bytes, {} chunks, {} new bytes stored ({:.1}% deduplicated), \
         {} cold chunks archived",
        file,
        stats.version,
        stats.logical_bytes,
        stats.chunks,
        stats.stored_bytes,
        stats.dedup_ratio() * 100.0,
        stats.cold_chunks,
    );
    Ok(())
}

fn cmd_backup_remote(remote: &Remote, file: &str) -> CliResult {
    let data = fs::read(file)?;
    let mut client = connect(remote)?;
    let summary = client.backup_bytes(&data)?;
    println!(
        "{} -> V{} on {}: {} bytes, {} chunks, {} new bytes stored, {} cold chunks archived",
        file,
        summary.version,
        remote.addr,
        summary.logical_bytes,
        summary.chunks,
        summary.stored_bytes,
        summary.cold_chunks,
    );
    Ok(())
}

fn cmd_restore(repo: &str, version: &str, outfile: &str) -> CliResult {
    let v = parse_version(version)?;
    if v == 0 {
        return Err(runtime("version ids are 1-based".to_string()));
    }
    let system = open(repo)?;
    // Output is staged in `<outfile>.tmp` and renamed on success, so a
    // failed restore never leaves a partial file behind.
    let report = system.restore_to_path(
        VersionId::new(v),
        &mut Faa::new(32 << 20),
        Path::new(outfile),
    )?;
    println!(
        "restored V{v} to {outfile}: {} bytes, {} container reads (speed factor {:.2} MB/read)",
        report.bytes_restored,
        report.container_reads,
        report.speed_factor(),
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
    let mut system = open(repo)?;
    let report = hidestore::tree::backup_tree(
        &mut system,
        &hidestore::failpoint::RealVfs,
        Path::new(dir),
        &hidestore::tree::TreeBackupOptions { excludes },
    )?;
    system.save_repository(repo)?;
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
    let v = parse_version(version)?;
    if v == 0 {
        return Err(runtime("version ids are 1-based".to_string()));
    }
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
        VersionId::new(v),
        Path::new(dest),
        &hidestore::tree::TreeRestoreOptions {
            subtree,
            ..Default::default()
        },
    )?;
    println!(
        "restored V{v} to {dest}: {} files, {} dirs, {} symlinks, {} bytes, \
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

fn cmd_restore_remote(remote: &Remote, version: &str, outfile: &str) -> CliResult {
    let v = parse_version(version)?;
    let mut client = connect(remote)?;
    let summary = client.restore_to_path(v, Path::new(outfile))?;
    println!(
        "restored V{v} from {} to {outfile}: {} bytes, {} container reads",
        remote.addr, summary.bytes_restored, summary.container_reads,
    );
    Ok(())
}

fn cmd_list(repo: &str, json: bool) -> CliResult {
    let system = open(repo)?;
    let list = view::list_response(&system);
    if json {
        println!("{}", list.to_json());
        return Ok(());
    }
    print_list(&list);
    Ok(())
}

fn cmd_list_remote(remote: &Remote, json: bool) -> CliResult {
    let mut client = connect(remote)?;
    let list = client.list()?;
    if json {
        println!("{}", list.to_json());
        return Ok(());
    }
    print_list(&list);
    Ok(())
}

fn print_list(list: &hidestore::proto::ListResponse) {
    if list.versions.is_empty() {
        println!("repository is empty");
        return;
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
}

fn cmd_stats(repo: &str, json: bool) -> CliResult {
    let system = open(repo)?;
    let stats = view::stats_response(&system)?;
    if json {
        println!("{}", stats.to_json());
        return Ok(());
    }
    print_stats(&stats);
    Ok(())
}

fn cmd_stats_remote(remote: &Remote, json: bool) -> CliResult {
    let mut client = connect(remote)?;
    let stats = client.stats()?;
    if json {
        println!("{}", stats.to_json());
        return Ok(());
    }
    print_stats(&stats);
    Ok(())
}

fn print_stats(stats: &hidestore::proto::StatsResponse) {
    if stats.versions.is_empty() {
        println!("repository is empty");
        return;
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
    println!(
        "pool: {} containers, {} hot chunks, {:.1} KiB live",
        stats.pool_containers,
        stats.pool_chunks,
        stats.pool_live_bytes as f64 / 1024.0,
    );
    if stats.out_of_line_rewritten_bytes > 0 {
        println!(
            "out-of-line rewrites this session: {} bytes (rewrite traffic, not new data)",
            stats.out_of_line_rewritten_bytes,
        );
    }
}

fn cmd_prune(repo: &str, keep: &str) -> CliResult {
    let keep: u32 = keep
        .parse()
        .map_err(|_| usage(format!("keep-last must be a number, got {keep}")))?;
    let keep = NonZeroU32::new(keep).ok_or_else(|| runtime("must keep at least one version"))?;
    let mut system = open(repo)?;
    let Some(report) = system.prune_keep_last(keep)? else {
        match system.versions().len() {
            0 => println!("repository is empty"),
            n => println!("nothing to prune ({n} versions retained)"),
        }
        return Ok(());
    };
    system.save_repository(repo)?;
    println!(
        "pruned {} versions, dropped {} containers, reclaimed {} bytes in {:?} (no GC)",
        report.versions_removed, report.containers_dropped, report.bytes_reclaimed, report.elapsed,
    );
    Ok(())
}

fn cmd_prune_remote(remote: &Remote, keep: &str) -> CliResult {
    let keep: u32 = keep
        .parse()
        .map_err(|_| usage(format!("keep-last must be a number, got {keep}")))?;
    let mut client = connect(remote)?;
    let summary = client.prune(keep)?;
    println!(
        "pruned {} versions, dropped {} containers, reclaimed {} bytes on {}",
        summary.versions_removed, summary.containers_dropped, summary.bytes_reclaimed, remote.addr,
    );
    Ok(())
}

fn cmd_verify(repo: &str) -> CliResult {
    let report = open(repo)?.scrub()?;
    println!(
        "checked {} containers, {} chunks, {} recipes",
        report.containers_checked, report.chunks_checked, report.recipes_checked,
    );
    verdict(&report.corrupt_chunks)
}

fn cmd_verify_remote(remote: &Remote) -> CliResult {
    let mut client = connect(remote)?;
    let summary = client.verify()?;
    println!(
        "checked {} containers, {} chunks, {} recipes on {}",
        summary.containers_checked, summary.chunks_checked, summary.recipes_checked, remote.addr,
    );
    verdict(&summary.corrupt_chunks)
}

/// The end of both `verify` forms: clean, or one line per damage found
/// (container id, 0 when none, and what is wrong) and a failing exit.
fn verdict(damage: &[(u32, String)]) -> CliResult {
    if damage.is_empty() {
        println!("repository is clean");
        return Ok(());
    }
    for (container, what) in damage {
        eprintln!("CORRUPT: container {container}: {what}");
    }
    Err(runtime(format!(
        "{} integrity problems found",
        damage.len()
    )))
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
    println!("hds-served at {} is draining", remote.addr);
    Ok(())
}

fn cmd_recluster(repo: &str) -> CliResult {
    let mut system = open(repo)?;
    let report = system.recluster_archival()?;
    system.save_repository(repo)?;
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

fn cmd_dedup_pass(repo: &str) -> CliResult {
    let mut system = open(repo)?;
    let report = system.out_of_line_pass()?;
    system.save_repository(repo)?;
    println!(
        "out-of-line pass: {} duplicate chunks removed ({} bytes reclaimed), \
         {} containers rewritten, {} removed, {} recipe entries updated, \
         {} bytes rewritten in {:?}",
        report.duplicate_chunks_removed,
        report.bytes_reclaimed,
        report.containers_rewritten,
        report.containers_removed,
        report.recipe_entries_updated,
        report.rewritten_bytes,
        report.elapsed,
    );
    Ok(())
}

fn cmd_flatten(repo: &str) -> CliResult {
    let mut system = open(repo)?;
    let (updated, elapsed) = system.flatten_recipes();
    system.save_repository(repo)?;
    println!("flattened recipe chains: {updated} entries updated in {elapsed:?}");
    Ok(())
}

fn cmd_serve(args: &[String]) -> CliResult {
    let (repo, config) = ServerConfig::from_args(args).map_err(usage)?;
    Ok(hidestore::server::serve_until_shutdown(&repo, config)?)
}
