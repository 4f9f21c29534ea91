//! `hds-fsck` — offline invariant checker for an on-disk HiDeStore
//! repository directory (as written by `HiDeStore::save_repository`).
//!
//! Usage: `hds-fsck <repo-dir> [--tenants] [--no-content] [--json]`
//!
//! Besides the cross-layer invariants, crash-recovery state is reported as
//! warnings: an interrupted save transaction pending in `staging/` (scanned
//! *before* the repository is opened, since opening resolves it by rolling
//! the transaction forward or back) and artifacts held in `quarantine/` by
//! degraded-mode recovery.
//!
//! With `--tenants` the argument is a multi-tenant root (as served by
//! `hds-served --tenants`): every repository under `<root>/tenants/<id>/`
//! is audited independently, directory entries that are not valid tenant
//! ids are reported as foreign, and the exit code aggregates across all
//! tenants.
//!
//! Exit codes: `0` clean, `1` findings reported, `2` usage or I/O error.

use std::process::ExitCode;

use hidestore_core::{
    repository_recovery_state, HiDeStore, HiDeStoreConfig, PendingJournal, RepositoryMeta,
};
use hidestore_fsck::{AuditOptions, AuditReport, Finding, FindingKind, Severity, SystemAuditor};
use hidestore_proto::json::json_string;
use hidestore_proto::TenantId;
use hidestore_tenant::TENANTS_SUBDIR;

struct Args {
    dir: String,
    verify_content: bool,
    json: bool,
    tenants: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut dir = None;
    let mut verify_content = true;
    let mut json = false;
    let mut tenants = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--no-content" => verify_content = false,
            "--json" => json = true,
            "--tenants" => tenants = true,
            "-h" | "--help" => {
                return Err(
                    "usage: hds-fsck <repo-dir> [--tenants] [--no-content] [--json]\n\
                     \n\
                     Checks every cross-layer invariant of a HiDeStore repository and\n\
                     reports violations as typed findings. Crash-recovery state is\n\
                     reported as warnings: an interrupted save transaction pending in\n\
                     staging/ (inspected before the open resolves it) and artifacts\n\
                     held in quarantine/ by degraded-mode recovery.\n\
                     \n\
                     --tenants     audit a multi-tenant root: every repository under\n\
                     \x20             <repo-dir>/tenants/<id>/ is checked independently\n\
                     \x20             and the exit code aggregates across tenants\n\
                     --no-content  skip payload re-hashing (for trace-driven repos)\n\
                     --json        machine-readable report"
                        .into(),
                )
            }
            other if other.starts_with('-') => return Err(format!("unknown flag: {other}")),
            other => {
                if dir.replace(other.to_string()).is_some() {
                    return Err("expected exactly one repository directory".into());
                }
            }
        }
    }
    let dir = dir.ok_or("usage: hds-fsck <repo-dir> [--tenants] [--no-content] [--json]")?;
    Ok(Args {
        dir,
        verify_content,
        json,
        tenants,
    })
}

/// The report's key/value body as JSON lines, one `indent` deep, without
/// the surrounding braces (so it can be embedded per tenant).
fn json_report_body(report: &AuditReport, indent: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!("{indent}\"clean\": {},\n", report.is_clean()));
    out.push_str(&format!(
        "{indent}\"containers_checked\": {},\n",
        report.containers_checked
    ));
    out.push_str(&format!(
        "{indent}\"chunks_checked\": {},\n",
        report.chunks_checked
    ));
    out.push_str(&format!(
        "{indent}\"recipes_checked\": {},\n",
        report.recipes_checked
    ));
    out.push_str(&format!(
        "{indent}\"entries_checked\": {},\n",
        report.entries_checked
    ));
    out.push_str(&format!(
        "{indent}\"orphan_chunks\": {},\n",
        report.orphan_chunks
    ));
    out.push_str(&format!(
        "{indent}\"orphan_bytes\": {},\n",
        report.orphan_bytes
    ));
    out.push_str(&format!(
        "{indent}\"tree_manifests_checked\": {},\n",
        report.tree_manifests_checked
    ));
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

fn print_json(report: &AuditReport) {
    println!("{{");
    print!("{}", json_report_body(report, "  "));
    println!();
    println!("}}");
}

/// Audits one repository directory, folding pre-open crash-recovery state
/// into the findings. This is the single-repository core both modes share.
fn audit_repo(dir: &str, verify_content: bool) -> Result<AuditReport, String> {
    // Crash-recovery scan *before* the open: opening resolves a pending
    // journal (roll forward or back), so this is the only moment it can be
    // observed and reported.
    let recovery =
        repository_recovery_state(dir).map_err(|e| format!("cannot scan recovery state: {e}"))?;
    let mut pre_open: Vec<Finding> = Vec::new();
    if let Some(pending) = recovery.pending_journal {
        let detail = match pending {
            PendingJournal::RollForward {
                publishes,
                removals,
            } => format!(
                "valid commit record ({publishes} publishes, {removals} removals); \
                 opening the repository rolls it forward"
            ),
            PendingJournal::RollBack => "no valid commit record; opening the repository \
                 discards the staging tree"
                .to_string(),
        };
        pre_open.push(Finding {
            severity: Severity::Warning,
            kind: FindingKind::PendingJournal { detail },
        });
    }

    // The repository meta file records the history depth the store was
    // built with; opening with a mismatched depth is refused by the core.
    let meta = RepositoryMeta::read(dir)
        .map_err(|e| format!("cannot read repository meta: {e}"))?
        .ok_or_else(|| format!("{dir}: not a HiDeStore repository (no meta file)"))?;

    let config = HiDeStoreConfig::default().with_history_depth(meta.history_depth as usize);
    let system = HiDeStore::open_repository(config, dir)
        .map_err(|e| format!("cannot open repository: {e}"))?;

    let auditor = SystemAuditor::with_options(AuditOptions { verify_content });
    let mut report = auditor.audit(&system);
    // Pre-open findings (the pending journal) lead the report; quarantine
    // contents are already reported by the auditor from the system's quarantine.
    report.findings.splice(0..0, pre_open);
    Ok(report)
}

fn run_single(args: &Args) -> Result<Option<Severity>, String> {
    let report = audit_repo(&args.dir, args.verify_content)?;
    if args.json {
        print_json(&report);
    } else {
        for finding in &report.findings {
            println!("{finding}");
        }
        println!("{report}");
    }
    Ok(report.max_severity())
}

/// One tenant slot under the root, audited or rejected.
struct TenantOutcome {
    name: String,
    /// `Ok(report)` for a valid tenant id whose repository opened;
    /// `Err(why)` for a foreign entry or an unopenable repository.
    result: Result<AuditReport, String>,
}

fn run_tenants(args: &Args) -> Result<Option<Severity>, String> {
    let tenants_dir = std::path::Path::new(&args.dir).join(TENANTS_SUBDIR);
    if !tenants_dir.is_dir() {
        return Err(format!(
            "{}: not a multi-tenant root (no {TENANTS_SUBDIR}/ directory)",
            args.dir
        ));
    }
    let mut names: Vec<String> = std::fs::read_dir(&tenants_dir)
        .map_err(|e| format!("cannot read {}: {e}", tenants_dir.display()))?
        .filter_map(|entry| entry.ok())
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();

    let mut outcomes: Vec<TenantOutcome> = Vec::new();
    for name in names {
        // The registry only ever creates directories named by a valid
        // tenant id; anything else under tenants/ was put there by hand
        // and is a finding, not a repository to open.
        let result = match TenantId::new(&name) {
            Err(e) => Err(format!("foreign entry (not a tenant id): {e}")),
            Ok(_) if !tenants_dir.join(&name).is_dir() => {
                Err("foreign entry (not a directory)".to_string())
            }
            Ok(_) => audit_repo(
                tenants_dir.join(&name).to_string_lossy().as_ref(),
                args.verify_content,
            ),
        };
        outcomes.push(TenantOutcome { name, result });
    }

    let mut worst: Option<Severity> = None;
    let mut bump = |severity: Option<Severity>| {
        worst = match (worst, severity) {
            (w, None) => w,
            (None, s) => s,
            (Some(Severity::Error), _) | (_, Some(Severity::Error)) => Some(Severity::Error),
            _ => Some(Severity::Warning),
        };
    };
    for outcome in &outcomes {
        match &outcome.result {
            Ok(report) => bump(report.max_severity()),
            Err(_) => bump(Some(Severity::Error)),
        }
    }

    if args.json {
        println!("{{");
        println!("  \"clean\": {},", worst.is_none());
        println!("  \"tenants_checked\": {},", outcomes.len());
        println!("  \"tenants\": [");
        for (i, outcome) in outcomes.iter().enumerate() {
            let comma = if i + 1 < outcomes.len() { "," } else { "" };
            println!("    {{");
            println!("      \"tenant\": {},", json_string(&outcome.name));
            match &outcome.result {
                Ok(report) => {
                    print!("{}", json_report_body(report, "      "));
                    println!();
                }
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
            println!("no tenants under {}", tenants_dir.display());
        }
        for outcome in &outcomes {
            println!("== tenant {} ==", outcome.name);
            match &outcome.result {
                Ok(report) => {
                    for finding in &report.findings {
                        println!("{finding}");
                    }
                    println!("{report}");
                }
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
    Ok(worst)
}

fn main() -> ExitCode {
    let result = match parse_args() {
        Ok(args) if args.tenants => run_tenants(&args),
        Ok(args) => run_single(&args),
        Err(msg) => Err(msg),
    };
    match result {
        Ok(None) => ExitCode::SUCCESS,
        Ok(Some(Severity::Warning)) | Ok(Some(Severity::Error)) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("hds-fsck: {msg}");
            ExitCode::from(2)
        }
    }
}
