//! `cargo xtask analyze` — the invariant-enforcing static-analysis wall.
//!
//! Orchestrates the rule families in [`crate::rules`] over the lexed
//! workspace, applies the `xtask/analyze-allow.txt` allowlist (with stale-
//! and malformed-entry detection), and emits either the human report or the
//! deterministic `--json` report. Exit codes: 0 clean, 1 findings, 2
//! usage/I/O errors.

use std::path::Path;

use crate::allow::AnalyzeAllowlist;
use crate::findings::{Finding, Report, Severity};
use crate::rules;
use crate::workspace::Workspace;

const ALLOW_FILE: &str = "xtask/analyze-allow.txt";

/// Runs the analysis over `root`. Returns the process exit code.
pub fn run(root: &Path, json: bool) -> u8 {
    let allowlist = match AnalyzeAllowlist::load(&root.join("xtask").join("analyze-allow.txt")) {
        Ok(list) => list,
        Err(e) => {
            eprintln!("xtask: cannot read {ALLOW_FILE}: {e}");
            return 2;
        }
    };
    let ws = Workspace::collect(root);
    if !ws.unreadable.is_empty() {
        for u in &ws.unreadable {
            eprintln!("xtask: {u}");
        }
        return 2;
    }

    let report = analyze(&ws, &allowlist);
    if json {
        print!("{}", report.to_json());
    } else {
        print!("{}", report.to_text());
    }
    u8::from(!report.clean())
}

/// Runs every rule family and folds in the allowlist. Exposed for tests.
pub fn analyze(ws: &Workspace, allowlist: &AnalyzeAllowlist) -> Report {
    let mut raw: Vec<Finding> = Vec::new();
    raw.extend(rules::vfs::scan(ws));
    raw.extend(rules::locks::scan(ws));
    raw.extend(rules::wire::scan(ws));
    raw.extend(rules::net::scan(ws));
    raw.extend(rules::one_path::scan(ws));
    raw.extend(rules::panic::scan(ws));

    let mut allow_hits = vec![false; allowlist.entries.len()];
    let mut findings: Vec<Finding> = Vec::new();
    for f in raw {
        let line_text = ws
            .files
            .iter()
            .find(|sf| sf.rel == f.file)
            .map(|sf| sf.line_text(f.line))
            .unwrap_or("");
        match allowlist.matches(f.rule, &f.file, line_text) {
            Some(idx) => allow_hits[idx] = true,
            None => findings.push(f),
        }
    }

    for (i, entry) in allowlist.entries.iter().enumerate() {
        if !allow_hits[i] {
            findings.push(Finding {
                rule: "allowlist-stale",
                severity: Severity::Low,
                file: ALLOW_FILE.to_string(),
                line: 0,
                message: format!(
                    "stale entry `{} :: {} :: {}` matches nothing",
                    entry.rule, entry.path, entry.pattern
                ),
            });
        }
    }
    for (line, problem) in &allowlist.malformed {
        findings.push(Finding {
            rule: "allowlist-malformed",
            severity: Severity::Low,
            file: ALLOW_FILE.to_string(),
            line: *line,
            message: problem.clone(),
        });
    }

    let mut report = Report {
        files: ws.files.len(),
        findings,
    };
    report.sort();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::SourceFile;
    use std::path::PathBuf;

    fn ws_of(files: Vec<(&str, &str)>) -> Workspace {
        Workspace {
            root: PathBuf::new(),
            files: files
                .into_iter()
                .map(|(rel, src)| SourceFile::parse(rel, src))
                .collect(),
            crate_roots: vec![],
            unreadable: vec![],
        }
    }

    fn allow(text: &str) -> AnalyzeAllowlist {
        // Tests run in parallel: one file per call, never a shared one.
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("xtask-analyze-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join(format!("aa-{seq}.txt"));
        std::fs::write(&file, text).unwrap();
        AnalyzeAllowlist::load(&file).unwrap()
    }

    #[test]
    fn allowlisted_finding_is_waived_and_entry_counts_as_used() {
        let ws = ws_of(vec![(
            "crates/core/src/lib.rs",
            "fn f() { std::fs::write(\"x\", b\"\").ok(); }\n",
        )]);
        let list = allow("vfs-io :: crates/core/src/lib.rs :: std::fs::write :: scratch output\n");
        let report = analyze(&ws, &list);
        assert!(report.clean(), "{:?}", report.findings);
    }

    #[test]
    fn stale_entry_is_a_finding() {
        let ws = ws_of(vec![("crates/core/src/lib.rs", "fn f() {}\n")]);
        let list = allow("vfs-io :: crates/core/src/lib.rs :: std::fs::write :: gone\n");
        let report = analyze(&ws, &list);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, "allowlist-stale");
    }

    #[test]
    fn malformed_entry_is_a_finding() {
        let ws = ws_of(vec![]);
        let list = allow("vfs-io :: crates/core/src/lib.rs :: no justification\n");
        let report = analyze(&ws, &list);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, "allowlist-malformed");
    }

    #[test]
    fn findings_from_all_families_aggregate_sorted() {
        let ws = ws_of(vec![
            (
                "crates/proto/src/wire.rs",
                "fn f(s: &str) -> u32 { s.len() as u32 }\n",
            ),
            (
                "crates/core/src/lib.rs",
                "fn g() { std::fs::read(\"x\").ok(); }\nfn h() { todo!() }\n",
            ),
        ]);
        let report = analyze(&ws, &AnalyzeAllowlist::default());
        let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
        assert_eq!(rules, ["vfs-io", "panic-marker", "wire-cast"]);
    }
}
