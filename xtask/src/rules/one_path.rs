//! Rule family 6 — one implementation per decision (`one-path`, severity
//! medium).
//!
//! The program keeps one implementation of each decision it makes
//! (ROADMAP aim 2): the unifications done so far stay done only if a later
//! change cannot quietly add a second one back. Each row of `ROWS` names
//! a token pattern and the files that own it; the pattern anywhere else in
//! non-test library code under `src/` or `crates/` is flagged. Test code
//! is exempt, and a waiver uses the allowlist like every other rule.

use crate::findings::{Finding, Severity};
use crate::lexer::SourceFile;
use crate::workspace::Workspace;

/// A call pattern only its owning files may contain.
struct Row {
    /// Consecutive token texts, e.g. `["thread", "::", "scope"]`.
    pattern: &'static [&'static str],
    /// Workspace-relative paths of the files that own the pattern.
    owners: &'static [&'static str],
    /// What the owner is, for the finding message.
    owner_is: &'static str,
}

const ROWS: &[Row] = &[
    Row {
        pattern: &["thread", "::", "scope"],
        owners: &["crates/hash/src/parallel.rs"],
        owner_is: "`hidestore_hash::map_ordered` is the program's one fan-out",
    },
    Row {
        pattern: &["Socket", "::", "connect"],
        owners: &["crates/server/src/client.rs"],
        owner_is: "`RemoteClient` is the program's one client",
    },
    Row {
        pattern: &["DataWriter", "::", "new"],
        owners: &["crates/server/src/client.rs", "crates/server/src/server.rs"],
        owner_is: "a DATA stream is one backup upload or one restore download",
    },
    Row {
        pattern: &["write_staged"],
        owners: &[
            "src/bin/hidestore.rs",
            "crates/core/src/system.rs",
            "crates/core/src/lib.rs",
        ],
        owner_is: "the CLI's `restore` is the one staged restore to a file",
    },
];

/// Whether `rel` is in scope for this rule.
fn in_scope(rel: &str) -> bool {
    rel.starts_with("src/") || rel.starts_with("crates/")
}

/// Scans the workspace for each row's pattern outside its owners.
pub fn scan(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for sf in ws.files.iter().filter(|f| in_scope(&f.rel)) {
        for row in ROWS.iter().filter(|r| !r.owners.contains(&sf.rel.as_str())) {
            scan_file(sf, row, &mut findings);
        }
    }
    findings
}

fn scan_file(sf: &SourceFile, row: &Row, findings: &mut Vec<Finding>) {
    let n = row.pattern.len();
    for (i, window) in sf.toks.windows(n).enumerate() {
        if sf.test_mask[i] || !window.iter().zip(row.pattern).all(|(t, p)| t.text == *p) {
            continue;
        }
        let line = window[0].line;
        findings.push(Finding {
            rule: "one-path",
            severity: Severity::Medium,
            file: sf.rel.clone(),
            line,
            message: format!(
                "`{}` outside {} ({}): {}",
                row.pattern.concat(),
                row.owners.join(", "),
                row.owner_is,
                sf.line_text(line)
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scan_src(rel: &str, src: &str) -> Vec<Finding> {
        let ws = Workspace {
            root: PathBuf::new(),
            files: vec![SourceFile::parse(rel, src)],
            crate_roots: vec![],
            unreadable: vec![],
        };
        scan(&ws)
    }

    #[test]
    fn flags_a_scoped_thread_outside_the_fan_out() {
        let src = "fn f() { std::thread::scope(|s| { s.spawn(|| ()); }); }\n";
        let f = scan_src("crates/dedup/src/pipeline/front_end.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].rule, f[0].line), ("one-path", 1));
        let imported = "use std::thread::scope;\n";
        assert_eq!(scan_src("src/lib.rs", imported).len(), 1);
    }

    #[test]
    fn the_owner_tests_and_comments_are_exempt() {
        let src = "fn f() { std::thread::scope(|_| ()); }\n";
        assert!(scan_src("crates/hash/src/parallel.rs", src).is_empty());
        let test_side = "#[cfg(test)]\nmod tests { fn t() { std::thread::scope(|_| ()); } }\n";
        assert!(scan_src("crates/core/src/handle.rs", test_side).is_empty());
        let comment = "/// Runs on `std::thread::scope`.\nfn doc() {}\n";
        assert!(scan_src("crates/core/src/persist.rs", comment).is_empty());
        let spawn = "fn f() { std::thread::spawn(|| ()); }\n";
        assert!(scan_src("crates/server/src/server.rs", spawn).is_empty());
    }

    #[test]
    fn a_second_client_is_flagged_outside_its_owners() {
        let connect = "fn f(a: &str) { let _ = Socket::connect(a, None); }\n";
        assert!(scan_src("crates/server/src/client.rs", connect).is_empty());
        assert_eq!(scan_src("crates/server/src/server.rs", connect).len(), 1);
        let data = "fn f(s: &mut Vec<u8>) { let _ = DataWriter::new(s); }\n";
        assert!(scan_src("crates/server/src/server.rs", data).is_empty());
        assert_eq!(scan_src("crates/tree/src/restore.rs", data).len(), 1);
        let staged = "use hidestore_core::write_staged;\n";
        assert!(scan_src("src/bin/hidestore.rs", staged).is_empty());
        assert!(scan_src("crates/core/src/lib.rs", staged).is_empty());
        let found = scan_src("crates/server/src/client.rs", staged);
        assert_eq!((found.len(), found[0].line), (1, 1));
    }
}
