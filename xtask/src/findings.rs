//! Finding taxonomy and the deterministic report formats for
//! `cargo xtask analyze`.

use std::fmt::Write as _;

use hidestore_proto::json::json_string;

/// How serious a finding is. Severity is taxonomy, not policy: *every*
/// finding fails the analysis (exit 1); severity tells a reader which to
/// fix first and feeds the JSON report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Violates a paid-for system guarantee (crash atomicity, deadlock
    /// freedom, allocation-bounded decoding).
    High,
    /// Erodes a guarantee or its diagnosability (poison-punting, silent
    /// length truncation).
    Medium,
    /// Hygiene: debug leftovers, stale allowlist entries.
    Low,
}

impl Severity {
    /// Lower-case label used in both report formats.
    pub fn label(self) -> &'static str {
        match self {
            Severity::High => "high",
            Severity::Medium => "medium",
            Severity::Low => "low",
        }
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Stable rule identifier (`vfs-io`, `lock-cycle`, `lock-poison`,
    /// `wire-cast`, `wire-alloc`, `net-io`, `panic-call`, `panic-marker`,
    /// `crate-root-attr`, `allowlist-stale`, `allowlist-malformed`).
    pub rule: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Workspace-relative `/`-separated file path.
    pub file: String,
    /// 1-based line (0 for file- or list-level findings).
    pub line: u32,
    /// Human-readable explanation, deterministic (derived from source only).
    pub message: String,
}

/// The complete result of one analysis run.
#[derive(Debug)]
pub struct Report {
    /// How many library files were scanned.
    pub files: usize,
    /// All findings, sorted by [`Report::sort`]'s key.
    pub findings: Vec<Finding>,
}

impl Report {
    /// Sorts findings deterministically: file, then line, then rule, then
    /// message. Both output formats and the tests rely on this order.
    pub fn sort(&mut self) {
        self.findings.sort_by(|a, b| {
            (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
        });
    }

    /// Whether the tree is clean.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The human-readable report: one line per finding plus a summary line.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            if f.line == 0 {
                let _ = writeln!(
                    out,
                    "{}: [{}/{}] {}",
                    f.file,
                    f.rule,
                    f.severity.label(),
                    f.message
                );
            } else {
                let _ = writeln!(
                    out,
                    "{}:{}: [{}/{}] {}",
                    f.file,
                    f.line,
                    f.rule,
                    f.severity.label(),
                    f.message
                );
            }
        }
        let _ = writeln!(
            out,
            "xtask analyze: {} finding(s) across {} file(s)",
            self.findings.len(),
            self.files
        );
        out
    }

    /// The machine-readable report: one line of JSON with a fixed key order
    /// and no timestamps, pinned byte-for-byte by tests (same discipline as
    /// the proto JSON serializer).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.findings.len() * 96);
        let _ = write!(
            out,
            "{{\"tool\":\"xtask-analyze\",\"schema\":1,\"clean\":{},\"files\":{},\"findings\":[",
            self.clean(),
            self.files
        );
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"rule\":");
            out.push_str(&json_string(f.rule));
            out.push_str(",\"severity\":");
            out.push_str(&json_string(f.severity.label()));
            out.push_str(",\"file\":");
            out.push_str(&json_string(&f.file));
            let _ = write!(out, ",\"line\":{},\"message\":", f.line);
            out.push_str(&json_string(&f.message));
            out.push('}');
        }
        out.push_str("]}");
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, file: &str, line: u32) -> Finding {
        Finding {
            rule,
            severity: Severity::High,
            file: file.into(),
            line,
            message: format!("m {file}:{line}"),
        }
    }

    #[test]
    fn sort_is_total_and_stable() {
        let mut r = Report {
            files: 2,
            findings: vec![
                finding("b", "z.rs", 3),
                finding("a", "a.rs", 9),
                finding("a", "z.rs", 3),
            ],
        };
        r.sort();
        let order: Vec<_> = r
            .findings
            .iter()
            .map(|f| (f.file.clone(), f.line, f.rule))
            .collect();
        assert_eq!(
            order,
            vec![
                ("a.rs".to_string(), 9, "a"),
                ("z.rs".to_string(), 3, "a"),
                ("z.rs".to_string(), 3, "b"),
            ]
        );
    }

    #[test]
    fn json_is_deterministic_and_escaped() {
        let mut r = Report {
            files: 1,
            findings: vec![Finding {
                rule: "panic-marker",
                severity: Severity::Low,
                file: "crates/x/src/lib.rs".into(),
                line: 7,
                message: "forbidden `dbg!` with \"quotes\"".into(),
            }],
        };
        r.sort();
        assert_eq!(
            r.to_json(),
            "{\"tool\":\"xtask-analyze\",\"schema\":1,\"clean\":false,\"files\":1,\"findings\":[{\"rule\":\"panic-marker\",\"severity\":\"low\",\"file\":\"crates/x/src/lib.rs\",\"line\":7,\"message\":\"forbidden `dbg!` with \\\"quotes\\\"\"}]}\n"
        );
    }

    #[test]
    fn clean_json_shape() {
        let r = Report {
            files: 4,
            findings: vec![],
        };
        assert_eq!(
            r.to_json(),
            "{\"tool\":\"xtask-analyze\",\"schema\":1,\"clean\":true,\"files\":4,\"findings\":[]}\n"
        );
    }
}
