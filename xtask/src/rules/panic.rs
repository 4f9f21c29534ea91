//! Rule family 4 — panic audit: library code returns errors instead of
//! aborting the process that embeds it.
//!
//! * `panic-call` (medium) — `.unwrap()`, `.expect(…)` and `panic!` outside
//!   test scope. A deliberate abort is waived in `xtask/analyze-allow.txt`
//!   with its justification.
//! * `panic-marker` — `todo!` / `unimplemented!` (medium), a guaranteed
//!   panic pretending to be a plan, and `dbg!` (low), a debug leftover that
//!   writes to stderr in production.
//! * `crate-root-attr` (medium) — every crate root carries
//!   `#![forbid(unsafe_code)]` and `#![warn(missing_docs)]`.

use crate::findings::{Finding, Severity};
use crate::lexer::TokKind;
use crate::workspace::Workspace;

const REQUIRED_CRATE_ATTRS: [&str; 2] = ["#![forbid(unsafe_code)]", "#![warn(missing_docs)]"];

/// Scans all library code for panic calls and markers, and every crate root
/// for the required attributes.
pub fn scan(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for sf in &ws.files {
        for (i, t) in sf.toks.iter().enumerate() {
            if sf.test_mask[i] || t.kind != TokKind::Ident {
                continue;
            }
            let punct_at = |k: usize, p: &str| sf.toks.get(k).is_some_and(|n| n.is_punct(p));
            let method = i >= 1 && punct_at(i - 1, ".") && punct_at(i + 1, "(");
            let (rule, severity, form) = match t.text.as_str() {
                "todo" | "unimplemented" if punct_at(i + 1, "!") => {
                    ("panic-marker", Severity::Medium, "!")
                }
                "dbg" if punct_at(i + 1, "!") => ("panic-marker", Severity::Low, "!"),
                "panic" if punct_at(i + 1, "!") => ("panic-call", Severity::Medium, "!"),
                // Exactly the niladic `.unwrap()`.
                "unwrap" if method && punct_at(i + 2, ")") => {
                    ("panic-call", Severity::Medium, "()")
                }
                "expect" if method => ("panic-call", Severity::Medium, "(..)"),
                _ => continue,
            };
            findings.push(Finding {
                rule,
                severity,
                file: sf.rel.clone(),
                line: t.line,
                message: format!(
                    "forbidden `{}{form}` in library code: {}",
                    t.text,
                    sf.line_text(t.line)
                ),
            });
        }
    }
    for sf in ws
        .files
        .iter()
        .filter(|sf| ws.crate_roots.contains(&sf.rel))
    {
        for attr in REQUIRED_CRATE_ATTRS {
            if !sf.lines.iter().any(|l| l.trim() == attr) {
                findings.push(Finding {
                    rule: "crate-root-attr",
                    severity: Severity::Medium,
                    file: sf.rel.clone(),
                    line: 0,
                    message: format!("crate root is missing `{attr}`"),
                });
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::SourceFile;
    use std::path::PathBuf;

    fn scan_root(src: &str) -> Vec<Finding> {
        let ws = Workspace {
            root: PathBuf::new(),
            files: vec![SourceFile::parse("crates/x/src/lib.rs", src)],
            crate_roots: vec!["crates/x/src/lib.rs".to_string()],
            unreadable: vec![],
        };
        scan(&ws)
    }

    fn scan_src(src: &str) -> Vec<Finding> {
        let attrs = "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n";
        scan_root(&format!("{attrs}{src}"))
    }

    #[test]
    fn markers_are_flagged_with_severities() {
        let f = scan_src(
            "fn a() { todo!() }\nfn b() { unimplemented!() }\nfn c(x: u32) { let _ = dbg!(x); }\n",
        );
        assert_eq!(f.len(), 3);
        assert_eq!(f[0].severity, Severity::Medium);
        assert_eq!(f[2].severity, Severity::Low);
    }

    #[test]
    fn panic_calls_are_flagged() {
        let f = scan_src(
            "fn a(x: Option<u8>) -> u8 { x.unwrap() }\n\
             fn b(x: Option<u8>) -> u8 { x.expect(\"set\") }\n\
             fn c() { panic!(\"no\") }\n\
             fn d(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n",
        );
        let rules: Vec<(&str, u32)> = f.iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(
            rules,
            [("panic-call", 3), ("panic-call", 4), ("panic-call", 5)]
        );
        assert!(f[0].message.contains("`unwrap()`"), "{}", f[0].message);
    }

    #[test]
    fn test_scope_and_strings_are_exempt() {
        let f = scan_src(
            "#[cfg(test)]\nmod tests { fn t() { todo!(); None::<u8>.unwrap(); } }\n\
             fn live() { let _ = \"todo! dbg! .unwrap()\"; }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn crate_roots_need_both_attributes() {
        let f = scan_root("#![forbid(unsafe_code)]\n//! A crate.\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "crate-root-attr");
        assert!(f[0].message.contains("missing_docs"), "{}", f[0].message);
    }
}
