//! The allowlist of deliberate exceptions, `xtask/analyze-allow.txt`:
//! `rule :: path :: line-substring :: justification`, one per line. The
//! justification is mandatory — an exception nobody can explain is not an
//! exception — and an entry that matches nothing fails the run, so the
//! list cannot rot as the code it once excused moves or disappears.

use std::fs;
use std::path::Path;

/// One analyze exception: rule + path + substring + mandatory justification.
#[derive(Debug)]
pub struct AnalyzeAllowEntry {
    /// The rule id the entry waives (`vfs-io`, `wire-cast`, …).
    pub rule: String,
    /// Workspace-relative `/`-separated path.
    pub path: String,
    /// Substring the violating line must contain (empty = any line).
    pub pattern: String,
    /// One-line reason the exception is sound.
    pub justification: String,
}

/// The analyze allowlist plus parse diagnostics.
#[derive(Debug, Default)]
pub struct AnalyzeAllowlist {
    /// Entries in file order.
    pub entries: Vec<AnalyzeAllowEntry>,
    /// Malformed lines (`(line_number, problem)`), reported as findings.
    pub malformed: Vec<(u32, String)>,
}

impl AnalyzeAllowlist {
    /// Loads `path`; a missing file is an empty list.
    ///
    /// # Errors
    ///
    /// I/O errors reading an existing file.
    pub fn load(path: &Path) -> Result<Self, std::io::Error> {
        let text = if path.is_file() {
            fs::read_to_string(path)?
        } else {
            String::new()
        };
        let mut list = AnalyzeAllowlist::default();
        for (idx, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split("::").map(str::trim).collect();
            // `::` also appears inside Rust paths in the pattern field, so
            // split from both ends: rule, path, justification are `::`-free.
            if fields.len() < 4 {
                list.malformed.push((
                    idx as u32 + 1,
                    "expected `rule :: path :: substring :: justification`".to_string(),
                ));
                continue;
            }
            let rule = fields[0].to_string();
            let path = fields[1].to_string();
            let justification = fields[fields.len() - 1].to_string();
            let pattern = fields[2..fields.len() - 1].join("::");
            if justification.is_empty() {
                list.malformed
                    .push((idx as u32 + 1, "missing justification".to_string()));
                continue;
            }
            list.entries.push(AnalyzeAllowEntry {
                rule,
                path,
                pattern,
                justification,
            });
        }
        Ok(list)
    }

    /// Index of the first entry waiving `rule` at this (file, line), if any.
    pub fn matches(&self, rule: &str, rel_path: &str, line: &str) -> Option<usize> {
        self.entries.iter().position(|e| {
            e.rule == rule
                && e.path == rel_path
                && (e.pattern.is_empty() || line.contains(&e.pattern))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> AnalyzeAllowlist {
        // Tests run in parallel: one file per call, never a shared one.
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("xtask-allow-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join(format!("analyze-allow-{seq}.txt"));
        std::fs::write(&file, text).unwrap();
        let list = AnalyzeAllowlist::load(&file).unwrap();
        std::fs::remove_file(&file).unwrap();
        list
    }

    #[test]
    fn four_fields_parse_and_match() {
        let list = parse("vfs-io :: crates/a/src/lib.rs :: std::fs::rename :: output staging\n");
        assert_eq!(list.entries.len(), 1);
        assert_eq!(list.entries[0].pattern, "std::fs::rename");
        assert!(list
            .matches(
                "vfs-io",
                "crates/a/src/lib.rs",
                "std::fs::rename(&tmp, path)?"
            )
            .is_some());
        assert!(list
            .matches(
                "wire-cast",
                "crates/a/src/lib.rs",
                "std::fs::rename(&tmp, path)?"
            )
            .is_none());
    }

    #[test]
    fn pattern_may_contain_path_separators() {
        let list = parse("vfs-io :: a.rs :: use std::fs::File :: client-side output\n");
        assert_eq!(list.entries[0].pattern, "use std::fs::File");
        assert_eq!(list.entries[0].justification, "client-side output");
    }

    #[test]
    fn missing_justification_is_malformed() {
        let list = parse("vfs-io :: a.rs :: x ::\nvfs-io :: a.rs\n");
        assert_eq!(list.entries.len(), 0);
        assert_eq!(list.malformed.len(), 2);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let list = parse("# comment\n\nwire-cast :: b.rs :: as u32 :: bounded upstream\n");
        assert_eq!(list.entries.len(), 1);
        assert!(list.malformed.is_empty());
    }
}
