//! Library-source discovery for `analyze`.
//!
//! Both tasks scan the same surface: the root facade (`src/`), every
//! workspace crate (`crates/*/src`), and the vendored stand-ins
//! (`vendor/*/src`). `src/bin/` subtrees are exempt — binaries may abort
//! with a message — and `lib.rs` crate roots are recorded separately for
//! the mandatory-attribute check.

use std::fs;
use std::path::{Path, PathBuf};

use crate::lexer::SourceFile;

/// All the library sources of one workspace tree, lexed.
#[derive(Debug)]
pub struct Workspace {
    /// The workspace root the relative paths are anchored at.
    pub root: PathBuf,
    /// Every library `.rs` file, lexed, sorted by relative path.
    pub files: Vec<SourceFile>,
    /// Relative paths of `lib.rs` crate roots.
    pub crate_roots: Vec<String>,
    /// Files that could not be read (reported as errors by callers).
    pub unreadable: Vec<String>,
}

impl Workspace {
    /// Collects and lexes every library source under `root`.
    pub fn collect(root: &Path) -> Workspace {
        let mut paths: Vec<PathBuf> = Vec::new();
        let mut crate_root_paths: Vec<PathBuf> = Vec::new();
        let mut unreadable: Vec<String> = Vec::new();

        collect_src_dir(
            &root.join("src"),
            &mut paths,
            &mut crate_root_paths,
            &mut unreadable,
        );
        for family in ["crates", "vendor"] {
            let Ok(entries) = fs::read_dir(root.join(family)) else {
                continue;
            };
            let mut dirs: Vec<PathBuf> = entries
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect();
            dirs.sort();
            for dir in dirs {
                collect_src_dir(
                    &dir.join("src"),
                    &mut paths,
                    &mut crate_root_paths,
                    &mut unreadable,
                );
            }
        }

        paths.sort();
        let mut files = Vec::with_capacity(paths.len());
        for path in &paths {
            let rel = relative(root, path);
            match fs::read_to_string(path) {
                Ok(source) => files.push(SourceFile::parse(&rel, &source)),
                Err(e) => unreadable.push(format!("{rel}: unreadable: {e}")),
            }
        }
        let crate_roots = crate_root_paths.iter().map(|p| relative(root, p)).collect();
        Workspace {
            root: root.to_path_buf(),
            files,
            crate_roots,
            unreadable,
        }
    }

    /// The crate a relative path belongs to: `crates/foo/…` → `foo`,
    /// `vendor/bar/…` → `vendor/bar`, the root facade → `.`.
    pub fn crate_of(rel: &str) -> &str {
        let mut parts = rel.split('/');
        match parts.next() {
            Some("crates") => parts.next().unwrap_or(""),
            Some("vendor") => match parts.next() {
                Some(name) => &rel[..("vendor/".len() + name.len())],
                None => "vendor",
            },
            _ => ".",
        }
    }
}

/// Recursively collects `.rs` files under a `src/` dir, skipping `bin/`
/// subtrees, and records `lib.rs` crate roots.
fn collect_src_dir(
    src: &Path,
    files: &mut Vec<PathBuf>,
    crate_roots: &mut Vec<PathBuf>,
    unreadable: &mut Vec<String>,
) {
    if !src.is_dir() {
        return;
    }
    let lib = src.join("lib.rs");
    if lib.is_file() {
        crate_roots.push(lib);
    }
    let mut stack = vec![src.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = match fs::read_dir(&dir) {
            Ok(e) => e,
            Err(e) => {
                unreadable.push(format!("{}: unreadable directory: {e}", dir.display()));
                continue;
            }
        };
        let mut paths: Vec<PathBuf> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
        paths.sort();
        for path in paths {
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n == "bin") {
                    continue; // binaries are exempt from the scans
                }
                stack.push(path);
            } else if path.extension().is_some_and(|x| x == "rs") {
                files.push(path);
            }
        }
    }
}

/// `file` relative to `root`, `/`-separated regardless of platform.
pub fn relative(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_of_classifies_paths() {
        assert_eq!(Workspace::crate_of("crates/core/src/lib.rs"), "core");
        assert_eq!(Workspace::crate_of("vendor/rand/src/lib.rs"), "vendor/rand");
        assert_eq!(Workspace::crate_of("src/lib.rs"), ".");
    }
}
