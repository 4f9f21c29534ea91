//! Workspace automation tasks, invoked as `cargo xtask <task>`.
//!
//! **`cargo xtask analyze`** ([`analyze`]) is the invariant-enforcing
//! static-analysis wall: Vfs I/O discipline, lock discipline
//! (nested-acquisition cycles, poison-punting), wire safety in
//! `crates/proto`/`crates/server`, and the panic audit (`.unwrap()`,
//! `.expect(`, `panic!`, `todo!`/`unimplemented!`/`dbg!`, mandatory
//! crate-root attributes). Its rules share one small hand-rolled Rust lexer
//! ([`lexer`]) with comment/string/raw-string handling and
//! `#[cfg(test)]`-scope tracking, so they all agree on what is test code.
//! Findings carry a severity taxonomy, a deterministic `--json` mode, and
//! the `xtask/analyze-allow.txt` allowlist with stale-entry detection.
//!
//! The task exits 0 when clean, 1 with findings, 2 on usage/I/O errors.
//! See `DESIGN.md` §11 for the rule taxonomy and how to add a rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allow;
pub mod analyze;
pub mod findings;
pub mod lexer;
pub mod rules;
pub mod workspace;

use std::path::{Path, PathBuf};

/// The `cargo xtask --help` text.
pub const USAGE: &str = "\
usage: cargo xtask <task>

tasks:
  analyze [--json] [--root <dir>]
                        static-analysis wall: Vfs I/O discipline, lock
                        discipline, wire safety, panic-free library code
                        and crate-root attributes
                        (allowlist: xtask/analyze-allow.txt)
  help                  print this text

exit codes: 0 clean, 1 findings, 2 usage or I/O error
";

/// The workspace root (`xtask`'s parent directory, compiled in).
pub fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().map(Path::to_path_buf).unwrap_or(manifest)
}

/// Dispatches a task invocation. Returns the process exit code.
pub fn run(args: &[String]) -> u8 {
    match args.first().map(String::as_str) {
        Some("analyze") => {
            let mut json = false;
            let mut root: Option<PathBuf> = None;
            let mut rest = args[1..].iter();
            while let Some(arg) = rest.next() {
                match arg.as_str() {
                    "--json" => json = true,
                    "--root" => match rest.next() {
                        Some(dir) => root = Some(PathBuf::from(dir)),
                        None => {
                            eprintln!("xtask: --root requires a directory");
                            return 2;
                        }
                    },
                    other => {
                        eprintln!("xtask: unknown flag `{other}` for analyze");
                        return 2;
                    }
                }
            }
            analyze::run(&root.unwrap_or_else(workspace_root), json)
        }
        Some("help") | Some("--help") | Some("-h") => {
            print!("{USAGE}");
            0
        }
        Some(other) => {
            eprintln!("xtask: unknown task `{other}` (available: analyze, help)");
            2
        }
        None => {
            eprint!("{USAGE}");
            2
        }
    }
}
