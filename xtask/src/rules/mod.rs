//! The rule families of `cargo xtask analyze`.
//!
//! Every rule consumes the lexed [`crate::workspace::Workspace`] and
//! returns raw [`crate::findings::Finding`]s; the orchestrator in
//! [`crate::analyze`] applies the allowlist and assembles the report.
//!
//! | rule id          | family        | severity | scope                         |
//! |------------------|---------------|----------|-------------------------------|
//! | `vfs-io`         | I/O discipline| high     | `src/`, `crates/*` except `crates/failpoint` |
//! | `lock-cycle`     | lock discipline| high    | `src/`, `crates/*`            |
//! | `lock-poison`    | lock discipline| medium  | `src/`, `crates/*`            |
//! | `wire-cast`      | wire safety   | medium   | `crates/proto`, `crates/server`, `crates/storage`, `crates/core/src/{journal,persist}.rs`, `crates/tree/src/manifest.rs` |
//! | `wire-alloc`     | wire safety   | high     | same as `wire-cast`; `Vec`/`HashMap`/`HashSet::with_capacity`, `vec![_; n]` |
//! | `net-io`         | I/O discipline| high     | `src/`, `crates/server`, `crates/proto` (raw sockets live in `crates/failpoint/src/net.rs`) |
//! | `panic-call`     | panic audit   | medium   | all library code: `.unwrap()`, `.expect(`, `panic!` |
//! | `panic-marker`   | panic audit   | medium/low | all library code: `todo!`, `unimplemented!`, `dbg!` |
//! | `crate-root-attr`| panic audit   | medium   | every crate root: `#![forbid(unsafe_code)]`, `#![warn(missing_docs)]` |

pub mod locks;
pub mod net;
pub mod panic;
pub mod vfs;
pub mod wire;

use crate::lexer::{SourceFile, TokKind};

/// True when the identifier at `i` is name-like length-typed: it mentions
/// `len`, `size`, or `count` (but is not the primitive `usize`/`isize`).
pub(crate) fn is_lengthy_ident(text: &str) -> bool {
    if text == "usize" || text == "isize" {
        return false;
    }
    let lower = text.to_ascii_lowercase();
    lower.contains("len") || lower.contains("size") || lower.contains("count")
}

/// The innermost function span containing token `i`, if any.
pub(crate) fn enclosing_fn(sf: &SourceFile, i: usize) -> Option<&crate::lexer::FnSpan> {
    sf.fns
        .iter()
        .filter(|f| f.body_start <= i && i < f.body_end)
        .min_by_key(|f| f.body_end - f.body_start)
}

/// True when every token of the size expression is structurally constant:
/// numeric literals, SCREAMING_CASE constants, and arithmetic punctuation.
pub(crate) fn expr_is_constant(sf: &SourceFile, range: std::ops::Range<usize>) -> bool {
    sf.toks[range].iter().all(|t| match t.kind {
        TokKind::Num => true,
        TokKind::Ident => t
            .text
            .chars()
            .all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit()),
        TokKind::Punct => matches!(
            t.text.as_str(),
            "+" | "-" | "*" | "/" | "(" | ")" | "::" | "<" | ">" | "."
        ),
        _ => false,
    })
}
