//! Rule family 3 — wire safety in `crates/proto`, `crates/server` and
//! every file that encodes or decodes an on-disk format (`crates/storage`,
//! core's journal and meta, tree manifests) (`wire-cast` medium,
//! `wire-alloc` high).
//!
//! The panic-free decode guarantee is really two promises: no length read
//! from the network or the disk is trusted before a bound check, and no
//! integer is silently truncated on its way to or from the bytes. Two
//! rules police the code that keeps those promises:
//!
//! * **`wire-cast`** — a truncating `as` cast (`as u8`/`u16`/`u32`, or
//!   their signed twins) applied to a length-typed expression (one that
//!   mentions `len`, `size`, or `count`). `as` wraps silently; a length
//!   that wraps encodes a frame whose announced size lies. Use
//!   `u32::try_from(..)` (or the checked helpers in `proto::wire`) so
//!   overflow is impossible or fails closed.
//! * **`wire-alloc`** — an allocation (`Vec::with_capacity(n)`,
//!   `HashMap::with_capacity(n)`, `HashSet::with_capacity(n)` or
//!   `vec![_; n]`) whose size is not structurally constant and has no
//!   *visible* bound: neither a `.min(..)`/`MAX_*` clamp in the size
//!   expression nor a `limits`/`MAX_*` check or a `ByteReader::count_within`
//!   read earlier in the same function, in a statement that also names a
//!   variable of the size expression (an unrelated `MAX_*` above does not
//!   count). A size read from the bytes without such a check lets one
//!   corrupt length field allocate gigabytes. (`String::with_capacity` is exempt: decode
//!   paths build strings from already-validated byte slices, so a string
//!   capacity is a hint, not a wire-sized buffer.)

use crate::findings::{Finding, Severity};
use crate::lexer::{match_paren, SourceFile, TokKind};
use crate::workspace::Workspace;

use super::{enclosing_fn, expr_is_constant, is_lengthy_ident};

/// Wire code plus every file that encodes or decodes an on-disk format.
fn in_scope(rel: &str) -> bool {
    [
        "crates/proto/src",
        "crates/server/src",
        "crates/storage/src",
        "crates/core/src/journal.rs",
        "crates/core/src/persist.rs",
        "crates/tree/src/manifest.rs",
    ]
    .iter()
    .any(|scope| rel.starts_with(scope))
}

/// Types whose `with_capacity` reserves room for a caller-chosen count.
const SIZED_TYPES: [&str; 3] = ["Vec", "HashMap", "HashSet"];

/// Identifiers that make a bound visible: a `Limits` check, a `MAX_*`
/// constant, a `.min(..)` clamp, or a count the reader checked against
/// the bytes that remain.
fn is_bound_ident(text: &str) -> bool {
    matches!(text, "limits" | "Limits" | "min" | "count_within") || text.starts_with("MAX")
}

/// The variables and fields `toks` names: identifiers that are neither
/// keywords, primitive types nor called (a method or function name).
fn size_vars(toks: &[crate::lexer::Tok]) -> Vec<&str> {
    const NOT_VARS: [&str; 7] = ["as", "self", "Self", "usize", "u32", "u64", "let"];
    toks.iter()
        .zip(toks.iter().skip(1).map(Some).chain([None]))
        .filter(|(t, next)| {
            t.kind == TokKind::Ident
                && !NOT_VARS.contains(&t.text.as_str())
                && !next.is_some_and(|n| n.is_punct("(") || n.is_punct("::"))
        })
        .map(|(t, _)| t.text.as_str())
        .collect()
}

const NARROW_TARGETS: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

/// Tokens that terminate the backward walk over a cast's operand.
fn is_expr_boundary(t: &crate::lexer::Tok) -> bool {
    (t.kind == TokKind::Punct && matches!(t.text.as_str(), ";" | "," | "=" | "{" | "}" | "["))
        || (t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "return" | "if" | "match" | "let"))
}

/// Scans wire and on-disk format code for unsafe casts and unchecked
/// allocations.
pub fn scan(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for sf in ws.files.iter().filter(|f| in_scope(&f.rel)) {
        scan_casts(sf, &mut findings);
        scan_allocs(sf, &mut findings);
    }
    findings
}

fn scan_casts(sf: &SourceFile, findings: &mut Vec<Finding>) {
    let toks = &sf.toks;
    for i in 0..toks.len() {
        if sf.test_mask[i] || !toks[i].is_ident("as") {
            continue;
        }
        let Some(target) = toks.get(i + 1) else {
            continue;
        };
        if target.kind != TokKind::Ident || !NARROW_TARGETS.contains(&target.text.as_str()) {
            continue;
        }
        // Walk back over the casted expression looking for a length-typed
        // identifier.
        let mut lengthy = false;
        let mut k = i;
        let mut budget = 12usize;
        while k > 0 && budget > 0 {
            k -= 1;
            budget -= 1;
            let t = &toks[k];
            if is_expr_boundary(t) {
                break;
            }
            if t.kind == TokKind::Ident && is_lengthy_ident(&t.text) {
                lengthy = true;
                break;
            }
        }
        if lengthy {
            findings.push(Finding {
                rule: "wire-cast",
                severity: Severity::Medium,
                file: sf.rel.clone(),
                line: toks[i].line,
                message: format!(
                    "truncating `as {}` on a length-typed expression silently wraps; \
                     use a checked conversion: {}",
                    target.text,
                    sf.line_text(toks[i].line)
                ),
            });
        }
    }
}

fn scan_allocs(sf: &SourceFile, findings: &mut Vec<Finding>) {
    let toks = &sf.toks;
    for i in 0..toks.len() {
        if sf.test_mask[i] {
            continue;
        }
        // `Vec::with_capacity( expr )` (or `HashMap`, `HashSet`)
        let size_range = if toks[i].kind == TokKind::Ident
            && SIZED_TYPES.contains(&toks[i].text.as_str())
            && toks.get(i + 1).is_some_and(|t| t.is_punct("::"))
            && toks.get(i + 2).is_some_and(|t| t.is_ident("with_capacity"))
        {
            let open = i + 3;
            let close = match_paren(toks, open);
            if close == open {
                continue;
            }
            Some((open + 1)..(close - 1))
        }
        // `vec![ init ; expr ]`
        else if toks[i].is_ident("vec")
            && toks.get(i + 1).is_some_and(|t| t.is_punct("!"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct("["))
        {
            let mut depth = 0i64;
            let mut semi = None;
            let mut close = None;
            for (k, t) in toks.iter().enumerate().skip(i + 2) {
                if t.is_punct("[") || t.is_punct("(") || t.is_punct("{") {
                    depth += 1;
                } else if t.is_punct("]") || t.is_punct(")") || t.is_punct("}") {
                    depth -= 1;
                    if depth == 0 {
                        close = Some(k);
                        break;
                    }
                } else if t.is_punct(";") && depth == 1 {
                    semi = Some(k);
                }
            }
            match (semi, close) {
                (Some(s), Some(c)) if s + 1 < c => Some((s + 1)..c),
                _ => None,
            }
        } else {
            None
        };
        let Some(range) = size_range else {
            continue;
        };
        if expr_is_constant(sf, range.clone()) {
            continue;
        }
        // A visible clamp inside the size expression?
        let visibly_bounded = toks[range.clone()]
            .iter()
            .any(|t| t.kind == TokKind::Ident && is_bound_ident(&t.text));
        if visibly_bounded {
            continue;
        }
        // A bound check earlier in the same function, in a statement that
        // names one of the size expression's variables?
        let sized_by = size_vars(&toks[range.clone()]);
        let checked_in_fn = enclosing_fn(sf, i).is_some_and(|span| {
            toks[span.body_start..i]
                .split(|t| t.is_punct(";") || t.is_punct("{") || t.is_punct("}"))
                .any(|stmt| {
                    stmt.iter()
                        .any(|t| t.kind == TokKind::Ident && is_bound_ident(&t.text))
                        && size_vars(stmt).iter().any(|v| sized_by.contains(v))
                })
        });
        if checked_in_fn {
            continue;
        }
        findings.push(Finding {
            rule: "wire-alloc",
            severity: Severity::High,
            file: sf.rel.clone(),
            line: toks[i].line,
            message: format!(
                "allocation sized from a non-constant value with no visible `Limits`/`MAX_*`/\
                 `.min(..)` bound in this function: {}",
                sf.line_text(toks[i].line)
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::SourceFile;
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
    fn len_as_u32_is_flagged_in_wire_and_format_code_only() {
        let src = "fn f(s: &str) -> u32 { s.len() as u32 }\n";
        for rel in [
            "crates/proto/src/wire.rs",
            "crates/storage/src/recipe.rs",
            "crates/core/src/journal.rs",
            "crates/core/src/persist.rs",
            "crates/tree/src/manifest.rs",
        ] {
            let found = scan_src(rel, src);
            assert_eq!(found.len(), 1, "{rel}: {found:?}");
            assert_eq!(found[0].rule, "wire-cast");
        }
        assert!(scan_src("crates/core/src/lib.rs", src).is_empty());
        assert!(scan_src("crates/tree/src/backup.rs", src).is_empty());
    }

    #[test]
    fn widening_and_non_length_casts_pass() {
        let src = "fn f(len: u32, tag: u64) -> (usize, u8, u64) { (len as usize, tag as u8, len as u64) }\n";
        assert!(scan_src("crates/proto/src/frame.rs", src).is_empty());
    }

    #[test]
    fn checked_conversion_passes() {
        let src = "fn f(s: &str) -> u32 { u32::try_from(s.len()).unwrap_or(u32::MAX) }\n";
        assert!(scan_src("crates/proto/src/wire.rs", src).is_empty());
    }

    #[test]
    fn unchecked_alloc_is_flagged() {
        for (rel, src) in [
            (
                "crates/proto/src/frame.rs",
                "fn f(n: usize) -> Vec<u8> { let buf = vec![0u8; n]; buf }\n",
            ),
            (
                "crates/storage/src/container.rs",
                "fn f(n: usize) { let m = HashMap::with_capacity(n); }\n",
            ),
            (
                "crates/storage/src/container.rs",
                "fn f(n: usize) { let s = HashSet::with_capacity(n); }\n",
            ),
        ] {
            let f = scan_src(rel, src);
            assert_eq!(f.len(), 1, "{src}: {f:?}");
            assert_eq!(f[0].rule, "wire-alloc");
        }
    }

    #[test]
    fn min_clamp_limits_check_and_bounded_count_pass() {
        let clamped = "fn f(n: usize) -> Vec<u8> { Vec::with_capacity(n.min(1024)) }\n";
        assert!(scan_src("crates/proto/src/message.rs", clamped).is_empty());
        let checked = "fn f(len: u32, limits: &Limits) -> Result<Vec<u8>, ()> {\n\
            if len > limits.max_frame { return Err(()); }\n\
            Ok(vec![0u8; len as usize])\n}\n";
        assert!(scan_src("crates/proto/src/frame.rs", checked).is_empty());
        let counted = "fn f(r: &mut ByteReader) -> Result<(), E> {\n\
            let n = r.count_within(\"entries\", 28)?;\n\
            let m = HashMap::with_capacity(n);\n Ok(())\n}\n";
        assert!(scan_src("crates/storage/src/container.rs", counted).is_empty());
    }

    #[test]
    fn an_unrelated_bound_earlier_does_not_count() {
        let src = "fn f(n: usize, limits: &Limits) -> Vec<u8> {\n\
            let sessions = Table::new(QUEUE_DEPTH);\n\
            if limits.max_frame > 0 { return Vec::new(); }\n\
            Vec::with_capacity(n + 1)\n}\n";
        let found = scan_src("crates/server/src/server.rs", src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!((found[0].rule, found[0].line), ("wire-alloc", 4));
    }

    #[test]
    fn constant_capacity_and_string_capacity_pass() {
        let src = "const N: usize = 64;\nfn f(s: &str) -> (Vec<u8>, String) {\n\
            (Vec::with_capacity(N * 2), String::with_capacity(s.len() + 2))\n}\n";
        assert!(scan_src("crates/proto/src/json.rs", src).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests { fn t(n: usize) { let _ = vec![0u8; n]; } }\n";
        assert!(scan_src("crates/proto/src/frame.rs", src).is_empty());
    }
}
