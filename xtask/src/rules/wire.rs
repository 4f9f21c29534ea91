//! Rule family 3 — wire safety in `crates/proto` and `crates/server`
//! (`wire-cast` medium, `wire-alloc` high).
//!
//! The daemon's panic-free decode guarantee (PR 5) is really two promises:
//! no length from the network is trusted before a `Limits`-style bound
//! check, and no integer is silently truncated on its way to or from the
//! wire. Two rules police the code that keeps those promises:
//!
//! * **`wire-cast`** — a truncating `as` cast (`as u8`/`u16`/`u32`, or
//!   their signed twins) applied to a length-typed expression (one that
//!   mentions `len`, `size`, or `count`). `as` wraps silently; a length
//!   that wraps encodes a frame whose announced size lies. Use
//!   `u32::try_from(..)` (or the checked helpers in `proto::wire`) so
//!   overflow is impossible or fails closed.
//! * **`wire-alloc`** — a byte-buffer allocation (`Vec::with_capacity(n)`
//!   or `vec![_; n]`) whose size is not structurally constant and has no
//!   *visible* bound: neither a `.min(..)`/`MAX_*` clamp in the size
//!   expression nor a `limits`/`MAX_*` check earlier in the same function.
//!   A wire-derived size without such a check lets one corrupt length
//!   field allocate gigabytes. (`String::with_capacity` is exempt: decode
//!   paths build strings from already-validated byte slices, so a string
//!   capacity is a hint, not a wire-sized buffer.)

use crate::findings::{Finding, Severity};
use crate::lexer::{match_paren, SourceFile, TokKind};
use crate::workspace::Workspace;

use super::{enclosing_fn, expr_is_constant, is_lengthy_ident};

fn in_scope(rel: &str) -> bool {
    rel.starts_with("crates/proto/src") || rel.starts_with("crates/server/src")
}

const NARROW_TARGETS: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

/// Tokens that terminate the backward walk over a cast's operand.
fn is_expr_boundary(t: &crate::lexer::Tok) -> bool {
    (t.kind == TokKind::Punct && matches!(t.text.as_str(), ";" | "," | "=" | "{" | "}" | "["))
        || (t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "return" | "if" | "match" | "let"))
}

/// Scans proto/server library code for unsafe casts and unchecked
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
        // `Vec::with_capacity( expr )`
        let size_range = if toks[i].is_ident("Vec")
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
        let visibly_bounded = toks[range.clone()].iter().any(|t| {
            t.kind == TokKind::Ident
                && (t.text == "min"
                    || t.text == "limits"
                    || t.text == "Limits"
                    || t.text.starts_with("MAX"))
        });
        if visibly_bounded {
            continue;
        }
        // A bound check earlier in the same function?
        let checked_in_fn = enclosing_fn(sf, i).is_some_and(|span| {
            toks[span.body_start..i].iter().any(|t| {
                t.kind == TokKind::Ident
                    && (t.text == "limits"
                        || t.text == "Limits"
                        || t.text.starts_with("MAX")
                        || t.text == "min")
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
    fn len_as_u32_is_flagged_in_proto_only() {
        let src = "fn f(s: &str) -> u32 { s.len() as u32 }\n";
        let in_proto = scan_src("crates/proto/src/wire.rs", src);
        assert_eq!(in_proto.len(), 1, "{in_proto:?}");
        assert_eq!(in_proto[0].rule, "wire-cast");
        assert!(scan_src("crates/core/src/lib.rs", src).is_empty());
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
        let src = "fn f(n: usize) -> Vec<u8> { let buf = vec![0u8; n]; buf }\n";
        let f = scan_src("crates/proto/src/frame.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "wire-alloc");
    }

    #[test]
    fn min_clamp_and_limits_check_pass() {
        let clamped = "fn f(n: usize) -> Vec<u8> { Vec::with_capacity(n.min(1024)) }\n";
        assert!(scan_src("crates/proto/src/message.rs", clamped).is_empty());
        let checked = "fn f(len: u32, limits: &Limits) -> Result<Vec<u8>, ()> {\n\
            if len > limits.max_frame { return Err(()); }\n\
            Ok(vec![0u8; len as usize])\n}\n";
        assert!(scan_src("crates/proto/src/frame.rs", checked).is_empty());
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
