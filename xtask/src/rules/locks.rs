//! Rule family 2 — lock discipline (`lock-cycle` high, `lock-poison`
//! medium).
//!
//! The daemon's single-writer/concurrent-reader model (PR 5) and the staged
//! pipelines (PRs 3–4) depend on two conventions:
//!
//! 1. **Well-ordered acquisition.** Whenever two locks are held together,
//!    every function acquires them in the same order. The rule collects
//!    every `Mutex`/`RwLock`/`Condvar` acquisition site per crate, builds
//!    the nested-acquisition graph (lock A → lock B when a function
//!    acquires B while A is, by syntactic order, still held) and fails on
//!    any cycle — a potential deadlock order.
//! 2. **No poison-punting.** `.lock().unwrap()` turns one panicking holder
//!    into a process-wide cascade. Library code recovers poisoning
//!    explicitly (`unwrap_or_else(PoisonError::into_inner)`, as the daemon's
//!    accept queue and the fault-injecting `Vfs` do).
//!
//! The analysis is syntactic: a lock *name* is any binding whose declared
//! type mentions `Mutex<`/`RwLock<`/`Condvar`, or a `let` bound to
//! `Mutex::new`/`RwLock::new`; an *acquisition* is `<name>.lock()`,
//! `<name>.read()`, `<name>.write()`, or `<name>.wait(…)` on a known name.
//! Acquisitions routed through helper functions are attributed to the
//! helper's body, not its callers — order your helpers accordingly.

use std::collections::{BTreeMap, BTreeSet};

use crate::findings::{Finding, Severity};
use crate::lexer::{SourceFile, TokKind};
use crate::workspace::Workspace;

fn in_scope(rel: &str) -> bool {
    rel.starts_with("src/") || rel.starts_with("crates/")
}

/// An acquisition edge `from → to` with the site that witnessed it.
type Edges = BTreeMap<(String, String), (String, u32)>;

/// Scans the workspace for lock-order cycles and poison-punting.
pub fn scan(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    // crate name -> set of lock binding names.
    let mut locks_per_crate: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for sf in ws.files.iter().filter(|f| in_scope(&f.rel)) {
        let krate = Workspace::crate_of(&sf.rel).to_string();
        let names = locks_per_crate.entry(krate).or_default();
        collect_lock_names(sf, names);
    }

    let mut edges_per_crate: BTreeMap<String, Edges> = BTreeMap::new();
    for sf in ws.files.iter().filter(|f| in_scope(&f.rel)) {
        let krate = Workspace::crate_of(&sf.rel).to_string();
        let Some(names) = locks_per_crate.get(&krate) else {
            continue;
        };
        let edges = edges_per_crate.entry(krate).or_default();
        scan_functions(sf, names, edges, &mut findings);
    }

    for (krate, edges) in &edges_per_crate {
        report_cycles(krate, edges, &mut findings);
    }
    findings
}

/// Finds lock binding names: `name: …Mutex<…`, `name: Condvar`, and
/// `let [mut] name = …Mutex::new(…)`.
fn collect_lock_names(sf: &SourceFile, names: &mut BTreeSet<String>) {
    let toks = &sf.toks;
    for i in 0..toks.len() {
        if sf.test_mask[i] || toks[i].kind != TokKind::Ident {
            continue;
        }
        let is_lock_path = matches!(toks[i].text.as_str(), "Mutex" | "RwLock")
            && (toks.get(i + 1).is_some_and(|t| t.is_punct("<"))
                || (toks.get(i + 1).is_some_and(|t| t.is_punct("::"))
                    && toks.get(i + 2).is_some_and(|t| t.is_ident("new"))));
        let is_condvar = toks[i].text == "Condvar";
        if !is_lock_path && !is_condvar {
            continue;
        }
        if let Some(name) = binding_name_before(toks, i) {
            names.insert(name);
        }
    }
}

/// Walks back from a lock-type token over type/path syntax to the binding:
/// either `name :` (field or typed let) or `let [mut] name = …`.
fn binding_name_before(toks: &[crate::lexer::Tok], mut i: usize) -> Option<String> {
    let mut budget = 12usize;
    while i > 0 && budget > 0 {
        i -= 1;
        budget -= 1;
        let t = &toks[i];
        match t.kind {
            // Type-position syntax we may walk across.
            TokKind::Ident if t.text != "let" => continue,
            TokKind::Lifetime => continue,
            TokKind::Punct if matches!(t.text.as_str(), "::" | "<" | "&" | "mut" | "(") => continue,
            TokKind::Punct if t.text == ":" => {
                // `name : …Lock…`
                let prev = toks.get(i.checked_sub(1)?)?;
                if prev.kind == TokKind::Ident {
                    return Some(prev.text.clone());
                }
                return None;
            }
            TokKind::Punct if t.text == "=" => {
                // `let [mut] name = …Lock::new`
                let prev = toks.get(i.checked_sub(1)?)?;
                if prev.kind == TokKind::Ident && prev.text != "mut" {
                    return Some(prev.text.clone());
                }
                return None;
            }
            _ => return None,
        }
    }
    None
}

const ACQUIRE_METHODS: [&str; 4] = ["lock", "read", "write", "wait"];

/// Scans each function body for acquisitions: records nesting edges and
/// reports poison-punting.
fn scan_functions(
    sf: &SourceFile,
    names: &BTreeSet<String>,
    edges: &mut Edges,
    findings: &mut Vec<Finding>,
) {
    let toks = &sf.toks;
    for span in &sf.fns {
        let mut held: Vec<String> = Vec::new();
        let mut i = span.body_start;
        while i < span.body_end.min(toks.len()) {
            let t = &toks[i];
            let is_acquire = t.kind == TokKind::Ident
                && ACQUIRE_METHODS.contains(&t.text.as_str())
                && i >= 2
                && toks[i - 1].is_punct(".")
                && toks[i - 2].kind == TokKind::Ident
                && names.contains(&toks[i - 2].text)
                && toks.get(i + 1).is_some_and(|p| p.is_punct("("));
            if !is_acquire {
                i += 1;
                continue;
            }
            let lock_name = toks[i - 2].text.clone();
            for prior in &held {
                if *prior != lock_name {
                    edges
                        .entry((prior.clone(), lock_name.clone()))
                        .or_insert_with(|| (sf.rel.clone(), t.line));
                }
            }
            if !held.contains(&lock_name) {
                held.push(lock_name);
            }
            // Poison-punting: `<acquire>(…).unwrap()` / `.expect(…)`.
            let after_args = crate::lexer::match_paren(toks, i + 1);
            if toks.get(after_args).is_some_and(|t| t.is_punct("."))
                && toks
                    .get(after_args + 1)
                    .is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect"))
            {
                findings.push(Finding {
                    rule: "lock-poison",
                    severity: Severity::Medium,
                    file: sf.rel.clone(),
                    line: t.line,
                    message: format!(
                        "lock poisoning punted to a panic; recover it explicitly \
                         (`unwrap_or_else(|e| e.into_inner())`): {}",
                        sf.line_text(t.line)
                    ),
                });
            }
            i += 1;
        }
    }
}

/// Reports one `lock-cycle` finding per strongly-connected set of two or
/// more locks in a crate's acquisition graph.
fn report_cycles(krate: &str, edges: &Edges, findings: &mut Vec<Finding>) {
    // Transitive closure over the (small) per-crate graph.
    let mut reach: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        reach.entry(from).or_default().insert(to);
        reach.entry(to).or_default();
    }
    loop {
        let mut grew = false;
        let nodes: Vec<&str> = reach.keys().copied().collect();
        for a in &nodes {
            let direct: Vec<&str> = reach[*a].iter().copied().collect();
            for b in direct {
                let via: Vec<&str> = reach
                    .get(b)
                    .map(|s| s.iter().copied().collect())
                    .unwrap_or_default();
                for c in via {
                    if reach.get_mut(*a).is_some_and(|s| s.insert(c)) {
                        grew = true;
                    }
                }
            }
        }
        if !grew {
            break;
        }
    }
    // Strongly-connected pairs → components.
    let mut reported: BTreeSet<BTreeSet<String>> = BTreeSet::new();
    let nodes: Vec<&str> = reach.keys().copied().collect();
    for a in &nodes {
        let mut component: BTreeSet<String> = BTreeSet::new();
        for b in &nodes {
            if a != b && reach[*a].contains(*b) && reach[*b].contains(*a) {
                component.insert((*a).to_string());
                component.insert((*b).to_string());
            }
        }
        if component.len() >= 2 && reported.insert(component.clone()) {
            // Anchor the finding at the first edge inside the component.
            let site = edges
                .iter()
                .find(|((f, t), _)| component.contains(f) && component.contains(t))
                .map(|(_, site)| site.clone());
            let (file, line) = site.unwrap_or_else(|| (format!("crates/{krate}"), 0));
            let names: Vec<String> = component.iter().cloned().collect();
            findings.push(Finding {
                rule: "lock-cycle",
                severity: Severity::High,
                file,
                line,
                message: format!(
                    "lock-order cycle in crate `{krate}` among {{{}}}: functions acquire \
                     these locks in conflicting orders (potential deadlock)",
                    names.join(", ")
                ),
            });
        }
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

    const CYCLE: &str = "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
        impl S {\n\
        fn one(&self) { let _g = self.a.lock(); let _h = self.b.lock(); }\n\
        fn two(&self) { let _g = self.b.lock(); let _h = self.a.lock(); }\n\
        }\n";

    #[test]
    fn opposing_orders_are_a_cycle() {
        let f = scan_src("crates/x/src/lib.rs", CYCLE);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "lock-cycle");
        assert!(f[0].message.contains("a, b"));
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
            impl S {\n\
            fn one(&self) { let _g = self.a.lock(); let _h = self.b.lock(); }\n\
            fn two(&self) { let _g = self.a.lock(); let _h = self.b.lock(); }\n\
            }\n";
        assert!(scan_src("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn condvar_wait_participates_in_ordering() {
        let src = "struct Q { state: Mutex<u32>, not_full: Condvar }\n\
            impl Q {\n\
            fn push(&self) { let s = self.state.lock(); let _ = self.not_full.wait(s); }\n\
            }\n";
        assert!(scan_src("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn poison_punting_is_flagged_outside_tests_only() {
        let src = "struct S { m: Mutex<u32> }\n\
            impl S { fn f(&self) { let _g = self.m.lock().unwrap(); } }\n\
            #[cfg(test)]\nmod tests { fn t(s: &super::S) { let _g = s.m.lock().unwrap(); } }\n";
        let f = scan_src("crates/x/src/lib.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "lock-poison");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn recovering_poison_is_clean() {
        let src = "struct S { m: Mutex<u32> }\n\
            impl S { fn f(&self) { let _g = self.m.lock().unwrap_or_else(|e| e.into_inner()); } }\n";
        assert!(scan_src("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn let_bound_mutex_is_tracked() {
        let src = "fn f() { let shared = Mutex::new(0u32); let _g = shared.lock().unwrap(); }\n";
        let f = scan_src("crates/x/src/lib.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "lock-poison");
    }

    #[test]
    fn io_read_write_on_non_locks_is_ignored() {
        let src = "fn f(mut s: std::net::TcpStream, buf: &mut [u8]) { let _ = s.read(buf).unwrap_or(0); }\n";
        assert!(scan_src("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn cross_crate_names_do_not_mix() {
        // Crate y has a lock named `a`; crate z uses an unrelated `a.read()`.
        let ws = Workspace {
            root: PathBuf::new(),
            files: vec![
                SourceFile::parse("crates/y/src/lib.rs", "struct S { a: RwLock<u32> }\n"),
                SourceFile::parse(
                    "crates/z/src/lib.rs",
                    "fn f(a: &mut dyn std::io::Read) { let mut b = [0u8; 4]; let _ = a.read(&mut b).unwrap_or(0); }\n",
                ),
            ],
            crate_roots: vec![],
            unreadable: vec![],
        };
        assert!(scan(&ws).is_empty());
    }
}
