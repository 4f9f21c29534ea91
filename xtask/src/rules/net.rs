//! Rule family 5 — network I/O discipline (`net-io`, severity high).
//!
//! The chaos matrix enumerates *wire operations through the socket module
//! of `crates/failpoint`*: every read and write the client or server
//! performs on a socket must flow through its [`Socket`] so a fault plan
//! can be injected at that exact operation. A raw `std::net` socket used
//! directly for I/O is a wire operation the matrix can never cut, delay, or
//! tear. This rule forbids, in library code under `src/`, `crates/server/`,
//! and `crates/proto/` (but not `crates/failpoint/src/net.rs`, which owns
//! the raw socket):
//!
//! * the `TcpStream` / `TcpListener` / `UdpSocket` type names, however
//!   imported or referenced.
//!
//! Type-level plumbing that never does I/O (the listener the acceptor owns,
//! the accepted socket handed to `Socket::new` before a byte moves) is waived in
//! `xtask/analyze-allow.txt` with a one-line justification. `SocketAddr`
//! and the other non-I/O `std::net` types are deliberately not flagged.
//!
//! [`Socket`]: ../../../crates/failpoint/src/net.rs

use crate::findings::{Finding, Severity};
use crate::lexer::SourceFile;
use crate::workspace::Workspace;

const SOCKET_TYPES: [&str; 3] = ["TcpStream", "TcpListener", "UdpSocket"];

/// Whether `rel` is in scope for this rule.
fn in_scope(rel: &str) -> bool {
    rel.starts_with("src/") || rel.starts_with("crates/server/") || rel.starts_with("crates/proto/")
}

/// Scans the workspace for raw socket types outside the failpoint socket
/// module (`crates/failpoint/src/net.rs`).
pub fn scan(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for sf in ws.files.iter().filter(|f| in_scope(&f.rel)) {
        scan_file(sf, &mut findings);
    }
    findings
}

fn scan_file(sf: &SourceFile, findings: &mut Vec<Finding>) {
    let toks = &sf.toks;
    let mut flagged_lines: Vec<u32> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if sf.test_mask[i] {
            continue;
        }
        let Some(what) = SOCKET_TYPES.iter().find(|name| t.is_ident(name)) else {
            continue;
        };
        if flagged_lines.contains(&t.line) {
            continue; // one finding per line: `use std::net::{TcpListener, TcpStream}` is one sin
        }
        flagged_lines.push(t.line);
        findings.push(Finding {
            rule: "net-io",
            severity: Severity::High,
            file: sf.rel.clone(),
            line: t.line,
            message: format!(
                "raw `{what}` bypasses `crates/failpoint/src/net.rs` (chaos-matrix blind spot): {}",
                sf.line_text(t.line)
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
    fn flags_each_raw_socket_type() {
        let src = "use std::net::TcpStream;\nfn f() { let _ = TcpListener::bind(\"x\"); }\nfn g(_s: UdpSocket) {}\n";
        let f = scan_src("crates/server/src/lib.rs", src);
        assert_eq!(f.len(), 3);
        assert!(f.iter().all(|x| x.rule == "net-io"));
    }

    #[test]
    fn one_finding_per_line() {
        let f = scan_src(
            "crates/server/src/lib.rs",
            "use std::net::{TcpListener, TcpStream};\n",
        );
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn socket_addr_and_out_of_scope_and_tests_are_exempt() {
        let addr_only = "use std::net::{SocketAddr, ToSocketAddrs};\n";
        assert!(scan_src("crates/server/src/lib.rs", addr_only).is_empty());
        let shim = "use std::net::TcpStream;\n";
        assert!(scan_src("crates/failpoint/src/net.rs", shim).is_empty());
        assert!(scan_src("crates/storage/src/lib.rs", shim).is_empty());
        let test_side =
            "#[cfg(test)]\nmod tests { use std::net::TcpStream; fn t() { let _ = TcpStream::connect(\"x\"); } }\n";
        assert!(scan_src("crates/server/src/lib.rs", test_side).is_empty());
        let comment = "/// Wraps a `TcpStream` in the shim.\nfn doc() {}\n";
        assert!(scan_src("crates/server/src/lib.rs", comment).is_empty());
    }
}
