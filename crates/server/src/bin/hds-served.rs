//! `hds-served` — serve a HiDeStore repository over TCP.
//!
//! ```text
//! hds-served <repo-dir> [--bind ADDR] [--port N] [--workers N] [--quiet]
//!            [--timeout SECS]
//!            [--tenants] [--max-tenants N] [--no-auto-tenants]
//!            [--quota-bytes N] [--quota-versions N]
//! ```
//!
//! Prints `hds-served listening on <addr>` once the listener is bound (the
//! line scripts parse to learn an ephemeral port), then runs until a client
//! sends the protocol's `Shutdown` request. Exits 0 after a graceful drain,
//! 1 on a startup/runtime failure, 2 on a usage error.

use std::process::ExitCode;

use hidestore_server::{serve_until_shutdown, ServerConfig};

fn usage() -> ExitCode {
    eprintln!(
        "usage: hds-served <repo-dir> [--bind ADDR] [--port N] [--workers N] [--quiet]\n\
         \x20                        [--timeout SECS]\n\
         \x20                        [--tenants] [--max-tenants N] [--no-auto-tenants]\n\
         \x20                        [--quota-bytes N] [--quota-versions N]\n\
         \n\
         Serves the repository at <repo-dir> over the HiDeStore wire protocol.\n\
         --bind ADDR          address to listen on (default 127.0.0.1)\n\
         --port N             TCP port (default 0 = ephemeral)\n\
         --workers N          concurrent connections served (default 4)\n\
         --quiet              suppress per-request log lines\n\
         --timeout SECS       per-I/O socket deadline, 0 disables (default 30)\n\
         --tenants            serve <repo-dir> as a multi-tenant root\n\
         \x20                    (<repo-dir>/tenants/<id>/, one repository per\n\
         \x20                    tenant); without it the directory is one\n\
         \x20                    repository served as the `default` tenant\n\
         --max-tenants N      live tenant repository handles kept open\n\
         \x20                    (default 8; idle handles evicted LRU-first)\n\
         --no-auto-tenants    do not create tenant repositories on first\n\
         \x20                    backup; unknown tenants are refused\n\
         --quota-bytes N      default per-tenant logical-byte quota, 0 = none\n\
         --quota-versions N   default per-tenant retained-version quota,\n\
         \x20                    0 = none"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (repo, config) = match ServerConfig::from_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("hds-served: {msg}");
            return usage();
        }
    };
    match serve_until_shutdown(&repo, config) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hds-served: {e}");
            ExitCode::FAILURE
        }
    }
}
