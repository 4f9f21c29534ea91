//! Minimal JSON emission for the machine-readable response types.
//!
//! The workspace is offline (no serde); this module hand-writes exactly the
//! JSON the CLI's `--json` flags and remote tooling need. The same types
//! travel on the wire, so the CLI and the protocol can never drift apart:
//! `hidestore list --json` against a local repository and against a remote
//! daemon serialize the identical [`ListResponse`].
//!
//! Output is deterministic: object keys appear in a fixed order, floats are
//! formatted with four decimal places, and no whitespace is emitted. A test
//! in the facade crate pins the schema byte-for-byte.

use std::fmt::Write as _;

use crate::message::{ListResponse, StatsResponse, TenantListResponse, TenantStatsResponse};

/// Escapes `s` into `out` as a JSON string literal (with quotes).
fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Formats a float with the fixed precision used across all JSON output.
fn f64_into(out: &mut String, v: f64) {
    let _ = write!(out, "{v:.4}");
}

impl ListResponse {
    /// Serializes as one line of JSON with a fixed key order:
    /// `{"versions":[{"version":..,"bytes":..,"chunks":..},..],
    /// "archival_containers":..,"active_containers":..,"hot_chunks":..}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.versions.len() * 48);
        out.push_str("{\"versions\":[");
        for (i, v) in self.versions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"version\":{},\"bytes\":{},\"chunks\":{}}}",
                v.version, v.bytes, v.chunks
            );
        }
        let _ = write!(
            out,
            "],\"archival_containers\":{},\"active_containers\":{},\"hot_chunks\":{}}}",
            self.archival_containers, self.active_containers, self.hot_chunks
        );
        out
    }
}

impl StatsResponse {
    /// Serializes as one line of JSON with a fixed key order:
    /// `{"versions":[{"version":..,"bytes":..,"chunks":..,"cfl":..,
    /// "mean_kib_per_container":..},..],"lost_versions":[..],
    /// "pool_containers":..,"pool_chunks":..,"pool_live_bytes":..}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.versions.len() * 80);
        out.push_str("{\"versions\":[");
        for (i, v) in self.versions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"version\":{},\"bytes\":{},\"chunks\":{},\"cfl\":",
                v.version, v.bytes, v.chunks
            );
            f64_into(&mut out, v.cfl);
            out.push_str(",\"mean_kib_per_container\":");
            f64_into(&mut out, v.mean_kib_per_container);
            out.push('}');
        }
        out.push_str("],\"lost_versions\":[");
        for (i, v) in self.lost.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{v}");
        }
        let _ = write!(
            out,
            "],\"pool_containers\":{},\"pool_chunks\":{},\"pool_live_bytes\":{}}}",
            self.pool_containers, self.pool_chunks, self.pool_live_bytes
        );
        out
    }
}

impl TenantListResponse {
    /// Serializes as one line of JSON with a fixed key order:
    /// `{"tenants":[{"tenant":..,"versions":..,"logical_bytes":..,
    /// "live":..},..]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(16 + self.tenants.len() * 64);
        out.push_str("{\"tenants\":[");
        for (i, t) in self.tenants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"tenant\":");
            escape_into(&mut out, &t.tenant);
            let _ = write!(
                out,
                ",\"versions\":{},\"logical_bytes\":{},\"live\":{}}}",
                t.versions, t.logical_bytes, t.live
            );
        }
        out.push_str("]}");
        out
    }
}

impl TenantStatsResponse {
    /// Serializes as one line of JSON with a fixed key order:
    /// `{"tenants":[{"tenant":..,"requests_ok":..,"requests_failed":..,
    /// "bytes_in":..,"bytes_out":..,"rolled_back":..,
    /// "quota_refused":..},..]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(16 + self.tenants.len() * 128);
        out.push_str("{\"tenants\":[");
        for (i, t) in self.tenants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"tenant\":");
            escape_into(&mut out, &t.tenant);
            let _ = write!(
                out,
                ",\"requests_ok\":{},\"requests_failed\":{},\"bytes_in\":{},\
                 \"bytes_out\":{},\"rolled_back\":{},\"quota_refused\":{}}}",
                t.requests_ok,
                t.requests_failed,
                t.bytes_in,
                t.bytes_out,
                t.rolled_back,
                t.quota_refused
            );
        }
        out.push_str("]}");
        out
    }
}

/// Serializes an arbitrary string as a standalone JSON string literal —
/// used by callers composing ad-hoc JSON around the response types.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{VersionEntry, VersionStatsEntry};

    #[test]
    fn list_json_shape() {
        let list = ListResponse {
            versions: vec![
                VersionEntry {
                    version: 1,
                    bytes: 100,
                    chunks: 3,
                },
                VersionEntry {
                    version: 2,
                    bytes: 200,
                    chunks: 5,
                },
            ],
            archival_containers: 4,
            active_containers: 1,
            hot_chunks: 9,
        };
        assert_eq!(
            list.to_json(),
            "{\"versions\":[{\"version\":1,\"bytes\":100,\"chunks\":3},\
             {\"version\":2,\"bytes\":200,\"chunks\":5}],\
             \"archival_containers\":4,\"active_containers\":1,\"hot_chunks\":9}"
        );
    }

    #[test]
    fn stats_json_shape() {
        let stats = StatsResponse {
            versions: vec![VersionStatsEntry {
                version: 1,
                bytes: 100,
                chunks: 3,
                cfl: 0.5,
                mean_kib_per_container: 12.25,
            }],
            lost: vec![2, 3],
            pool_containers: 2,
            pool_chunks: 7,
            pool_live_bytes: 4096,
        };
        assert_eq!(
            stats.to_json(),
            "{\"versions\":[{\"version\":1,\"bytes\":100,\"chunks\":3,\
             \"cfl\":0.5000,\"mean_kib_per_container\":12.2500}],\
             \"lost_versions\":[2,3],\"pool_containers\":2,\"pool_chunks\":7,\"pool_live_bytes\":4096}"
        );
    }

    #[test]
    fn tenant_json_shapes() {
        use crate::message::{TenantListEntry, TenantStatsEntry};
        let list = TenantListResponse {
            tenants: vec![
                TenantListEntry {
                    tenant: "alice".into(),
                    versions: 3,
                    logical_bytes: 4096,
                    live: true,
                },
                TenantListEntry {
                    tenant: "bob".into(),
                    versions: 0,
                    logical_bytes: 0,
                    live: false,
                },
            ],
        };
        assert_eq!(
            list.to_json(),
            "{\"tenants\":[{\"tenant\":\"alice\",\"versions\":3,\
             \"logical_bytes\":4096,\"live\":true},\
             {\"tenant\":\"bob\",\"versions\":0,\"logical_bytes\":0,\"live\":false}]}"
        );
        let stats = TenantStatsResponse {
            tenants: vec![TenantStatsEntry {
                tenant: "alice".into(),
                requests_ok: 5,
                requests_failed: 1,
                bytes_in: 100,
                bytes_out: 200,
                rolled_back: 0,
                quota_refused: 2,
            }],
        };
        assert_eq!(
            stats.to_json(),
            "{\"tenants\":[{\"tenant\":\"alice\",\"requests_ok\":5,\
             \"requests_failed\":1,\"bytes_in\":100,\"bytes_out\":200,\
             \"rolled_back\":0,\"quota_refused\":2}]}"
        );
        assert_eq!(TenantListResponse::default().to_json(), "{\"tenants\":[]}");
    }

    #[test]
    fn string_escaping() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
