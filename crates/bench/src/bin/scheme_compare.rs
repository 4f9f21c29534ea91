//! Cross-scheme comparison — where each design pays its deduplication cost.
//!
//! HiDeStore and DDFS deduplicate inline on the backup path; the hybrid
//! mode dedups inline only against the previous version and defers the
//! rest to an out-of-line pass that keeps the newest version's copy of
//! every chunk. Expected shape (DESIGN.md §14): HiDeStore restores the
//! newest version with the fewest container reads; the hybrid post-pass
//! ratio lands close to inline HiDeStore; only the hybrid mode pays a
//! nonzero pass time.

use hidestore_bench::{run_scheme_comparison, workload_versions, Scale};
use hidestore_workloads::Profile;

fn main() {
    let scale = Scale::from_env();
    let headers = vec![
        "dataset",
        "scheme",
        "dedup",
        "newest-reads",
        "oldest-reads",
        "ingest-lookups",
        "ingest",
        "pass",
        "reclaimed-KB",
    ];
    let mut rows = Vec::new();
    for profile in Profile::ALL {
        let versions = workload_versions(profile, scale);
        for row in run_scheme_comparison(&versions, scale, profile) {
            rows.push(vec![
                profile.to_string(),
                row.label.to_string(),
                format!("{:.2}%", row.dedup_ratio * 100.0),
                row.newest_reads.to_string(),
                row.oldest_reads.to_string(),
                row.ingest_lookups.to_string(),
                format!("{:.0?}", row.ingest_time),
                format!("{:.0?}", row.pass_time),
                (row.pass_reclaimed / 1024).to_string(),
            ]);
        }
    }
    hidestore_bench::print_table(
        "Cross-scheme comparison: inline vs out-of-line deduplication",
        &headers,
        &rows,
    );
    hidestore_bench::write_csv("scheme_compare", &headers, &rows);
    println!(
        "\nexpected shape: HiDeStore newest-reads lowest; Hybrid dedup ~ HiDeStore; \
         only Hybrid pays pass time"
    );
}
