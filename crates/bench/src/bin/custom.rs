//! Run a custom Destor-style configuration over a workload profile:
//!
//! ```text
//! custom <config-file> [kernel|gcc|fslhomes|macos|gdb|cmake]
//! ```
//!
//! The config file uses the `destor_config` format (chunker/index/rewrite/
//! container/...). Prints dedup ratio, index lookups, and per-version
//! restore speed factors — the standard report for a one-off experiment.

use hidestore_bench::{workload_versions, Scale};
use hidestore_dedup::destor_config::DestorConfig;
use hidestore_index::FingerprintIndex;
use hidestore_restore::Faa;
use hidestore_storage::VersionId;
use hidestore_workloads::Profile;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(config_path) = args.first() else {
        eprintln!("usage: custom <config-file> [profile]");
        std::process::exit(2);
    };
    let profile = match args.get(1).map(String::as_str) {
        None | Some("kernel") => Profile::Kernel,
        Some("gcc") => Profile::Gcc,
        Some("fslhomes") => Profile::Fslhomes,
        Some("macos") => Profile::Macos,
        Some("gdb") => Profile::Gdb,
        Some("cmake") => Profile::Cmake,
        Some(other) => {
            eprintln!("unknown profile {other}");
            std::process::exit(2);
        }
    };
    let text = std::fs::read_to_string(config_path).unwrap_or_else(|e| {
        eprintln!("cannot read {config_path}: {e}");
        std::process::exit(1);
    });
    let config: DestorConfig = text.parse().unwrap_or_else(|e| {
        eprintln!("{config_path}: {e}");
        std::process::exit(2);
    });
    println!("configuration: {config:?}\n");

    let mut scale = Scale::from_env();
    scale.container = config.pipeline.container_capacity;
    scale.chunk = config.pipeline.avg_chunk_size;
    let versions = workload_versions(profile, scale);
    let mut pipeline = config.build_pipeline();
    for (i, v) in versions.iter().enumerate() {
        let stats = pipeline.backup(v).expect("memory store cannot fail");
        println!(
            "V{:<3} dedup {:>6.2}%  lookups {:>8}  rewritten {:>10} B",
            i + 1,
            stats.dedup_ratio() * 100.0,
            stats.disk_lookups,
            stats.rewritten_bytes,
        );
    }
    println!(
        "\ncumulative dedup ratio {:.2}%, total index lookups {}, index table {} B",
        pipeline.run_stats().dedup_ratio() * 100.0,
        pipeline.index().disk_lookups(),
        pipeline.index().index_table_bytes(),
    );
    let mut rows = Vec::new();
    for v in 1..=versions.len() as u32 {
        let report = pipeline
            .restore(
                VersionId::new(v),
                &mut Faa::new(8 * config.pipeline.container_capacity),
                &mut std::io::sink(),
            )
            .expect("restore of retained version");
        rows.push(vec![
            format!("V{v}"),
            format!("{:.3}", report.speed_factor()),
        ]);
    }
    hidestore_bench::print_table(
        &format!("restore speed factors ({profile})"),
        &["version", "MB/read"],
        &rows,
    );
}
