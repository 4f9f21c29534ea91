//! §2.3's motivation, quantified: the Chunk Fragmentation Level of each
//! version's restore plan under the no-rewrite baseline versus HiDeStore
//! (after Algorithm 1), using the analysis module's CFL metric.

use hidestore_bench::{workload_versions, Scale};
use hidestore_core::HiDeStore;
use hidestore_dedup::analysis::analyze_plan;
use hidestore_dedup::BackupPipeline;
use hidestore_index::DdfsIndex;
use hidestore_rewriting::NoRewrite;
use hidestore_storage::{MemoryContainerStore, VersionId};
use hidestore_workloads::Profile;

fn main() {
    let scale = Scale::from_env();
    for profile in [Profile::Kernel, Profile::Gcc] {
        let versions = workload_versions(profile, scale);

        let mut baseline = BackupPipeline::new(
            scale.pipeline_config(),
            DdfsIndex::new(),
            NoRewrite::new(),
            MemoryContainerStore::new(),
        );
        for v in &versions {
            baseline.backup(v).expect("memory store cannot fail");
        }

        let mut hds = HiDeStore::new(scale.hidestore_config(profile), MemoryContainerStore::new());
        for v in &versions {
            hds.backup(v).expect("memory store cannot fail");
        }
        hds.flatten_recipes();

        let mut rows = Vec::new();
        for v in 1..=versions.len() as u32 {
            let v = VersionId::new(v);
            let base = analyze_plan(
                &baseline.restore_plan(v).expect("retained version plans"),
                scale.container,
            );
            let hd = analyze_plan(
                &hds.restore_plan(v).expect("retained version plans"),
                scale.container,
            );
            rows.push(vec![
                v.to_string(),
                format!("{:.3}", base.cfl),
                format!("{:.1}", base.mean_bytes_per_container / 1024.0),
                format!("{:.3}", hd.cfl),
                format!("{:.1}", hd.mean_bytes_per_container / 1024.0),
            ]);
        }
        hidestore_bench::print_table(
            &format!("Fragmentation ({profile}): CFL and useful KiB per referenced container"),
            &[
                "version",
                "baseline CFL",
                "baseline KiB/ctr",
                "HiDeStore CFL",
                "HiDeStore KiB/ctr",
            ],
            &rows,
        );
        hidestore_bench::write_csv(
            &format!("fragmentation_{profile}"),
            &[
                "version",
                "baseline_cfl",
                "baseline_kib_per_ctr",
                "hds_cfl",
                "hds_kib_per_ctr",
            ],
            &rows,
        );
    }
    println!(
        "\nthe baseline's CFL decays with version age toward the newest (fragmentation \
         accumulates); HiDeStore inverts the curve — the newest version is the most clustered."
    );
}
