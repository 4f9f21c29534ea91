//! A real on-disk backup repository: HiDeStore over [`FileContainerStore`].
//!
//! Containers are persisted as files under a repository directory; the
//! example backs up versions, lists the repository layout, restores from
//! disk, and shows the I/O statistics.
//!
//! Run with: `cargo run --example file_backed_backup`

use hidestore::core::{HiDeStore, HiDeStoreConfig};
use hidestore::restore::Faa;
use hidestore::storage::{ContainerStore, FileContainerStore, VersionId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let repo = std::env::temp_dir().join(format!("hidestore-example-{}", std::process::id()));
    println!("repository: {}", repo.display());

    let store = FileContainerStore::open(&repo)?;
    let mut system = HiDeStore::new(
        HiDeStoreConfig {
            avg_chunk_size: 1024,
            container_capacity: 32 * 1024,
            ..HiDeStoreConfig::default()
        },
        store,
    );

    // Three versions; each edit goes cold one version later and lands in an
    // on-disk archival container.
    let v1: Vec<u8> = (0..150_000u32)
        .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
        .collect();
    let mut v2 = v1.clone();
    v2[10_000..30_000].fill(0x11);
    let mut v3 = v2.clone();
    v3[90_000..120_000].fill(0x22);

    for data in [&v1, &v2, &v3] {
        system.backup(data)?;
    }

    println!("archival containers on disk:");
    for entry in std::fs::read_dir(&repo)? {
        let entry = entry?;
        println!(
            "  {} ({} bytes)",
            entry.file_name().to_string_lossy(),
            entry.metadata()?.len()
        );
    }

    let before = system.archival().stats();
    let mut out = Vec::new();
    let report = system.restore(VersionId::new(1), &mut Faa::new(1 << 20), &mut out)?;
    assert_eq!(out, v1);
    let io = system.archival().stats().since(&before);
    println!(
        "restored V1 from disk: {} container reads ({} from archival files, {:.1} KB read), \
         speed factor {:.2}",
        report.container_reads,
        io.container_reads,
        io.bytes_read as f64 / 1024.0,
        report.speed_factor(),
    );

    std::fs::remove_dir_all(&repo)?;
    println!("repository removed");
    Ok(())
}
