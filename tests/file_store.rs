//! Integration tests for the on-disk container store: HiDeStore and the
//! baseline pipeline as *real* backup repositories, including process
//! "restart" (reopen) and corruption handling.

use std::fs;
use std::path::PathBuf;

use hidestore::core::{HiDeStore, HiDeStoreConfig};
use hidestore::dedup::{BackupPipeline, PipelineConfig};
use hidestore::index::DdfsIndex;
use hidestore::restore::{Faa, RestoreCache, RestoreEntry};
use hidestore::rewriting::NoRewrite;
use hidestore::storage::{ContainerStore, FileContainerStore, StorageError, VersionId};
use hidestore::workloads::{Profile, VersionStream};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hidestore-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn small_versions() -> Vec<Vec<u8>> {
    VersionStream::new(Profile::Kernel.spec().scaled(512 << 10, 4), 5).all_versions()
}

#[test]
fn hidestore_over_file_store_round_trips() {
    let dir = temp_dir("hds");
    let store = FileContainerStore::open(&dir).unwrap();
    let mut hds = HiDeStore::new(
        HiDeStoreConfig {
            avg_chunk_size: 1024,
            container_capacity: 32 * 1024,
            ..HiDeStoreConfig::default()
        },
        store,
    );
    let versions = small_versions();
    for v in &versions {
        hds.backup(v).unwrap();
    }
    for (i, expect) in versions.iter().enumerate() {
        let mut out = Vec::new();
        hds.restore(
            VersionId::new(i as u32 + 1),
            &mut Faa::new(1 << 18),
            &mut out,
        )
        .unwrap();
        assert_eq!(&out, expect, "V{}", i + 1);
    }
    // Cold chunks really are on disk as container files.
    assert!(fs::read_dir(&dir).unwrap().count() > 0);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn pipeline_repository_survives_reopen() {
    let dir = temp_dir("reopen");
    let versions = small_versions();
    // Ingest with one store instance, keeping only the restore plans the
    // recipes resolve to...
    let plans: Vec<Vec<RestoreEntry>> = {
        let store = FileContainerStore::open(&dir).unwrap();
        let mut p = BackupPipeline::new(
            PipelineConfig {
                avg_chunk_size: 1024,
                container_capacity: 32 * 1024,
                segment_chunks: 32,
                ..PipelineConfig::default()
            },
            DdfsIndex::new(),
            NoRewrite::new(),
            store,
        );
        for v in &versions {
            p.backup(v).unwrap();
        }
        p.recipes()
            .iter()
            .map(|recipe| {
                recipe
                    .entries()
                    .iter()
                    .map(|e| {
                        RestoreEntry::new(
                            e.fingerprint,
                            e.size,
                            e.cid.as_archival().expect("baseline recipes are resolved"),
                        )
                    })
                    .collect()
            })
            .collect()
    };
    // ...then reopen a fresh store (a new process) and restore every version
    // from the on-disk containers alone.
    let store = FileContainerStore::open(&dir).unwrap();
    assert_eq!(plans.len(), versions.len());
    for (i, (plan, expect)) in plans.iter().zip(&versions).enumerate() {
        let mut out = Vec::new();
        Faa::new(1 << 18).restore(plan, &store, &mut out).unwrap();
        assert_eq!(&out, expect, "V{} after reopen", i + 1);
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_container_file_is_reported() {
    let dir = temp_dir("corrupt");
    let versions = small_versions();
    let store = FileContainerStore::open(&dir).unwrap();
    let mut p = BackupPipeline::new(
        PipelineConfig {
            avg_chunk_size: 1024,
            container_capacity: 32 * 1024,
            segment_chunks: 32,
            ..PipelineConfig::default()
        },
        DdfsIndex::new(),
        NoRewrite::new(),
        store,
    );
    p.backup(&versions[0]).unwrap();
    // Truncate the first container file behind the store's back.
    let victim = fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .find(|e| e.file_name().to_string_lossy().ends_with(".ctr"))
        .expect("at least one container file");
    let bytes = fs::read(victim.path()).unwrap();
    fs::write(victim.path(), &bytes[..bytes.len() / 2]).unwrap();

    let err = p
        .restore(
            VersionId::new(1),
            &mut Faa::new(1 << 18),
            &mut std::io::sink(),
        )
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("corrupt") || msg.contains("truncated") || msg.contains("not found"),
        "unexpected error: {msg}"
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn file_store_deletion_removes_files() {
    let dir = temp_dir("delete");
    let store = FileContainerStore::open(&dir).unwrap();
    let mut hds = HiDeStore::new(
        HiDeStoreConfig {
            avg_chunk_size: 1024,
            container_capacity: 32 * 1024,
            ..HiDeStoreConfig::default()
        },
        store,
    );
    let versions = small_versions();
    for v in &versions {
        hds.backup(v).unwrap();
    }
    let files_before = fs::read_dir(&dir).unwrap().count();
    let report = hds.delete_expired(VersionId::new(2)).unwrap();
    let files_after = fs::read_dir(&dir).unwrap().count();
    if report.containers_dropped > 0 {
        assert!(files_after < files_before);
    }
    // Survivors still restore from disk.
    for v in 3..=versions.len() as u32 {
        let mut out = Vec::new();
        hds.restore(VersionId::new(v), &mut Faa::new(1 << 18), &mut out)
            .unwrap();
        assert_eq!(&out, &versions[(v - 1) as usize]);
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn duplicate_container_id_rejected_on_disk() {
    let dir = temp_dir("dupid");
    let mut store = FileContainerStore::open(&dir).unwrap();
    let mut c = hidestore::storage::Container::new(hidestore::storage::ContainerId::new(1), 1024);
    c.try_add(hidestore::hash::Fingerprint::of(b"x"), b"x");
    store.write(c.clone()).unwrap();
    assert!(matches!(
        store.write(c),
        Err(StorageError::DuplicateContainer(_))
    ));
    fs::remove_dir_all(&dir).unwrap();
}
