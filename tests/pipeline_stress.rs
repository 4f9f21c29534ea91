//! Seeded stress for the backup front end under random lifecycles.
//!
//! Random backup / delete / save sequences run against an on-disk
//! repository, with at least one version above `STAGED_MIN_BYTES` so the
//! staged branch's hashing workers and bounded queue carry real traffic —
//! any missing wake-up or ordering bug shows up as a deadlock or a
//! corrupted repository. Each case runs under a watchdog thread: if the
//! front end hangs, the test fails with a timeout instead of hanging CI.
//! After every save the repository must reopen and pass a clean fsck audit.
//! (The depth-1 backpressure check lives with the private queue depth, in
//! `crates/dedup/src/pipeline/front_end.rs`.)

use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hidestore::core::{HiDeStore, HiDeStoreConfig};
use hidestore::dedup::STAGED_MIN_BYTES;
use hidestore::failpoint::RealVfs;
use hidestore::fsck::{Severity, SystemAuditor};
use hidestore::restore::Faa;
use hidestore::storage::VersionId;

/// A unique scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("hds-stress-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `body` on its own thread under a deadline. A deadlocked pipeline
/// trips the watchdog instead of hanging the test binary forever.
fn with_watchdog(tag: &str, timeout: Duration, body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(timeout) {
        Ok(()) => handle
            .join()
            .unwrap_or_else(|e| std::panic::resume_unwind(e)),
        Err(_) => panic!("{tag}: watchdog fired after {timeout:?} — pipeline deadlocked"),
    }
}

fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    let mut data = vec![0u8; len];
    rng.fill(&mut data[..]);
    data
}

/// Mutates a random window of the previous payload so successive versions
/// share most chunks (the realistic dedup regime).
fn mutate(rng: &mut StdRng, data: &mut Vec<u8>) {
    match rng.gen_range(0u32..3) {
        0 => {
            let at = rng.gen_range(0..data.len().max(1));
            let len = rng.gen_range(500usize..4000).min(data.len() - at);
            let patch = random_bytes(rng, len);
            data[at..at + len].copy_from_slice(&patch);
        }
        1 => {
            let len = rng.gen_range(500usize..4000);
            let extra = random_bytes(rng, len);
            data.extend_from_slice(&extra);
        }
        _ => {
            let keep = rng.gen_range(data.len() / 2..data.len()).max(1);
            data.truncate(keep);
        }
    }
}

/// Random backup / delete / save sequences against an on-disk repository,
/// fsck-audited after every save. The last case starts above the crossover
/// and its truncating mutations can carry it back below.
#[test]
fn random_ops_under_backpressure_audit_clean() {
    for (case, first_len) in [40_000, 40_000, STAGED_MIN_BYTES + 40_000]
        .into_iter()
        .enumerate()
    {
        let tag = format!("stress-{case}-{first_len}b");
        with_watchdog(&tag.clone(), Duration::from_secs(300), move || {
            let mut rng = StdRng::seed_from_u64(0xC0FFEE + case as u64);
            let scratch = Scratch::new(&tag);
            let config = HiDeStoreConfig {
                avg_chunk_size: 1024,
                container_capacity: 16 * 1024,
                ..HiDeStoreConfig::default()
            };
            let (mut hds, _) = HiDeStore::open_repository_with(config, &scratch.0, RealVfs)
                .unwrap_or_else(|e| panic!("{tag}: open: {e}"));
            let mut data = random_bytes(&mut rng, first_len);
            hds.backup(&data).unwrap();
            let mut newest = 1u32;
            let mut oldest = 1u32;
            for round in 0..12 {
                match rng.gen_range(0u32..4) {
                    // Backup a mutated version (weighted: half the ops).
                    0 | 1 => {
                        mutate(&mut rng, &mut data);
                        hds.backup(&data).unwrap();
                        newest += 1;
                    }
                    // Expire a random prefix when history allows.
                    2 => {
                        if oldest < newest {
                            let up_to = rng.gen_range(oldest..newest);
                            hds.delete_expired(VersionId::new(up_to)).unwrap();
                            oldest = up_to + 1;
                        }
                    }
                    // Save, reopen, audit.
                    _ => {
                        hds.save_repository(&scratch.0).unwrap();
                        let (reopened, _) =
                            HiDeStore::open_repository_with(config, &scratch.0, RealVfs)
                                .unwrap_or_else(|e| panic!("{tag} round {round}: reopen: {e}"));
                        let audit = SystemAuditor::new().audit(&reopened);
                        assert_eq!(
                            audit.count(Severity::Error),
                            0,
                            "{tag} round {round}: fsck after save:\n{:#?}",
                            audit.findings
                        );
                        hds = reopened;
                    }
                }
            }
            // Final save + audit + byte-exact restore of the newest version.
            hds.save_repository(&scratch.0).unwrap();
            let audit = SystemAuditor::new().audit(&hds);
            assert_eq!(audit.count(Severity::Error), 0, "{tag}: final fsck");
            let mut out = Vec::new();
            hds.restore(VersionId::new(newest), &mut Faa::new(1 << 18), &mut out)
                .unwrap();
            assert_eq!(out, data, "{tag}: newest version must restore");
        });
    }
}
