//! `tree.kernel`: the pipeline driven through the `tree` front end — each
//! version materialised as a directory, `backup_tree` + commit, then full
//! restores of the newest and oldest tree and one single-file subtree
//! restore.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use hidestore_core::HiDeStore;
use hidestore_failpoint::Vfs;
use hidestore_storage::{MemoryContainerStore, VersionId};
use hidestore_tree::{apath, backup_tree, restore_tree, TreeBackupOptions, TreeRestoreOptions};
use hidestore_workloads::{materialize, VersionStream};

use crate::stream::{close_and_reopen, replay_ingest};
use crate::trace::Tracer;
use crate::vfs::MemVfs;
use crate::workload::{checksum64, config, metered, timed, Res, Round, Workload};

/// Checksum of every regular file under `dir`, by path relative to it: two
/// trees with equal maps hold the same files with the same bytes.
fn checksums(vfs: &MemVfs, dir: &Path) -> BTreeMap<PathBuf, u64> {
    let mut sums = BTreeMap::new();
    vfs.for_each_file(dir, |path, data| {
        let name = path.strip_prefix(dir).expect("listed under `dir`");
        sums.insert(name.to_path_buf(), checksum64(data));
    });
    sums
}

/// One round: every version materialised (one directory at a time, so the
/// harness holds one tree, not the run), backed up as a tree and committed;
/// the repository reopened; newest, oldest and one file restored for
/// `passes` passes with every restored tree compared against its source;
/// then scrubbed. Sources, repository and destinations are all in memory.
pub fn round(w: &Workload, seed: u64, work: &Path, tracer: &mut Tracer) -> Res<Round> {
    let cfg = config();
    let vfs = MemVfs::new();
    let (repo, src, dst) = (work.join("repo"), work.join("src"), work.join("dst"));
    let mut r = Round::new(1);

    let (mut hds, _) = HiDeStore::open_repository_with(cfg, &repo, vfs.clone())?;
    let mut shadow = tracer
        .on()
        .then(|| HiDeStore::new(cfg, MemoryContainerStore::new()));
    let spec = w.profile.spec().scaled(w.bytes, w.versions);
    let (mut stream, mut gen_s) = timed(|| VersionStream::new(spec, seed));
    let mut expected: Vec<BTreeMap<PathBuf, u64>> = Vec::new();

    for _ in 0..w.versions {
        let (dirs, t) = timed(|| materialize(&mut stream, &vfs, &src, 1));
        gen_s += t;
        let dir = dirs?.remove(0);
        expected.push(checksums(&vfs, &dir));

        let op = r.next_op();
        let root = tracer.begin("op.backup", None, op);
        let (report, backup_s, _) = metered(tracer, &vfs, "tree.backup", root, op, || {
            backup_tree(&mut hds, &vfs, &dir, &TreeBackupOptions::default())
        });
        let report = report?;
        let (saved, commit_s, commit_io) = metered(tracer, &vfs, "core.commit", root, op, || {
            hds.save_repository(&repo)
        });
        saved?;
        r.backup_op(report.content_bytes, backup_s + commit_s);
        r.failed += u64::from(!report.is_complete());
        r.committed(&report.stats, backup_s, commit_s, &commit_io);
        let entries = report.files + report.dirs + report.symlinks;
        r.layers.add("tree.entries", entries as f64);
        r.layers.add("tree.skipped", report.skipped.len() as f64);

        if let Some(shadow) = shadow.as_mut() {
            // The front end's own work, replayed: the walk (sorted listing
            // plus one stat per entry), then the reads; the concatenated
            // contents then go through the same chunk, hash and classify
            // replays as a stream version.
            let (files, walk_s) = tracer.leaf("tree.walk", root, op, || -> std::io::Result<_> {
                let files = vfs.read_dir(&dir)?;
                for file in &files {
                    vfs.symlink_metadata(file)?;
                }
                Ok(files)
            });
            let files = files?;
            let (contents, read_s) = tracer.leaf("tree.read", root, op, || {
                files.iter().try_fold(Vec::new(), |mut all, file| {
                    all.extend_from_slice(&vfs.read(file)?);
                    Ok::<_, std::io::Error>(all)
                })
            });
            r.layers.add("tree.walk_s", walk_s);
            r.layers.add("tree.read_s", read_s);
            replay_ingest(tracer, &mut r, shadow, root, op, &contents?)?;
        }
        tracer.end(root);
        vfs.remove_dir_all(&dir)?;
    }
    r.layers.set("workloads.gen_s", gen_s);
    let mut hds = close_and_reopen(&mut r, &vfs, &repo, hds)?;

    // The single-file restore takes the middle file of the newest tree.
    let newest = expected.len() - 1;
    let one = expected[newest]
        .keys()
        .nth(expected[newest].len() / 2)
        .ok_or("the newest tree is empty")?
        .clone();
    let one_apath = apath::join(
        apath::ROOT,
        one.to_str().ok_or("generated names are UTF-8")?,
    );
    let targets = [(newest, None), (0, None), (newest, Some(one_apath))];
    for pass in 0..w.passes {
        for (index, subtree) in &targets {
            let dest = match subtree {
                None => dst.clone(),
                Some(_) => dst.join(&one),
            };
            let options = TreeRestoreOptions {
                subtree: subtree.clone(),
                ..TreeRestoreOptions::default()
            };
            let version = VersionId::new(*index as u32 + 1);
            let op = r.next_op();
            let root = tracer.begin("op.restore", None, op);
            let (report, restore_s, _) = metered(tracer, &vfs, "tree.restore", root, op, || {
                restore_tree(&mut hds, &vfs, version, &dest, &options)
            });
            tracer.end(root);
            let report = report?;
            let restored = checksums(&vfs, &dst);
            let ok = report.is_complete()
                && match subtree {
                    None => restored == expected[*index],
                    Some(_) => {
                        restored.len() == 1 && restored.get(&one) == expected[*index].get(&one)
                    }
                };
            r.restore_op(report.bytes_restored, restore_s, ok);
            r.layers.add("_restore.entries_s", restore_s);
            if pass == 0 {
                r.first_pass.0 += report.bytes_restored;
                r.first_pass.1 += report.container_reads;
                let reads = report.container_reads as f64;
                let speed_factor = report.bytes_restored as f64 / (1 << 20) as f64 / reads;
                match (subtree, *index == newest) {
                    (Some(_), _) => r.layers.set("_subtree_reads", reads),
                    (None, true) => {
                        r.layers.set("_full_reads", reads);
                        r.layers.set("restore.speed_factor_newest", speed_factor);
                    }
                    (None, false) => r.layers.set("restore.speed_factor_oldest", speed_factor),
                }
            }
            vfs.remove_dir_all(&dst)?;
        }
    }
    r.scrubbed(hds.scrub()?.is_clean());
    Ok(r)
}
