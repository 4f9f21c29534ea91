//! Local stream workloads (`bulk.kernel`, `churn.fslhomes`, `aged.macos`):
//! `HiDeStore::backup` + `save_repository` per version, then reopen and
//! restore every version through the workload's cache.

use std::collections::BTreeSet;
use std::path::Path;

use hidestore_chunking::chunk_spans;
use hidestore_core::{HiDeStore, ACTIVE_ID_BASE};
use hidestore_hash::{default_hash_threads, fingerprints_parallel, Fingerprint};
use hidestore_restore::{ContainerLru, Faa, RestoreCache, RestoreConcurrency};
use hidestore_storage::{ContainerId, ContainerStore, FileContainerStore, MemoryContainerStore};
use hidestore_workloads::VersionStream;

use crate::trace::Tracer;
use crate::vfs::MemVfs;
use crate::workload::{checksum64, config, metered, timed, Res, Round, Workload};

/// Budget of the FAA restore cache: larger than any version here, so the
/// cache never limits the restore.
const FAA_BYTES: usize = 32 << 20;

/// Replays one version's ingest layer by layer, as child spans of the op:
/// `chunking` and `hash` exactly as `HiDeStore::backup` runs them, then
/// `core.ingest` — the resulting `(fingerprint, size)` trace classified and
/// placed by a shadow instance with no filesystem under it.
pub(crate) fn replay_ingest(
    tracer: &mut Tracer,
    round: &mut Round,
    shadow: &mut HiDeStore<MemoryContainerStore>,
    parent: Option<usize>,
    op: u64,
    data: &[u8],
) -> Res<()> {
    let cfg = config();
    let mut chunker = cfg.chunker.build(cfg.avg_chunk_size);
    let (spans, chunk_s) = tracer.leaf("chunking", parent, op, || {
        chunk_spans(chunker.as_mut(), data)
    });
    let (fingerprints, hash_s) = tracer.leaf("hash", parent, op, || {
        fingerprints_parallel(data, &spans, default_hash_threads())
    });
    let trace: Vec<(Fingerprint, u32)> = fingerprints
        .into_iter()
        .zip(&spans)
        .map(|(fp, span)| (fp, span.len() as u32))
        .collect();
    let (ingested, ingest_s) =
        tracer.leaf("core.ingest", parent, op, || shadow.backup_trace(&trace));
    ingested?;
    round
        .chunk_ms_per_mb
        .push(chunk_s * 1e3 / (data.len() as f64 / (1 << 20) as f64));
    round.layers.add("chunking.busy_s", chunk_s);
    round.layers.add("chunking.chunks", spans.len() as f64);
    round.layers.add("hash.busy_s", hash_s);
    round.layers.add("core.ingest.busy_s", ingest_s);
    round.layers.add("_replayed_bytes", data.len() as f64);
    Ok(())
}

/// Ends the backup phase and starts the restore phase the way a later
/// command would: records what the store wrote and what the repository
/// holds, drops the instance, and opens the repository again — recording
/// what the open cost and how many container files it read.
pub(crate) fn close_and_reopen(
    round: &mut Round,
    vfs: &MemVfs,
    repo: &Path,
    hds: HiDeStore<FileContainerStore<MemVfs>>,
) -> Res<HiDeStore<FileContainerStore<MemVfs>>> {
    let io = hds.archival().stats();
    drop(hds);
    let l = &mut round.layers;
    l.set("storage.write.containers", io.container_writes as f64);
    l.set("storage.write.bytes", io.bytes_written as f64);
    round.stored_bytes = vfs.bytes_under(repo);

    let before = vfs.counts();
    let (opened, open_s) = timed(|| HiDeStore::open_repository_with(config(), repo, vfs.clone()));
    let (hds, _) = opened?;
    round.layers.set("core.open.ms", open_s * 1e3);
    round.layers.set(
        "core.open.containers_verified",
        vfs.counts().since(&before).containers_read as f64,
    );
    Ok(hds)
}

/// One round: a fresh repository under `work`, every version of the seeded
/// stream backed up and committed, the repository reopened, every version
/// restored `passes` times and byte-verified, then scrubbed.
pub fn round(
    w: &Workload,
    lru_slots: Option<usize>,
    seed: u64,
    work: &Path,
    tracer: &mut Tracer,
) -> Res<Round> {
    let cfg = config();
    let vfs = MemVfs::new();
    let repo = work.join("repo");
    let mut r = Round::new(1);

    let (mut hds, _) = HiDeStore::open_repository_with(cfg, &repo, vfs.clone())?;
    // The shadow instance takes the same chunk trace with no filesystem
    // under it: what `core` itself costs to classify and place a version.
    let mut shadow = tracer
        .on()
        .then(|| HiDeStore::new(cfg, MemoryContainerStore::new()));
    let spec = w.profile.spec().scaled(w.bytes, w.versions);
    let (mut stream, mut gen_s) = timed(|| VersionStream::new(spec, seed));
    let mut expected: Vec<(usize, u64)> = Vec::new();

    for _ in 0..w.versions {
        let (data, t) = timed(|| stream.next_version());
        gen_s += t;
        expected.push((data.len(), checksum64(&data)));

        let op = r.next_op();
        let root = tracer.begin("op.backup", None, op);
        let (stats, backup_s, _) =
            metered(tracer, &vfs, "core.backup", root, op, || hds.backup(&data));
        let stats = stats?;
        let (saved, commit_s, commit_io) = metered(tracer, &vfs, "core.commit", root, op, || {
            hds.save_repository(&repo)
        });
        saved?;
        r.backup_op(data.len() as u64, backup_s + commit_s);
        r.committed(&stats, backup_s, commit_s, &commit_io);
        if let Some(shadow) = shadow.as_mut() {
            replay_ingest(tracer, &mut r, shadow, root, op, &data)?;
        }
        tracer.end(root);
    }
    r.layers.set("workloads.gen_s", gen_s);
    let mut hds = close_and_reopen(&mut r, &vfs, &repo, hds)?;

    let conc = RestoreConcurrency::serial();
    let versions = hds.versions();
    let mut sink: Vec<u8> = Vec::new();
    for pass in 0..w.passes {
        for (i, &version) in versions.iter().enumerate() {
            sink.clear();
            let mut cache: Box<dyn RestoreCache> = match lru_slots {
                Some(slots) => Box::new(ContainerLru::new(slots)),
                None => Box::new(Faa::new(FAA_BYTES)),
            };
            let op = r.next_op();
            let root = tracer.begin("op.restore", None, op);
            let (plan, plan_s) =
                tracer.leaf("restore.plan", root, op, || hds.restore_plan(version));
            let plan = plan?;
            let (report, entries_s) = tracer.leaf("restore.entries", root, op, || {
                hds.restore_entries(&plan, cache.as_mut(), &mut sink, &conc)
            });
            let report = report?;
            let ok = (sink.len(), checksum64(&sink)) == expected[i];
            r.restore_op(report.bytes_restored, plan_s + entries_s, ok);
            if pass == 0 {
                r.first_pass.0 += report.bytes_restored;
                r.first_pass.1 += report.container_reads;
                if i == 0 {
                    r.layers
                        .set("restore.speed_factor_oldest", report.speed_factor());
                }
                if i + 1 == versions.len() {
                    r.layers
                        .set("restore.speed_factor_newest", report.speed_factor());
                }
            }
            let l = &mut r.layers;
            l.add("_cache_hits", report.cache_hits as f64);
            l.add("_cache_misses", report.cache_misses as f64);
            l.add(
                "restore.prefetch_wasted",
                report.stage.prefetch_wasted as f64,
            );
            l.add("restore.plan.busy_s", plan_s);
            l.add("restore.plan.entries", plan.len() as f64);
            l.add("_restore.entries_s", entries_s);

            if tracer.on() {
                // What the device-facing layer costs for this plan: read
                // (and decode) each distinct archival container once.
                let ids: BTreeSet<ContainerId> = plan
                    .iter()
                    .map(|e| e.container)
                    .filter(|id| id.get() < ACTIVE_ID_BASE)
                    .collect();
                let (bytes, read_s) = tracer.leaf("storage.read", root, op, || {
                    ids.iter().try_fold(0u64, |bytes, &id| {
                        Ok::<_, hidestore_storage::StorageError>(
                            bytes + hds.archival_mut().read(id)?.used_bytes() as u64,
                        )
                    })
                });
                r.layers.add("storage.read.busy_s", read_s);
                r.layers.add("storage.read.containers", ids.len() as f64);
                r.layers.add("storage.read.bytes", bytes? as f64);
            }
            tracer.end(root);
        }
    }
    r.scrubbed(hds.scrub()?.is_clean());
    Ok(r)
}
