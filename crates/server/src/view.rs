//! Builders mapping repository state to the wire protocol's response
//! types.
//!
//! Both the daemon (answering `List`/`Stats`/`Verify` requests, and
//! summing up a backup, restore or prune) and the local CLI (`hidestore
//! list --json`, `hidestore verify` or `backup` without a server) go
//! through these builders, so each answer is one computation and one
//! serialization, not two.

use hidestore_core::{
    DeletionReport, HiDeStore, HiDeStoreError, QuarantinedArtifact, VersionStats, ACTIVE_ID_BASE,
};
use hidestore_dedup::analysis::analyze_plan;
use hidestore_fsck::{AuditReport, FindingKind, Severity};
use hidestore_proto::{
    BackupSummary, ListResponse, PruneSummary, RestoreSummary, StatsResponse, VerifySummary,
    VersionEntry, VersionStatsEntry,
};
use hidestore_restore::RestoreReport;
use hidestore_storage::ContainerStore;

/// Builds the [`BackupSummary`] of one backup.
pub fn backup_summary(stats: &VersionStats) -> BackupSummary {
    BackupSummary {
        version: stats.version.get(),
        logical_bytes: stats.logical_bytes,
        stored_bytes: stats.stored_bytes,
        chunks: stats.chunks,
        unique_chunks: stats.stored_chunks,
        cold_chunks: stats.cold_chunks,
    }
}

/// Builds the [`RestoreSummary`] of one whole-version restore; a remote
/// client checks its `bytes_restored` against the announced length.
pub fn restore_summary(report: &RestoreReport) -> RestoreSummary {
    RestoreSummary {
        bytes_restored: report.bytes_restored,
        container_reads: report.container_reads,
        cache_hits: report.cache_hits,
        cache_misses: report.cache_misses,
    }
}

/// Builds the [`PruneSummary`] of a prune; `None`, nothing to prune, is
/// all zeros.
pub fn prune_summary(report: Option<&DeletionReport>) -> PruneSummary {
    report.map_or_else(PruneSummary::default, |r| PruneSummary {
        versions_removed: r.versions_removed,
        containers_dropped: r.containers_dropped,
        bytes_reclaimed: r.bytes_reclaimed,
    })
}

/// Builds the [`ListResponse`] for `hidestore list` / `Request::List`.
pub fn list_response<S: ContainerStore>(system: &HiDeStore<S>) -> ListResponse {
    let mut versions = Vec::new();
    for v in system.versions() {
        // A listed version always has a recipe; a repository where it does
        // not is corrupt, and `list` reports what is resolvable.
        let Some(recipe) = system.recipes().get(v) else {
            continue;
        };
        versions.push(VersionEntry {
            version: v.get(),
            bytes: recipe.total_bytes(),
            chunks: recipe.len() as u64,
        });
    }
    ListResponse {
        versions,
        archival_containers: system.archival().ids().len() as u64,
        active_containers: system.pool().container_count() as u64,
        hot_chunks: system.pool().chunk_count() as u64,
    }
}

/// Builds the [`StatsResponse`] for `hidestore stats` / `Request::Stats`:
/// one row per version, measured over its [`HiDeStore::restore_plan`]. A
/// version whose plan depends on quarantined artifacts has no row and is
/// listed in [`StatsResponse::lost`] instead.
///
/// # Errors
///
/// Fails when any other plan cannot be built (corruption).
pub fn stats_response<S: ContainerStore>(
    system: &HiDeStore<S>,
) -> Result<StatsResponse, HiDeStoreError> {
    let capacity = system.config().container_capacity;
    let mut versions = Vec::new();
    let mut lost = Vec::new();
    for v in system.versions() {
        let plan = match system.restore_plan(v) {
            Ok(plan) => plan,
            Err(HiDeStoreError::PartialRestore { .. }) => {
                lost.push(v.get());
                continue;
            }
            Err(e) => return Err(e),
        };
        let report = analyze_plan(&plan, capacity);
        versions.push(VersionStatsEntry {
            version: v.get(),
            bytes: plan.iter().map(|e| u64::from(e.size)).sum(),
            chunks: plan.len() as u64,
            cfl: report.cfl,
            mean_kib_per_container: report.mean_bytes_per_container / 1024.0,
        });
    }
    Ok(StatsResponse {
        versions,
        lost,
        pool_containers: system.pool().container_count() as u64,
        pool_chunks: system.pool().chunk_count() as u64,
        pool_live_bytes: system.pool().live_bytes(),
    })
}

/// Builds the [`VerifySummary`] for `hidestore verify` / `Request::Verify`
/// from one [`hidestore_fsck::SystemAuditor`] pass: every
/// [`Severity::Error`] finding becomes one `(container id, message)` damage
/// line, with container 0 when no container is to blame. Warnings are not
/// damage: every version still restores.
pub fn verify_response(report: &AuditReport) -> VerifySummary {
    let corrupt_chunks = report
        .findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .map(|f| (blamed_container(&f.kind), f.kind.to_string()))
        .collect();
    VerifySummary {
        containers_checked: report.containers_checked,
        chunks_checked: report.chunks_checked,
        recipes_checked: report.recipes_checked,
        corrupt_chunks,
    }
}

/// The container an Error finding blames, or 0 when it blames none (a
/// recipe, a chain, a tree manifest).
fn blamed_container(kind: &FindingKind) -> u32 {
    match kind {
        FindingKind::UnreadableContainer { id, .. } | FindingKind::IdSpaceViolation { id, .. } => {
            *id
        }
        FindingKind::EntryOutOfBounds { container, .. }
        | FindingKind::EntryOverlap { container, .. }
        | FindingKind::ChunkHashMismatch { container, .. }
        | FindingKind::AccountingMismatch { container, .. }
        | FindingKind::DanglingArchivalRef { container, .. }
        | FindingKind::ArchivalChunkMissing { container, .. } => *container,
        FindingKind::QuarantinedRef { artifact, .. } => match artifact {
            QuarantinedArtifact::ArchivalContainer(id) => id.get(),
            QuarantinedArtifact::ActiveContainer(cid) => ACTIVE_ID_BASE + cid,
            _ => 0,
        },
        _ => 0,
    }
}
