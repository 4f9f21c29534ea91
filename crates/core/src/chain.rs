//! Recipe-chain maintenance (§4.3) and Algorithm 1.
//!
//! HiDeStore writes each version's recipe with every CID = 0 ("in active
//! containers"). When the *next* version demotes cold chunks, only the
//! previous recipe(s) are updated: demoted chunks get their archival CID,
//! still-hot chunks get a negative CID pointing at the newer recipe that now
//! tracks them. Old recipes therefore form a chain toward the newest one;
//! [`flatten_recipes`] (the paper's Algorithm 1) collapses the chain offline
//! so restores of old versions don't walk multiple recipes.
//! [`ChainWalker`] is the one traversal of the chain: restore, `stats` and
//! the auditor all follow entries through it.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, HashSet};

use hidestore_hash::Fingerprint;
use hidestore_restore::RestoreEntry;
use hidestore_storage::{Cid, ContainerId, RecipeEntry, RecipeStore, VersionId};

use crate::active::ActivePool;
use crate::composite::ACTIVE_ID_BASE;
use crate::persist::{QuarantineEntry, QuarantinedArtifact};
use crate::system::HiDeStoreError;

/// Updates the recipes of the last `depth` versions after version `current`
/// demoted the cold set `moved` to archival containers (§4.3, Figure 7).
///
/// For every still-`ACTIVE` entry of those recipes:
/// * demoted chunk → its archival container ID;
/// * chunk the pool has seen in the current version → `chained(current)`;
/// * otherwise (possible only with history depth ≥ 2) → stays `ACTIVE`; it
///   will be settled when it goes cold.
///
/// An older retained recipe holds `ACTIVE` entries only when a failed
/// demotion left it unsettled; those of its entries that were demoted now
/// get their archival container ID too. In normal operation no older
/// recipe is touched.
///
/// Returns the number of entries modified.
pub fn update_previous_recipes(
    recipes: &mut RecipeStore,
    current: VersionId,
    moved: &HashMap<Fingerprint, ContainerId>,
    pool: &ActivePool,
    depth: usize,
) -> u64 {
    let mut updated = 0;
    let oldest = VersionId::new(current.get().saturating_sub(depth as u32).max(1));
    let demoted =
        |entry: &RecipeEntry| entry.cid.is_active() && moved.contains_key(&entry.fingerprint);
    for w in recipes.versions().into_iter().take_while(|&w| w < current) {
        let in_window = w >= oldest;
        // Borrowing an older recipe mutably marks it for the next save, so
        // only one with something to settle is borrowed.
        if !in_window
            && !recipes
                .get(w)
                .is_some_and(|r| r.entries().iter().any(demoted))
        {
            continue;
        }
        let Some(recipe) = recipes.get_mut(w) else {
            continue;
        };
        for entry in recipe.entries_mut() {
            if !entry.cid.is_active() {
                continue;
            }
            if let Some(&archival) = moved.get(&entry.fingerprint) {
                entry.cid = Cid::archival(archival);
                updated += 1;
            } else if in_window && pool.seen_in(&entry.fingerprint, current) {
                entry.cid = Cid::chained(current);
                updated += 1;
            }
        }
    }
    updated
}

/// Algorithm 1: collapses the recipe chain so every entry of every retained
/// recipe is either an archival CID, `ACTIVE` (the entry's own recipe is the
/// newest one containing the chunk, which is therefore still in the active
/// containers), or a *one-hop* chain to the newest recipe containing the
/// chunk — the paper's `-n` for still-hot chunks. Works newest → oldest with
/// a running resolution table, the generalization of the paper's `T`/`t`
/// tables that also handles chains created by earlier flatten passes.
///
/// Keeping still-hot chunks chained to their newest containing recipe (not
/// collapsed to `ACTIVE`) is what lets later backups settle them: cold
/// demotion only rewrites the most recent recipes (§4.3), so exactly the
/// newest containing recipe is guaranteed to receive the archival location.
///
/// Returns the number of entries rewritten.
pub fn flatten_recipes(recipes: &mut RecipeStore) -> u64 {
    let mut resolved: HashMap<Fingerprint, Cid> = HashMap::new();
    // Newest version whose recipe contains each fingerprint.
    let mut containing: HashMap<Fingerprint, VersionId> = HashMap::new();
    let mut updated = 0;
    let mut versions = recipes.versions();
    versions.reverse(); // newest first
    for v in versions {
        let Some(recipe) = recipes.get_mut(v) else {
            continue;
        };
        for entry in recipe.entries_mut() {
            // Walking newest-first, the first sighting is the newest one.
            containing.entry(entry.fingerprint).or_insert(v);
            match (entry.cid.as_archival(), entry.cid.as_chained()) {
                (Some(_), _) => {
                    // Already physical: record for older recipes.
                    resolved.entry(entry.fingerprint).or_insert(entry.cid);
                }
                (None, Some(_)) => {
                    // Chained: the newer recipes have been processed already.
                    let new_cid = match resolved.get(&entry.fingerprint).copied() {
                        Some(cid) if cid.as_archival().is_some() => cid,
                        // Still hot: one hop to the newest containing recipe.
                        _ => {
                            let newest = containing[&entry.fingerprint];
                            if newest == v {
                                Cid::ACTIVE
                            } else {
                                Cid::chained(newest)
                            }
                        }
                    };
                    if entry.cid != new_cid {
                        entry.cid = new_cid;
                        updated += 1;
                    }
                }
                (None, None) => {
                    // ACTIVE: if a newer recipe archived this chunk, adopt
                    // that location (depth ≥ 2 corner); else it really is
                    // still in the pool.
                    if let Some(cid) = resolved.get(&entry.fingerprint).copied() {
                        if cid.as_archival().is_some() && entry.cid != cid {
                            entry.cid = cid;
                            updated += 1;
                        }
                    }
                }
            }
        }
    }
    updated
}

/// Errors from plan resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// A chained reference pointed at a version whose recipe is missing.
    MissingRecipe(VersionId),
    /// A chain step did not contain the chunk it was supposed to, or did
    /// not lead to a strictly newer version.
    BrokenChain {
        /// The chunk whose location could not be resolved.
        fingerprint: Fingerprint,
        /// The version whose recipe broke the chain.
        version: VersionId,
    },
    /// An `ACTIVE` entry's chunk is not in the active pool.
    NotInPool(Fingerprint),
}

impl std::fmt::Display for ResolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResolveError::MissingRecipe(v) => write!(f, "recipe for {v} missing"),
            ResolveError::BrokenChain {
                fingerprint,
                version,
            } => {
                write!(f, "chain for chunk {fingerprint} broke at {version}")
            }
            ResolveError::NotInPool(fp) => {
                write!(f, "chunk {fp} marked active but absent from the pool")
            }
        }
    }
}

impl std::error::Error for ResolveError {}

/// Where a recipe entry's chunk physically lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Location {
    /// An archival container.
    Archival(ContainerId),
    /// An active-pool container, by pool slot.
    Pool(u32),
}

/// Why a chain walk reached no [`Location`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkError {
    /// A hop's target version has no recipe.
    MissingRecipe(VersionId),
    /// A hop's target recipe does not hold the chunk.
    BrokenAt(VersionId),
    /// An `ACTIVE` entry's chunk is not in the active pool.
    NotInPool,
    /// A hop returned to this already visited version.
    Cycle(VersionId),
}

/// The one traversal of the recipe chain (§4.4's three CID cases): restore,
/// `stats` and the auditor follow every entry through it. The per-version
/// `fingerprint → Cid` maps it builds on a version's first hop are shared by
/// every later walk of the same walker.
pub struct ChainWalker<'a> {
    recipes: &'a RecipeStore,
    pool: &'a ActivePool,
    maps: HashMap<VersionId, HashMap<Fingerprint, Cid>>,
    /// The last walk's hops that did not lead to a strictly newer version.
    backward: Vec<(VersionId, VersionId)>,
    /// Versions the last walk visited since its first backward hop.
    visited: HashSet<VersionId>,
}

impl<'a> ChainWalker<'a> {
    /// A walker over `recipes` and `pool` with no maps built yet.
    pub fn new(recipes: &'a RecipeStore, pool: &'a ActivePool) -> Self {
        ChainWalker {
            recipes,
            pool,
            maps: HashMap::new(),
            backward: Vec::new(),
            visited: HashSet::new(),
        }
    }

    /// Follows `entry` of `version`'s recipe to the location holding its
    /// chunk. Each hop should lead to a strictly newer version; one that
    /// does not is recorded (see [`ChainWalker::backward_hops`]) and the walk
    /// goes on, stopping with [`WalkError::Cycle`] when it revisits a
    /// version. Forward hops alone cannot cycle, so the visited set is kept
    /// only after the first backward hop.
    ///
    /// # Errors
    ///
    /// The [`WalkError`] at which the chain ended without a location.
    pub fn walk(&mut self, version: VersionId, entry: &RecipeEntry) -> Result<Location, WalkError> {
        self.backward.clear();
        let fp = entry.fingerprint;
        let (mut at, mut cid) = (version, entry.cid);
        loop {
            let w = match (cid.as_archival(), cid.as_chained()) {
                (Some(id), _) => return Ok(Location::Archival(id)),
                (None, Some(w)) => w,
                (None, None) => {
                    return self
                        .pool
                        .locate(&fp)
                        .map(Location::Pool)
                        .ok_or(WalkError::NotInPool)
                }
            };
            if w <= at {
                if self.backward.is_empty() {
                    // The versions between the start and `at` lie on a
                    // forward path that leads back to `at` if re-entered,
                    // so seeding both ends catches every revisit.
                    self.visited.clear();
                    self.visited.extend([version, at]);
                }
                self.backward.push((at, w));
            }
            if !self.backward.is_empty() && !self.visited.insert(w) {
                return Err(WalkError::Cycle(w));
            }
            let map = match self.maps.entry(w) {
                Entry::Occupied(map) => map.into_mut(),
                Entry::Vacant(slot) => {
                    let recipe = self.recipes.get(w).ok_or(WalkError::MissingRecipe(w))?;
                    slot.insert(
                        recipe
                            .entries()
                            .iter()
                            .map(|e| (e.fingerprint, e.cid))
                            .collect(),
                    )
                }
            };
            cid = *map.get(&fp).ok_or(WalkError::BrokenAt(w))?;
            at = w;
        }
    }

    /// The last walk's hops, as `(from, to)`, that did not lead to a
    /// strictly newer version, in walk order.
    pub fn backward_hops(&self) -> &[(VersionId, VersionId)] {
        &self.backward
    }

    /// Restore's reading of the last walk, which ended at `end` resolving
    /// `fingerprint`: the plan container, or the [`ResolveError`]. A backward
    /// hop breaks the chain at its target, whatever followed it.
    ///
    /// # Errors
    ///
    /// The [`ResolveError`] the walk maps onto.
    pub fn plan_container(
        &self,
        fingerprint: Fingerprint,
        end: Result<Location, WalkError>,
    ) -> Result<ContainerId, ResolveError> {
        match (self.backward.first(), end) {
            (Some(&(_, version)), _)
            | (None, Err(WalkError::BrokenAt(version) | WalkError::Cycle(version))) => {
                Err(ResolveError::BrokenChain {
                    fingerprint,
                    version,
                })
            }
            (None, Ok(Location::Archival(id))) => Ok(id),
            (None, Ok(Location::Pool(slot))) => Ok(ContainerId::new(ACTIVE_ID_BASE + slot)),
            (None, Err(WalkError::MissingRecipe(w))) => Err(ResolveError::MissingRecipe(w)),
            (None, Err(WalkError::NotInPool)) => Err(ResolveError::NotInPool(fingerprint)),
        }
    }
}

/// The quarantined artifact, if any, behind a walk's `end`: the archival
/// container it reached, the recipe it found missing, or — for a chunk
/// absent from the pool — the first quarantined active container, which
/// took its chunks with it.
pub fn quarantined_cause(
    quarantine: &[QuarantineEntry],
    end: &Result<Location, WalkError>,
) -> Option<QuarantinedArtifact> {
    quarantine
        .iter()
        .map(|q| &q.artifact)
        .find(|artifact| match (end, artifact) {
            (Ok(Location::Archival(id)), QuarantinedArtifact::ArchivalContainer(lost)) => {
                id == lost
            }
            (Err(WalkError::MissingRecipe(v)), QuarantinedArtifact::Recipe(lost)) => v == lost,
            (Err(WalkError::NotInPool), QuarantinedArtifact::ActiveContainer(_)) => true,
            _ => false,
        })
        .cloned()
}

/// Builds `version`'s restore plan, the one way a retained version becomes
/// a container plan ([`crate::HiDeStore::restore_plan`]): every entry of
/// its recipe is walked once, in stream order, to the container that
/// physically holds the chunk — archival IDs as they are, pool slots offset
/// by [`ACTIVE_ID_BASE`] (§4.4's three CID cases).
///
/// # Errors
///
/// [`HiDeStoreError::PartialRestore`], before any other error, naming the
/// artifacts of `quarantine` the version's entries resolve through (or its
/// own quarantined recipe); [`HiDeStoreError::UnknownVersion`] for a version
/// without a recipe; otherwise the first entry's [`ResolveError`], which
/// indicates recipe corruption.
pub(crate) fn build_plan(
    recipes: &RecipeStore,
    pool: &ActivePool,
    quarantine: &[QuarantineEntry],
    version: VersionId,
) -> Result<Vec<RestoreEntry>, HiDeStoreError> {
    let Some(recipe) = recipes.get(version) else {
        // A quarantined recipe is a *known* version whose recipe was
        // pulled, not an unknown one.
        let lost = QuarantinedArtifact::Recipe(version);
        if quarantine.iter().any(|q| q.artifact == lost) {
            return Err(HiDeStoreError::PartialRestore {
                version,
                quarantined: vec![lost],
            });
        }
        return Err(HiDeStoreError::UnknownVersion(version));
    };
    let mut walker = ChainWalker::new(recipes, pool);
    let mut plan = Vec::with_capacity(recipe.len());
    let mut lost = BTreeSet::new();
    let mut failed = Ok(());
    for entry in recipe.entries() {
        let end = walker.walk(version, entry);
        if let Some(artifact) = quarantined_cause(quarantine, &end) {
            lost.insert(artifact);
        } else if failed.is_ok() {
            match walker.plan_container(entry.fingerprint, end) {
                Ok(cid) => plan.push(RestoreEntry::new(entry.fingerprint, entry.size, cid)),
                Err(e) => failed = Err(e),
            }
        }
    }
    if !lost.is_empty() {
        return Err(HiDeStoreError::PartialRestore {
            version,
            quarantined: lost.into_iter().collect(),
        });
    }
    failed?;
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidestore_storage::Recipe;

    fn fp(n: u64) -> Fingerprint {
        Fingerprint::synthetic(n)
    }

    /// `version`'s plan with nothing quarantined.
    fn plan(
        recipes: &RecipeStore,
        pool: &ActivePool,
        version: u32,
    ) -> Result<Vec<RestoreEntry>, HiDeStoreError> {
        build_plan(recipes, pool, &[], VersionId::new(version))
    }

    /// The [`ResolveError`] `version`'s plan fails with.
    fn resolve_error(recipes: &RecipeStore, pool: &ActivePool, version: u32) -> ResolveError {
        match plan(recipes, pool, version) {
            Err(HiDeStoreError::Resolve(e)) => e,
            other => panic!("expected a resolution error, got {other:?}"),
        }
    }

    /// A pool holding chunks `ids`, each seen in `version`.
    fn pool_seen_in(version: u32, ids: &[u64]) -> ActivePool {
        let mut pool = ActivePool::new(1024);
        for (rank, &id) in (0u32..).zip(ids) {
            pool.add(fp(id), &id.to_le_bytes(), VersionId::new(version), rank);
        }
        pool
    }

    fn recipe_with(version: u32, entries: &[(u64, i32)]) -> Recipe {
        let mut r = Recipe::new(VersionId::new(version));
        for &(n, raw) in entries {
            r.push(RecipeEntry::new(fp(n), 100, Cid::from_raw(raw)));
        }
        r
    }

    #[test]
    fn update_previous_moves_cold_and_chains_hot() {
        let mut recipes = RecipeStore::new();
        recipes.insert(recipe_with(1, &[(1, 0), (2, 0), (3, 0)]));
        recipes.insert(recipe_with(2, &[(1, 0), (3, 0)]));
        let mut moved = HashMap::new();
        moved.insert(fp(2), ContainerId::new(7));
        let pool = pool_seen_in(2, &[1, 3]);
        let updated = update_previous_recipes(&mut recipes, VersionId::new(2), &moved, &pool, 1);
        assert_eq!(updated, 3);
        let r1 = recipes.get(VersionId::new(1)).unwrap();
        assert_eq!(r1.entries()[0].cid, Cid::chained(VersionId::new(2)));
        assert_eq!(r1.entries()[1].cid, Cid::archival(ContainerId::new(7)));
        assert_eq!(r1.entries()[2].cid, Cid::chained(VersionId::new(2)));
    }

    #[test]
    fn depth_two_leaves_intermediate_chunks_active() {
        let mut recipes = RecipeStore::new();
        // Chunk 5 is in V1 but neither moved nor in V2's fingerprints (it is
        // still in the depth-2 history).
        recipes.insert(recipe_with(1, &[(5, 0)]));
        recipes.insert(recipe_with(2, &[]));
        let updated = update_previous_recipes(
            &mut recipes,
            VersionId::new(2),
            &HashMap::new(),
            &ActivePool::new(1024),
            2,
        );
        assert_eq!(updated, 0);
        assert!(recipes.get(VersionId::new(1)).unwrap().entries()[0]
            .cid
            .is_active());
    }

    #[test]
    fn flatten_collapses_two_hop_chain() {
        let mut recipes = RecipeStore::new();
        // V1 chains to V2; V2 chains to V3; V3 has the archival location.
        recipes.insert(recipe_with(1, &[(1, -2)]));
        recipes.insert(recipe_with(2, &[(1, -3)]));
        recipes.insert(recipe_with(3, &[(1, 42)]));
        let updated = flatten_recipes(&mut recipes);
        assert_eq!(updated, 2);
        for v in 1..=3u32 {
            assert_eq!(
                recipes.get(VersionId::new(v)).unwrap().entries()[0].cid,
                Cid::archival(ContainerId::new(42)),
                "V{v}"
            );
        }
    }

    #[test]
    fn flatten_keeps_one_hop_chain_for_still_hot_chunks() {
        let mut recipes = RecipeStore::new();
        recipes.insert(recipe_with(1, &[(1, -2)]));
        recipes.insert(recipe_with(2, &[(1, -3)]));
        recipes.insert(recipe_with(3, &[(1, 0)])); // newest: still active
        flatten_recipes(&mut recipes);
        // Both old recipes point one hop at V3, the newest recipe containing
        // the chunk (the paper's "-n" for active chunks); V3 stays ACTIVE so
        // a later demotion can settle it.
        assert_eq!(
            recipes.get(VersionId::new(1)).unwrap().entries()[0].cid,
            Cid::chained(VersionId::new(3))
        );
        assert_eq!(
            recipes.get(VersionId::new(2)).unwrap().entries()[0].cid,
            Cid::chained(VersionId::new(3))
        );
        assert!(recipes.get(VersionId::new(3)).unwrap().entries()[0]
            .cid
            .is_active());
    }

    #[test]
    fn update_previous_settles_demoted_entries_of_older_recipes_only() {
        // V1 was left unsettled by a failed demotion at the end of V2. At
        // the end of V3 (depth 1) its demoted entry gets the archival ID;
        // its entry of a chunk V3 holds stays `ACTIVE`, and V2 is updated
        // as usual.
        let mut recipes = RecipeStore::new();
        recipes.insert(recipe_with(1, &[(1, 0), (2, 0)]));
        recipes.insert(recipe_with(2, &[(2, 0), (3, 0)]));
        recipes.insert(recipe_with(3, &[(2, 0)]));
        recipes.mark_saved();
        let mut moved = HashMap::new();
        moved.insert(fp(1), ContainerId::new(7));
        moved.insert(fp(3), ContainerId::new(7));
        let pool = pool_seen_in(3, &[2]);
        let updated = update_previous_recipes(&mut recipes, VersionId::new(3), &moved, &pool, 1);
        assert_eq!(updated, 3);
        let cids = |v: u32| -> Vec<Cid> {
            let r = recipes.get(VersionId::new(v)).unwrap();
            r.entries().iter().map(|e| e.cid).collect()
        };
        let archived = Cid::archival(ContainerId::new(7));
        assert_eq!(cids(1), [archived, Cid::ACTIVE]);
        assert_eq!(cids(2), [Cid::chained(VersionId::new(3)), archived]);
        // A settled older recipe holds nothing demoted and is not borrowed.
        recipes.mark_saved();
        update_previous_recipes(&mut recipes, VersionId::new(3), &moved, &pool, 1);
        let changed: Vec<VersionId> = recipes.changed().map(|r| r.version()).collect();
        assert_eq!(changed, [VersionId::new(2)]);
    }

    #[test]
    fn flatten_is_idempotent() {
        let mut recipes = RecipeStore::new();
        recipes.insert(recipe_with(1, &[(1, -2), (2, 5)]));
        recipes.insert(recipe_with(2, &[(1, 9), (3, 0)]));
        flatten_recipes(&mut recipes);
        let snapshot: Vec<Vec<i32>> = recipes
            .iter()
            .map(|r| r.entries().iter().map(|e| e.cid.raw()).collect())
            .collect();
        assert_eq!(flatten_recipes(&mut recipes), 0);
        let again: Vec<Vec<i32>> = recipes
            .iter()
            .map(|r| r.entries().iter().map(|e| e.cid.raw()).collect())
            .collect();
        assert_eq!(snapshot, again);
    }

    #[test]
    fn depth_two_multi_version_settlement() {
        // The macos scenario over four versions with depth 2:
        // chunk A in V1+V3 (skips V2), chunk B in V1 only.
        let mut recipes = RecipeStore::new();
        recipes.insert(recipe_with(1, &[(1, 0), (2, 0)])); // A=1, B=2
        recipes.insert(recipe_with(2, &[]));
        // End of V2: nothing demoted yet (depth 2), A and B still in history.
        update_previous_recipes(
            &mut recipes,
            VersionId::new(2),
            &HashMap::new(),
            &ActivePool::new(1024),
            2,
        );
        assert!(recipes.get(VersionId::new(1)).unwrap().entries()[0]
            .cid
            .is_active());

        // V3 contains A again; at its end, B (absent from V2 and V3) is
        // demoted to archival container 9.
        recipes.insert(recipe_with(3, &[(1, 0)]));
        let mut moved = HashMap::new();
        moved.insert(fp(2), ContainerId::new(9));
        let pool = pool_seen_in(3, &[1]);
        update_previous_recipes(&mut recipes, VersionId::new(3), &moved, &pool, 2);

        let r1 = recipes.get(VersionId::new(1)).unwrap();
        assert_eq!(
            r1.entries()[0].cid,
            Cid::chained(VersionId::new(3)),
            "A chains to V3"
        );
        assert_eq!(
            r1.entries()[1].cid,
            Cid::archival(ContainerId::new(9)),
            "B archived"
        );

        // Resolution: A resolves through V3 to the pool; B to container 9.
        let pool_cid = pool.locate(&fp(1)).unwrap();
        let plan = plan(&recipes, &pool, 1).unwrap();
        assert_eq!(
            plan[0].container,
            ContainerId::new(ACTIVE_ID_BASE + pool_cid)
        );
        assert_eq!(plan[1].container, ContainerId::new(9));
    }

    #[test]
    fn resolve_follows_chain_to_archival() {
        let mut recipes = RecipeStore::new();
        recipes.insert(recipe_with(1, &[(1, -2)]));
        recipes.insert(recipe_with(2, &[(1, 17)]));
        let pool = ActivePool::new(1024);
        assert_eq!(
            plan(&recipes, &pool, 1).unwrap(),
            [RestoreEntry::new(fp(1), 100, ContainerId::new(17))]
        );
    }

    #[test]
    fn resolve_active_entry_via_pool() {
        let mut recipes = RecipeStore::new();
        recipes.insert(recipe_with(1, &[(1, 0)]));
        let mut pool = ActivePool::new(1024);
        let pool_cid = pool.add(fp(1), b"hot", VersionId::new(1), 0);
        let plan = plan(&recipes, &pool, 1).unwrap();
        assert_eq!(
            plan[0].container,
            ContainerId::new(ACTIVE_ID_BASE + pool_cid)
        );
    }

    #[test]
    fn resolve_errors_surface() {
        let mut recipes = RecipeStore::new();
        recipes.insert(recipe_with(1, &[(1, 0)]));
        let pool = ActivePool::new(1024);
        assert_eq!(
            resolve_error(&recipes, &pool, 1),
            ResolveError::NotInPool(fp(1))
        );
        assert!(matches!(
            plan(&recipes, &pool, 9),
            Err(HiDeStoreError::UnknownVersion(v)) if v == VersionId::new(9)
        ));
        // Chain to a recipe that lacks the chunk.
        let mut recipes = RecipeStore::new();
        recipes.insert(recipe_with(1, &[(1, -2)]));
        recipes.insert(recipe_with(2, &[(7, 3)]));
        assert!(matches!(
            resolve_error(&recipes, &pool, 1),
            ResolveError::BrokenChain { .. }
        ));
    }

    #[test]
    fn resolve_detects_multi_hop_cycle() {
        let mut recipes = RecipeStore::new();
        // Corrupt: V1 chains to V3, whose entry chains *backwards* to V2,
        // whose entry chains to V3 again — a cycle no single hop closes.
        recipes.insert(recipe_with(1, &[(1, -3)]));
        recipes.insert(recipe_with(2, &[(1, -3)]));
        recipes.insert(recipe_with(3, &[(1, -2)]));
        let pool = ActivePool::new(1024);
        assert!(matches!(
            resolve_error(&recipes, &pool, 1),
            ResolveError::BrokenChain { .. }
        ));
    }

    #[test]
    fn resolve_rejects_a_first_hop_to_an_older_version() {
        let mut recipes = RecipeStore::new();
        // Corrupt: V2's entry chains back to V1, which does hold the chunk.
        recipes.insert(recipe_with(1, &[(1, 17)]));
        recipes.insert(recipe_with(2, &[(1, -1)]));
        let pool = ActivePool::new(1024);
        assert_eq!(
            resolve_error(&recipes, &pool, 2),
            ResolveError::BrokenChain {
                fingerprint: fp(1),
                version: VersionId::new(1),
            }
        );
        // The same hop from an older version's point of view is fine.
        let plan = plan(&recipes, &pool, 1).unwrap();
        assert_eq!(plan[0].container, ContainerId::new(17));
    }

    #[test]
    fn walk_records_a_backward_hop_and_goes_on() {
        let mut recipes = RecipeStore::new();
        recipes.insert(recipe_with(1, &[(1, 17)]));
        recipes.insert(recipe_with(2, &[(1, -1)]));
        let pool = ActivePool::new(1024);
        let mut walker = ChainWalker::new(&recipes, &pool);
        let entry = recipes.get(VersionId::new(2)).unwrap().entries()[0];
        let end = walker.walk(VersionId::new(2), &entry);
        assert_eq!(end, Ok(Location::Archival(ContainerId::new(17))));
        assert_eq!(
            walker.backward_hops(),
            [(VersionId::new(2), VersionId::new(1))]
        );
        assert_eq!(
            walker.plan_container(fp(1), end),
            Err(ResolveError::BrokenChain {
                fingerprint: fp(1),
                version: VersionId::new(1),
            })
        );
        // The next walk starts with no hops recorded.
        let entry = recipes.get(VersionId::new(1)).unwrap().entries()[0];
        let end = walker.walk(VersionId::new(1), &entry);
        assert!(walker.backward_hops().is_empty());
        assert_eq!(walker.plan_container(fp(1), end), Ok(ContainerId::new(17)));
    }

    #[test]
    fn walk_stops_on_a_revisit() {
        let mut recipes = RecipeStore::new();
        // V1 → V3 → V2 (backward) → V3 again.
        recipes.insert(recipe_with(1, &[(1, -3)]));
        recipes.insert(recipe_with(2, &[(1, -3)]));
        recipes.insert(recipe_with(3, &[(1, -2)]));
        let pool = ActivePool::new(1024);
        let mut walker = ChainWalker::new(&recipes, &pool);
        let entry = recipes.get(VersionId::new(1)).unwrap().entries()[0];
        assert_eq!(
            walker.walk(VersionId::new(1), &entry),
            Err(WalkError::Cycle(VersionId::new(3)))
        );
        assert_eq!(
            walker.backward_hops(),
            [(VersionId::new(3), VersionId::new(2))]
        );
    }

    #[test]
    fn quarantined_cause_names_the_artifact_behind_a_walk() {
        let entry = |artifact| QuarantineEntry {
            artifact,
            path: std::path::PathBuf::new(),
            reason: String::new(),
        };
        let quarantine = [
            entry(QuarantinedArtifact::ArchivalContainer(ContainerId::new(7))),
            entry(QuarantinedArtifact::Recipe(VersionId::new(3))),
            entry(QuarantinedArtifact::ActiveContainer(2)),
            entry(QuarantinedArtifact::ActiveContainer(4)),
        ];
        let cause = |end| quarantined_cause(&quarantine, &end);
        assert_eq!(
            cause(Ok(Location::Archival(ContainerId::new(7)))),
            Some(QuarantinedArtifact::ArchivalContainer(ContainerId::new(7)))
        );
        assert_eq!(cause(Ok(Location::Archival(ContainerId::new(8)))), None);
        assert_eq!(cause(Ok(Location::Pool(2))), None);
        assert_eq!(
            cause(Err(WalkError::MissingRecipe(VersionId::new(3)))),
            Some(QuarantinedArtifact::Recipe(VersionId::new(3)))
        );
        assert_eq!(
            cause(Err(WalkError::MissingRecipe(VersionId::new(4)))),
            None
        );
        assert_eq!(
            cause(Err(WalkError::NotInPool)),
            Some(QuarantinedArtifact::ActiveContainer(2))
        );
        assert_eq!(cause(Err(WalkError::BrokenAt(VersionId::new(3)))), None);
    }

    #[test]
    fn plan_names_a_quarantined_recipe_before_any_other_error() {
        // V3's recipe was pulled; V1 chains through it, V2 does not.
        let mut recipes = RecipeStore::new();
        recipes.insert(recipe_with(1, &[(1, -3), (2, 0)]));
        recipes.insert(recipe_with(2, &[(5, 17)]));
        let quarantine = [QuarantineEntry {
            artifact: QuarantinedArtifact::Recipe(VersionId::new(3)),
            path: std::path::PathBuf::new(),
            reason: String::new(),
        }];
        let pool = ActivePool::new(1024);
        let lost = |v: u32| match build_plan(&recipes, &pool, &quarantine, VersionId::new(v)) {
            Err(HiDeStoreError::PartialRestore {
                version,
                quarantined,
            }) => {
                assert_eq!(version, VersionId::new(v));
                quarantined
            }
            other => panic!("V{v}: expected a partial restore, got {other:?}"),
        };
        // V1's second entry is also absent from the pool; the lost recipe
        // is named instead of that error.
        assert_eq!(lost(1), [QuarantinedArtifact::Recipe(VersionId::new(3))]);
        assert_eq!(lost(3), [QuarantinedArtifact::Recipe(VersionId::new(3))]);
        assert!(build_plan(&recipes, &pool, &quarantine, VersionId::new(2)).is_ok());
    }

    #[test]
    fn resolve_detects_self_loop() {
        let mut recipes = RecipeStore::new();
        // Corrupt: V2's entry chains to itself.
        recipes.insert(recipe_with(1, &[(1, -2)]));
        recipes.insert(recipe_with(2, &[(1, -2)]));
        let pool = ActivePool::new(1024);
        assert!(matches!(
            resolve_error(&recipes, &pool, 1),
            ResolveError::BrokenChain { .. }
        ));
    }
}
