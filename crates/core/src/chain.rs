//! Recipe-chain maintenance (§4.3) and Algorithm 1.
//!
//! HiDeStore writes each version's recipe with every CID = 0 ("in active
//! containers"). When the *next* version demotes cold chunks, only the
//! previous recipe(s) are updated: demoted chunks get their archival CID,
//! still-hot chunks get a negative CID pointing at the newer recipe that now
//! tracks them. Old recipes therefore form a chain toward the newest one;
//! [`flatten_recipes`] (the paper's Algorithm 1) collapses the chain offline
//! so restores of old versions don't walk multiple recipes.

use std::collections::{HashMap, HashSet};

use hidestore_hash::Fingerprint;
use hidestore_storage::{Cid, ContainerId, RecipeEntry, RecipeStore, VersionId};

use crate::active::ActivePool;
use crate::composite::ACTIVE_ID_BASE;

/// Updates the recipes of the last `depth` versions after version `current`
/// demoted the cold set `moved` to archival containers (§4.3, Figure 7).
///
/// For every still-`ACTIVE` entry of those recipes:
/// * demoted chunk → its archival container ID;
/// * chunk present in the current version → `chained(current)`;
/// * otherwise (possible only with history depth ≥ 2) → stays `ACTIVE`; it
///   will be settled when its history table expires.
///
/// Returns the number of entries modified.
pub fn update_previous_recipes(
    recipes: &mut RecipeStore,
    current: VersionId,
    moved: &HashMap<Fingerprint, ContainerId>,
    current_fingerprints: &HashSet<Fingerprint>,
    depth: usize,
) -> u64 {
    let mut updated = 0;
    let cur = current.get();
    let oldest = cur.saturating_sub(depth as u32).max(1);
    for w in oldest..cur {
        let Some(recipe) = recipes.get_mut(VersionId::new(w)) else {
            continue;
        };
        for entry in recipe.entries_mut() {
            if !entry.cid.is_active() {
                continue;
            }
            if let Some(&archival) = moved.get(&entry.fingerprint) {
                entry.cid = Cid::archival(archival);
                updated += 1;
            } else if current_fingerprints.contains(&entry.fingerprint) {
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
    /// A chain step did not contain the chunk it was supposed to.
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

/// Resolves every entry of `version`'s recipe to a physical container ID:
/// archival IDs pass through, `ACTIVE` entries are located in the pool (IDs
/// offset by [`ACTIVE_ID_BASE`]), and chains are followed recipe-to-recipe
/// (§4.4's three CID cases).
///
/// # Errors
///
/// Returns [`ResolveError`] if a chain or pool lookup fails — which would
/// indicate recipe corruption, not a user error.
pub fn resolve_plan(
    recipes: &RecipeStore,
    pool: &ActivePool,
    version: VersionId,
) -> Result<Vec<(Fingerprint, u32, ContainerId)>, ResolveError> {
    let recipe = recipes
        .get(version)
        .ok_or(ResolveError::MissingRecipe(version))?;
    // Lazily built per-version lookup maps for chain following.
    let mut maps: HashMap<VersionId, HashMap<Fingerprint, Cid>> = HashMap::new();
    let mut plan = Vec::with_capacity(recipe.len());
    for entry in recipe.entries() {
        let container = resolve_one(recipes, pool, &mut maps, version, entry)?;
        plan.push((entry.fingerprint, entry.size, container));
    }
    Ok(plan)
}

/// Resolves one entry of `version`'s recipe.
fn resolve_one(
    recipes: &RecipeStore,
    pool: &ActivePool,
    maps: &mut HashMap<VersionId, HashMap<Fingerprint, Cid>>,
    version: VersionId,
    entry: &RecipeEntry,
) -> Result<ContainerId, ResolveError> {
    let (fp, mut cid) = (entry.fingerprint, entry.cid);
    // Chains are finite: each hop, the first included, moves to a strictly
    // newer version. A corrupt recipe could point backwards and close a
    // multi-hop cycle, so the invariant is enforced, not assumed.
    let mut newest_hop = version.get();
    loop {
        if let Some(archival) = cid.as_archival() {
            return Ok(archival);
        }
        if cid.is_active() {
            let pool_cid = pool.locate(&fp).ok_or(ResolveError::NotInPool(fp))?;
            return Ok(ContainerId::new(ACTIVE_ID_BASE + pool_cid));
        }
        // Not archival, not active: the remaining state is chained.
        let Some(w) = cid.as_chained() else {
            return Err(ResolveError::BrokenChain {
                fingerprint: fp,
                version: VersionId::new(1),
            });
        };
        if w.get() <= newest_hop {
            return Err(ResolveError::BrokenChain {
                fingerprint: fp,
                version: w,
            });
        }
        newest_hop = w.get();
        if let std::collections::hash_map::Entry::Vacant(slot) = maps.entry(w) {
            let recipe = recipes.get(w).ok_or(ResolveError::MissingRecipe(w))?;
            slot.insert(
                recipe
                    .entries()
                    .iter()
                    .map(|e| (e.fingerprint, e.cid))
                    .collect(),
            );
        }
        cid = maps[&w]
            .get(&fp)
            .copied()
            .ok_or(ResolveError::BrokenChain {
                fingerprint: fp,
                version: w,
            })?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidestore_storage::Recipe;

    fn fp(n: u64) -> Fingerprint {
        Fingerprint::synthetic(n)
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
        let current: HashSet<Fingerprint> = [fp(1), fp(3)].into_iter().collect();
        let updated = update_previous_recipes(&mut recipes, VersionId::new(2), &moved, &current, 1);
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
            &HashSet::new(),
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
            &HashSet::new(),
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
        let current: HashSet<Fingerprint> = [fp(1)].into_iter().collect();
        update_previous_recipes(&mut recipes, VersionId::new(3), &moved, &current, 2);

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
        let mut pool = ActivePool::new(1024);
        let pool_cid = pool.add(fp(1), b"A");
        let plan = resolve_plan(&recipes, &pool, VersionId::new(1)).unwrap();
        assert_eq!(plan[0].2, ContainerId::new(ACTIVE_ID_BASE + pool_cid));
        assert_eq!(plan[1].2, ContainerId::new(9));
    }

    #[test]
    fn resolve_follows_chain_to_archival() {
        let mut recipes = RecipeStore::new();
        recipes.insert(recipe_with(1, &[(1, -2)]));
        recipes.insert(recipe_with(2, &[(1, 17)]));
        let pool = ActivePool::new(1024);
        let plan = resolve_plan(&recipes, &pool, VersionId::new(1)).unwrap();
        assert_eq!(plan, vec![(fp(1), 100, ContainerId::new(17))]);
    }

    #[test]
    fn resolve_active_entry_via_pool() {
        let mut recipes = RecipeStore::new();
        recipes.insert(recipe_with(1, &[(1, 0)]));
        let mut pool = ActivePool::new(1024);
        let pool_cid = pool.add(fp(1), b"hot");
        let plan = resolve_plan(&recipes, &pool, VersionId::new(1)).unwrap();
        assert_eq!(plan[0].2, ContainerId::new(ACTIVE_ID_BASE + pool_cid));
    }

    #[test]
    fn resolve_errors_surface() {
        let mut recipes = RecipeStore::new();
        recipes.insert(recipe_with(1, &[(1, 0)]));
        let pool = ActivePool::new(1024);
        assert_eq!(
            resolve_plan(&recipes, &pool, VersionId::new(1)),
            Err(ResolveError::NotInPool(fp(1)))
        );
        assert_eq!(
            resolve_plan(&recipes, &pool, VersionId::new(9)),
            Err(ResolveError::MissingRecipe(VersionId::new(9)))
        );
        // Chain to a recipe that lacks the chunk.
        let mut recipes = RecipeStore::new();
        recipes.insert(recipe_with(1, &[(1, -2)]));
        recipes.insert(recipe_with(2, &[(7, 3)]));
        assert!(matches!(
            resolve_plan(&recipes, &pool, VersionId::new(1)),
            Err(ResolveError::BrokenChain { .. })
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
            resolve_plan(&recipes, &pool, VersionId::new(1)),
            Err(ResolveError::BrokenChain { .. })
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
            resolve_plan(&recipes, &pool, VersionId::new(2)),
            Err(ResolveError::BrokenChain {
                fingerprint: fp(1),
                version: VersionId::new(1),
            })
        );
        // The same hop from an older version's point of view is fine.
        let plan = resolve_plan(&recipes, &pool, VersionId::new(1)).unwrap();
        assert_eq!(plan[0].2, ContainerId::new(17));
    }

    #[test]
    fn resolve_detects_self_loop() {
        let mut recipes = RecipeStore::new();
        // Corrupt: V2's entry chains to itself.
        recipes.insert(recipe_with(1, &[(1, -2)]));
        recipes.insert(recipe_with(2, &[(1, -2)]));
        let pool = ActivePool::new(1024);
        assert!(matches!(
            resolve_plan(&recipes, &pool, VersionId::new(1)),
            Err(ResolveError::BrokenChain { .. })
        ));
    }
}
