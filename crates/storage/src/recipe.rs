//! Backup recipes: the per-version chunk lists used to restore data.
//!
//! A recipe entry is 28 bytes, exactly as in the paper (§2.1): a 20-byte
//! fingerprint, a 4-byte container ID and a 4-byte size. HiDeStore reuses the
//! container-ID field for its three-state encoding (§4.3/§4.4), modelled here
//! by [`Cid`]:
//!
//! * `cid > 0` — the chunk lives in archival container `cid`;
//! * `cid == 0` — the chunk is still in the active containers;
//! * `cid < 0` — the chunk's location is recorded in the recipe of version
//!   `-cid` (the recipes form a chain, flattened offline by Algorithm 1).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::path::{Path, PathBuf};

use hidestore_failpoint::Vfs;
use hidestore_hash::Fingerprint;
use hidestore_proto::wire::{ByteReader, ByteWriter, DecodeError};

use crate::container::ContainerId;
use crate::error::StorageError;
use crate::names::RepoFile;

/// Encoded size of one recipe entry in bytes (paper §2.1).
pub const RECIPE_ENTRY_LEN: usize = 28;

const MAGIC: &[u8; 4] = b"HDSR";

/// A backup version number, starting at 1 for the first backup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VersionId(u32);

impl VersionId {
    /// Creates a version ID.
    ///
    /// # Panics
    ///
    /// Panics if `v == 0`; versions are 1-based so they can be negated into
    /// the [`Cid`] encoding.
    pub fn new(v: u32) -> Self {
        assert!(v != 0, "version ids are 1-based");
        VersionId(v)
    }

    /// The raw number (always > 0).
    pub fn get(self) -> u32 {
        self.0
    }

    /// The version before this one, if any.
    pub fn prev(self) -> Option<VersionId> {
        (self.0 > 1).then(|| VersionId(self.0 - 1))
    }

    /// The version after this one.
    pub fn next(self) -> VersionId {
        VersionId(self.0 + 1)
    }
}

impl fmt::Display for VersionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "V{}", self.0)
    }
}

/// The container-ID field of a recipe entry, with HiDeStore's three-state
/// sign encoding.
///
/// # Examples
///
/// ```
/// use hidestore_storage::{Cid, ContainerId, VersionId};
///
/// let a = Cid::archival(ContainerId::new(4));
/// assert_eq!(a.as_archival(), Some(ContainerId::new(4)));
/// let c = Cid::chained(VersionId::new(4));
/// assert_eq!(c.as_chained(), Some(VersionId::new(4)));
/// assert!(Cid::ACTIVE.is_active());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cid(i32);

impl Cid {
    /// The chunk is still in the active containers (HiDeStore only).
    pub const ACTIVE: Cid = Cid(0);

    /// The chunk lives in archival container `id`.
    pub fn archival(id: ContainerId) -> Self {
        Cid(id.get() as i32)
    }

    /// The chunk's location is recorded in the recipe of `version`.
    pub fn chained(version: VersionId) -> Self {
        Cid(-(version.get() as i32))
    }

    /// Raw signed value as stored on disk.
    pub fn raw(self) -> i32 {
        self.0
    }

    /// Builds from a raw signed value.
    pub fn from_raw(raw: i32) -> Self {
        Cid(raw)
    }

    /// Archival container, if `cid > 0`.
    pub fn as_archival(self) -> Option<ContainerId> {
        (self.0 > 0).then(|| ContainerId::new(self.0 as u32))
    }

    /// Chained version, if `cid < 0`.
    pub fn as_chained(self) -> Option<VersionId> {
        (self.0 < 0).then(|| VersionId::new((-self.0) as u32))
    }

    /// Whether the chunk is in the active containers.
    pub fn is_active(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Cid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            0 => f.write_str("active"),
            n if n > 0 => write!(f, "container {n}"),
            n => write!(f, "see V{}", -n),
        }
    }
}

/// One 28-byte recipe entry: fingerprint, size, container reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecipeEntry {
    /// Chunk fingerprint.
    pub fingerprint: Fingerprint,
    /// Chunk size in bytes.
    pub size: u32,
    /// Container reference (three-state for HiDeStore, always archival for
    /// baseline systems).
    pub cid: Cid,
}

impl RecipeEntry {
    /// Creates an entry.
    pub fn new(fingerprint: Fingerprint, size: u32, cid: Cid) -> Self {
        RecipeEntry {
            fingerprint,
            size,
            cid,
        }
    }

    fn encode_into(&self, w: &mut ByteWriter) {
        w.raw(self.fingerprint.as_bytes());
        w.u32(self.size);
        w.u32(self.cid.raw().cast_unsigned());
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(RecipeEntry {
            fingerprint: Fingerprint::from_bytes(r.array()?),
            size: r.u32()?,
            cid: Cid::from_raw(r.u32()?.cast_signed()),
        })
    }
}

/// The recipe of one backup version: the ordered chunk list of the stream.
///
/// # Examples
///
/// ```
/// use hidestore_storage::{Cid, ContainerId, Recipe, RecipeEntry, VersionId};
/// use hidestore_hash::Fingerprint;
///
/// let mut recipe = Recipe::new(VersionId::new(1));
/// recipe.push(RecipeEntry::new(
///     Fingerprint::of(b"chunk"),
///     5,
///     Cid::archival(ContainerId::new(1)),
/// ));
/// assert_eq!(recipe.total_bytes(), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recipe {
    version: VersionId,
    entries: Vec<RecipeEntry>,
    total_bytes: u64,
}

impl Recipe {
    /// Creates an empty recipe for `version`.
    pub fn new(version: VersionId) -> Self {
        Recipe {
            version,
            entries: Vec::new(),
            total_bytes: 0,
        }
    }

    /// The version this recipe restores.
    pub fn version(&self) -> VersionId {
        self.version
    }

    /// Appends an entry.
    pub fn push(&mut self, entry: RecipeEntry) {
        self.total_bytes += entry.size as u64;
        self.entries.push(entry);
    }

    /// The ordered entries.
    pub fn entries(&self) -> &[RecipeEntry] {
        &self.entries
    }

    /// Mutable access for recipe-update passes (§4.3).
    pub fn entries_mut(&mut self) -> &mut [RecipeEntry] {
        &mut self.entries
    }

    /// Number of chunks in the stream.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the recipe has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total logical bytes of the backup stream.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Size of this recipe on disk (metadata overhead accounting, §5.2.3).
    pub fn encoded_len(&self) -> usize {
        12 + self.entries.len() * RECIPE_ENTRY_LEN
    }

    /// Serializes: magic `HDSR`, u32 version, u32 entry count, then entries.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(self.encoded_len());
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Appends [`Recipe::encode`]'s output to `w` (see
    /// [`Container::encode_into`](crate::Container::encode_into)).
    pub fn encode_into(&self, w: &mut ByteWriter) {
        w.raw(MAGIC);
        w.u32(self.version.get());
        w.len_u32(self.entries.len());
        for e in &self.entries {
            e.encode_into(w);
        }
    }

    /// Parses the [`Recipe::encode`] format.
    ///
    /// # Errors
    ///
    /// Returns a message describing the structural problem.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        let malformed = |e| format!("malformed recipe: {e}");
        let mut r = ByteReader::new(bytes);
        if r.array().map_err(malformed)? != *MAGIC {
            return Err("bad recipe magic".into());
        }
        let version = r.u32().map_err(malformed)?;
        if version == 0 {
            return Err("recipe version 0 is invalid".into());
        }
        let count = r
            .count_within("recipe entries", RECIPE_ENTRY_LEN)
            .map_err(malformed)?;
        let mut recipe = Recipe::new(VersionId::new(version));
        recipe.entries.reserve_exact(count);
        for _ in 0..count {
            recipe.push(RecipeEntry::decode(&mut r).map_err(malformed)?);
        }
        r.finish().map_err(malformed)?;
        Ok(recipe)
    }
}

/// Holds the recipes of all retained backup versions. A repository's
/// journaled save writes them as `recipes/r<version>.rcp`;
/// [`RecipeStore::load_dir_report_with`] reads them back.
///
/// The store tracks what changed since the last save: every mutation path
/// marks the version it touches, so a save publishes only
/// [`RecipeStore::changed`] and removes only [`RecipeStore::removed`].
///
/// # Examples
///
/// ```
/// use hidestore_storage::{Recipe, RecipeStore, VersionId};
///
/// let mut store = RecipeStore::new();
/// store.insert(Recipe::new(VersionId::new(1)));
/// assert_eq!(store.latest_version(), Some(VersionId::new(1)));
/// assert_eq!(store.changed().count(), 1);
/// store.mark_saved();
/// assert_eq!(store.changed().count(), 0);
/// ```
#[derive(Debug, Default)]
pub struct RecipeStore {
    recipes: BTreeMap<VersionId, Recipe>,
    /// Retained versions inserted, mutably borrowed or repointed since the
    /// last save.
    dirty: BTreeSet<VersionId>,
    /// Versions removed since the last save and not inserted again.
    removed: BTreeSet<VersionId>,
}

impl RecipeStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces) a recipe.
    pub fn insert(&mut self, recipe: Recipe) {
        let version = recipe.version();
        self.recipes.insert(version, recipe);
        self.dirty.insert(version);
        self.removed.remove(&version);
    }

    /// Fetches a recipe.
    pub fn get(&self, version: VersionId) -> Option<&Recipe> {
        self.recipes.get(&version)
    }

    /// Mutable access for the recipe-update passes. The version counts as
    /// changed whether or not the caller edits it.
    pub fn get_mut(&mut self, version: VersionId) -> Option<&mut Recipe> {
        let recipe = self.recipes.get_mut(&version)?;
        self.dirty.insert(version);
        Some(recipe)
    }

    /// Removes a recipe (when expiring a version).
    pub fn remove(&mut self, version: VersionId) -> Option<Recipe> {
        let recipe = self.recipes.remove(&version)?;
        self.dirty.remove(&version);
        self.removed.insert(version);
        Some(recipe)
    }

    /// The newest retained version.
    pub fn latest_version(&self) -> Option<VersionId> {
        self.recipes.keys().next_back().copied()
    }

    /// Iterates recipes in version order.
    pub fn iter(&self) -> impl Iterator<Item = &Recipe> {
        self.recipes.values()
    }

    /// Retained versions in ascending order.
    pub fn versions(&self) -> Vec<VersionId> {
        self.recipes.keys().copied().collect()
    }

    /// Number of retained recipes.
    pub fn len(&self) -> usize {
        self.recipes.len()
    }

    /// Whether no recipes are retained.
    pub fn is_empty(&self) -> bool {
        self.recipes.is_empty()
    }

    /// Repoints every archival entry whose chunk moved — `moved` maps a
    /// fingerprint to its new container — and returns how many entries
    /// changed. Active and chained entries are left alone; only recipes
    /// with a repointed entry count as changed.
    pub fn relocate_archival(&mut self, moved: &HashMap<Fingerprint, ContainerId>) -> u64 {
        let mut updated = 0;
        for (&version, recipe) in &mut self.recipes {
            let before = updated;
            for entry in recipe.entries_mut() {
                if let (Some(at), Some(&home)) =
                    (entry.cid.as_archival(), moved.get(&entry.fingerprint))
                {
                    if at != home {
                        entry.cid = Cid::archival(home);
                        updated += 1;
                    }
                }
            }
            if updated > before {
                self.dirty.insert(version);
            }
        }
        updated
    }

    /// The recipes inserted, mutably borrowed or repointed since the last
    /// [`RecipeStore::mark_saved`], in version order.
    pub fn changed(&self) -> impl Iterator<Item = &Recipe> {
        self.dirty.iter().filter_map(|v| self.recipes.get(v))
    }

    /// The versions removed since the last [`RecipeStore::mark_saved`], in
    /// ascending order.
    pub fn removed(&self) -> impl Iterator<Item = VersionId> + '_ {
        self.removed.iter().copied()
    }

    /// Forgets the tracked changes: the caller has persisted the store.
    pub fn mark_saved(&mut self) {
        self.dirty.clear();
        self.removed.clear();
    }

    /// Loads every `r<version>.rcp` under `dir` through `vfs`, collecting
    /// per-file failures instead of aborting on the first corrupt recipe:
    /// one bad file does not block opening the other versions.
    ///
    /// # Errors
    ///
    /// Fails only if the directory itself cannot be listed; per-file
    /// problems are reported in [`RecipeLoadReport::failed`]. The returned
    /// store has no tracked changes.
    pub fn load_dir_report_with<V: Vfs>(
        dir: impl AsRef<Path>,
        vfs: &V,
    ) -> Result<RecipeLoadReport, StorageError> {
        let mut report = RecipeLoadReport {
            store: RecipeStore::new(),
            failed: Vec::new(),
            misnamed: Vec::new(),
        };
        let dir = dir.as_ref();
        if !vfs.exists(dir) {
            return Ok(report);
        }
        for path in vfs.read_dir(dir)? {
            let Some(name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
                continue;
            };
            if RepoFile::Recipe.matches(&name) {
                match vfs.read(&path) {
                    Ok(bytes) => match Recipe::decode(&bytes) {
                        Ok(recipe) => {
                            let version = recipe.version();
                            if name != RepoFile::Recipe.name(version.get()) {
                                report.misnamed.push((path, version));
                            }
                            report.store.insert(recipe);
                        }
                        Err(reason) => report.failed.push((path, StorageError::Corrupt(reason))),
                    },
                    Err(err) => report.failed.push((path, StorageError::from(err))),
                }
            }
        }
        report.store.mark_saved();
        Ok(report)
    }
}

/// Outcome of [`RecipeStore::load_dir_report_with`]: the recipes that loaded,
/// plus the files that did not and why — so a degraded open can quarantine
/// the casualties and proceed with the rest.
#[derive(Debug)]
pub struct RecipeLoadReport {
    /// The successfully loaded recipes.
    pub store: RecipeStore,
    /// Recipe files that could not be read or decoded.
    pub failed: Vec<(PathBuf, StorageError)>,
    /// Recipe files that loaded but are not named `r<version>.rcp` after
    /// the version they hold, with that version.
    pub misnamed: Vec<(PathBuf, VersionId)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidestore_failpoint::RealVfs;
    use std::fs;

    fn fp(n: u64) -> Fingerprint {
        Fingerprint::synthetic(n)
    }

    #[test]
    fn cid_three_states() {
        let archival = Cid::archival(ContainerId::new(17));
        assert_eq!(archival.raw(), 17);
        assert_eq!(archival.as_archival(), Some(ContainerId::new(17)));
        assert_eq!(archival.as_chained(), None);
        assert!(!archival.is_active());

        let chained = Cid::chained(VersionId::new(4));
        assert_eq!(chained.raw(), -4);
        assert_eq!(chained.as_chained(), Some(VersionId::new(4)));
        assert_eq!(chained.as_archival(), None);

        assert!(Cid::ACTIVE.is_active());
        assert_eq!(Cid::ACTIVE.raw(), 0);
    }

    #[test]
    fn cid_display() {
        assert_eq!(Cid::ACTIVE.to_string(), "active");
        assert_eq!(
            Cid::archival(ContainerId::new(3)).to_string(),
            "container 3"
        );
        assert_eq!(Cid::chained(VersionId::new(2)).to_string(), "see V2");
    }

    #[test]
    fn version_prev_next() {
        let v1 = VersionId::new(1);
        assert_eq!(v1.prev(), None);
        assert_eq!(v1.next(), VersionId::new(2));
        assert_eq!(VersionId::new(5).prev(), Some(VersionId::new(4)));
        assert_eq!(v1.to_string(), "V1");
    }

    #[test]
    fn recipe_accumulates_bytes() {
        let mut r = Recipe::new(VersionId::new(1));
        r.push(RecipeEntry::new(fp(1), 100, Cid::ACTIVE));
        r.push(RecipeEntry::new(
            fp(2),
            200,
            Cid::archival(ContainerId::new(1)),
        ));
        assert_eq!(r.total_bytes(), 300);
        assert_eq!(r.len(), 2);
        assert_eq!(r.encoded_len(), 12 + 2 * RECIPE_ENTRY_LEN);
    }

    #[test]
    fn recipe_encode_decode_round_trip() {
        let mut r = Recipe::new(VersionId::new(9));
        for i in 0..50u64 {
            let cid = match i % 3 {
                0 => Cid::archival(ContainerId::new(i as u32 + 1)),
                1 => Cid::ACTIVE,
                _ => Cid::chained(VersionId::new(i as u32 + 1)),
            };
            r.push(RecipeEntry::new(fp(i), (i * 17 % 8000) as u32, cid));
        }
        let back = Recipe::decode(&r.encode()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn recipe_decode_rejects_garbage() {
        assert!(Recipe::decode(b"").is_err());
        assert!(Recipe::decode(b"XXXX\x01\0\0\0\0\0\0\0").is_err());
        let mut r = Recipe::new(VersionId::new(1));
        r.push(RecipeEntry::new(fp(1), 4, Cid::ACTIVE));
        let enc = r.encode();
        assert!(Recipe::decode(&enc[..enc.len() - 1]).is_err());
    }

    #[test]
    fn recipe_entry_size_is_28_bytes() {
        let mut w = ByteWriter::new();
        RecipeEntry::new(fp(1), 5, Cid::ACTIVE).encode_into(&mut w);
        assert_eq!(w.into_bytes().len(), RECIPE_ENTRY_LEN);
    }

    #[test]
    fn store_latest_and_oldest() {
        let mut s = RecipeStore::new();
        assert!(s.latest_version().is_none());
        for v in [2u32, 1, 3] {
            s.insert(Recipe::new(VersionId::new(v)));
        }
        assert_eq!(s.latest_version(), Some(VersionId::new(3)));
        assert_eq!(s.versions().first(), Some(&VersionId::new(1)));
        assert_eq!(s.versions().len(), 3);
        s.remove(VersionId::new(1));
        assert_eq!(s.versions().first(), Some(&VersionId::new(2)));
    }

    #[test]
    fn relocate_archival_repoints_only_archival_entries_that_moved() {
        let c = |id| Cid::archival(ContainerId::new(id));
        let mut s = RecipeStore::new();
        let mut r = Recipe::new(VersionId::new(1));
        r.push(RecipeEntry::new(fp(1), 4, c(1))); // moves 1 -> 7
        r.push(RecipeEntry::new(fp(2), 4, c(2))); // already home
        r.push(RecipeEntry::new(fp(3), 4, Cid::ACTIVE)); // not archival
        r.push(RecipeEntry::new(fp(4), 4, c(1))); // did not move
        s.insert(r);
        let moved = HashMap::from([
            (fp(1), ContainerId::new(7)),
            (fp(2), ContainerId::new(2)),
            (fp(3), ContainerId::new(7)),
        ]);
        assert_eq!(s.relocate_archival(&moved), 1);
        let cids: Vec<Cid> = s
            .get(VersionId::new(1))
            .unwrap()
            .entries()
            .iter()
            .map(|e| e.cid)
            .collect();
        assert_eq!(cids, vec![c(7), c(2), Cid::ACTIVE, c(1)]);
        assert_eq!(s.relocate_archival(&moved), 0, "idempotent");
    }

    #[test]
    fn store_tracks_changes_until_saved() {
        let v = VersionId::new;
        let mut s = RecipeStore::new();
        for n in 1..=3 {
            s.insert(Recipe::new(v(n)));
        }
        let changed = |s: &RecipeStore| s.changed().map(Recipe::version).collect::<Vec<_>>();
        assert_eq!(changed(&s), [v(1), v(2), v(3)]);
        s.mark_saved();
        assert_eq!(changed(&s), []);

        // A mutable borrow counts as a change even without an edit; a
        // lookup does not.
        let _ = s.get(v(1));
        let _ = s.get_mut(v(2));
        assert!(s.get_mut(v(9)).is_none());
        s.remove(v(3));
        assert_eq!(changed(&s), [v(2)]);
        assert_eq!(s.removed().collect::<Vec<_>>(), [v(3)]);

        // Removing a changed version leaves only the removal; inserting a
        // removed one again leaves only the change.
        s.remove(v(2));
        s.insert(Recipe::new(v(3)));
        assert_eq!(changed(&s), [v(3)]);
        assert_eq!(s.removed().collect::<Vec<_>>(), [v(2)]);
        s.mark_saved();
        assert_eq!((changed(&s), s.removed().count()), (vec![], 0));
    }

    #[test]
    fn relocate_archival_marks_only_recipes_it_repointed() {
        let c = |id| Cid::archival(ContainerId::new(id));
        let mut s = RecipeStore::new();
        for (version, cid) in [(1, c(1)), (2, c(2)), (3, Cid::ACTIVE)] {
            let mut r = Recipe::new(VersionId::new(version));
            r.push(RecipeEntry::new(fp(u64::from(version)), 4, cid));
            s.insert(r);
        }
        s.mark_saved();
        let moved = HashMap::from([
            (fp(1), ContainerId::new(7)),
            (fp(2), ContainerId::new(2)),
            (fp(3), ContainerId::new(7)),
        ]);
        assert_eq!(s.relocate_archival(&moved), 1);
        let changed: Vec<VersionId> = s.changed().map(Recipe::version).collect();
        assert_eq!(changed, [VersionId::new(1)]);
    }

    /// Writes `r1.rcp`..`r3.rcp` under a fresh `dir`, one entry each.
    fn write_three_recipes(dir: &Path) {
        let _ = fs::remove_dir_all(dir);
        fs::create_dir_all(dir).unwrap();
        for v in 1..=3u32 {
            let mut r = Recipe::new(VersionId::new(v));
            r.push(RecipeEntry::new(fp(v as u64), v * 10, Cid::ACTIVE));
            fs::write(dir.join(format!("r{v}.rcp")), r.encode()).unwrap();
        }
    }

    #[test]
    fn load_missing_dir_is_empty() {
        let report =
            RecipeStore::load_dir_report_with("/definitely/not/a/real/dir", &RealVfs).unwrap();
        assert!(report.store.is_empty());
        assert!(report.failed.is_empty());
    }

    #[test]
    fn one_bad_recipe_does_not_block_the_rest() {
        let dir =
            std::env::temp_dir().join(format!("hidestore-recipes-bad-{}", std::process::id()));
        write_three_recipes(&dir);
        // Tear one recipe in half: the other two still load.
        let bytes = fs::read(dir.join("r2.rcp")).unwrap();
        fs::write(dir.join("r2.rcp"), &bytes[..bytes.len() - 5]).unwrap();
        let report = RecipeStore::load_dir_report_with(&dir, &RealVfs).unwrap();
        assert_eq!(
            report.store.versions(),
            vec![VersionId::new(1), VersionId::new(3)]
        );
        assert_eq!(
            report.store.get(VersionId::new(3)).unwrap().entries()[0].size,
            30
        );
        assert_eq!(report.failed.len(), 1);
        assert!(report.failed[0].0.ends_with("r2.rcp"));
        assert_eq!(report.store.changed().count(), 0, "a loaded store is clean");
        assert!(report.misnamed.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recipe_loaded_under_another_name_is_reported_misnamed() {
        let dir =
            std::env::temp_dir().join(format!("hidestore-recipes-misnamed-{}", std::process::id()));
        write_three_recipes(&dir);
        fs::rename(dir.join("r3.rcp"), dir.join("r9.rcp")).unwrap();
        let report = RecipeStore::load_dir_report_with(&dir, &RealVfs).unwrap();
        assert_eq!(report.store.len(), 3);
        assert!(report.store.get(VersionId::new(3)).is_some());
        assert_eq!(report.misnamed, [(dir.join("r9.rcp"), VersionId::new(3))]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn version_zero_panics() {
        VersionId::new(0);
    }
}
