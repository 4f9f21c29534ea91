//! The tenant registry: validated ids → independent repositories through a
//! capacity-bounded LRU of live handles.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use hidestore_core::{HiDeStore, HiDeStoreConfig, HiDeStoreError, RepositoryHandle, CONFIG_FILE};
use hidestore_failpoint::{RealVfs, Vfs};
use hidestore_proto::TenantId;
use hidestore_storage::ContainerStore;

/// Subdirectory of a tenant root holding one repository per tenant.
pub const TENANTS_SUBDIR: &str = "tenants";

/// Per-tenant resource bounds. A zero field means unlimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantQuota {
    /// Maximum logical bytes across retained versions (0 = unlimited).
    pub max_bytes: u64,
    /// Maximum retained versions (0 = unlimited).
    pub max_versions: u64,
}

impl TenantQuota {
    /// No limits at all.
    pub const UNLIMITED: TenantQuota = TenantQuota {
        max_bytes: 0,
        max_versions: 0,
    };

    /// Admission check for a backup of `incoming_len` logical bytes,
    /// intended to run as the `check` closure of
    /// [`RepositoryHandle::write_checked`] — inside the writer lock,
    /// before anything mutates.
    ///
    /// # Errors
    ///
    /// [`HiDeStoreError::QuotaExceeded`] naming the limit that would be
    /// crossed. Nothing has been mutated when this returns.
    pub fn admit<S: ContainerStore>(
        &self,
        system: &HiDeStore<S>,
        incoming_len: u64,
    ) -> Result<(), HiDeStoreError> {
        if self.max_versions > 0 {
            let used = system.versions().len() as u64;
            if used >= self.max_versions {
                return Err(HiDeStoreError::QuotaExceeded {
                    what: "versions",
                    used,
                    limit: self.max_versions,
                });
            }
        }
        if self.max_bytes > 0 {
            let used: u64 = system
                .versions()
                .iter()
                .filter_map(|v| system.recipes().get(*v))
                .map(|recipe| recipe.total_bytes())
                .sum();
            if used.saturating_add(incoming_len) > self.max_bytes {
                return Err(HiDeStoreError::QuotaExceeded {
                    what: "bytes",
                    used,
                    limit: self.max_bytes,
                });
            }
        }
        Ok(())
    }
}

/// Why a tenant operation failed.
#[derive(Debug)]
pub enum TenantError {
    /// The tenant has no repository and the operation may not create one
    /// (read path, auto-creation disabled, or a legacy mount that only
    /// serves `default`).
    UnknownTenant(TenantId),
    /// The tenant's repository failed to open, create, or operate.
    Repo(HiDeStoreError),
    /// Filesystem work around the repositories (creating the tenant root,
    /// listing tenants) failed.
    Io(std::io::Error),
}

impl fmt::Display for TenantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TenantError::UnknownTenant(t) => write!(f, "unknown tenant {t:?}"),
            TenantError::Repo(e) => write!(f, "tenant repository error: {e}"),
            TenantError::Io(e) => write!(f, "tenant root I/O error: {e}"),
        }
    }
}

impl std::error::Error for TenantError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TenantError::Repo(e) => Some(e),
            TenantError::Io(e) => Some(e),
            TenantError::UnknownTenant(_) => None,
        }
    }
}

impl From<HiDeStoreError> for TenantError {
    fn from(e: HiDeStoreError) -> Self {
        TenantError::Repo(e)
    }
}

impl From<std::io::Error> for TenantError {
    fn from(e: std::io::Error) -> Self {
        TenantError::Io(e)
    }
}

/// How the registry maps tenant ids onto the filesystem.
#[derive(Debug, Clone)]
enum Mount {
    /// One pre-existing repository serving exactly the `default` tenant.
    Legacy(PathBuf),
    /// `<root>/tenants/<id>/`, one repository per tenant.
    Root(PathBuf),
}

/// Construction-time knobs for [`TenantRegistry`].
#[derive(Debug, Clone, Copy)]
pub struct RegistryOptions {
    /// Soft cap on concurrently live repository handles. When exceeded,
    /// idle handles are evicted least-recently-used first; handles still
    /// held by an in-flight request are never evicted, so the table can
    /// transiently exceed the cap under load. Clamped to at least 1.
    pub max_live: usize,
    /// Whether a backup against a tenant with no repository creates one
    /// from the template config. Read paths never create.
    pub auto_create: bool,
    /// Config for auto-created tenant repositories. Overridden by a
    /// `config` file at the tenant root, if present.
    pub template: HiDeStoreConfig,
    /// Quota applied to tenants without an explicit override.
    pub default_quota: TenantQuota,
}

impl Default for RegistryOptions {
    fn default() -> Self {
        RegistryOptions {
            max_live: 8,
            auto_create: true,
            template: HiDeStoreConfig::default(),
            default_quota: TenantQuota::UNLIMITED,
        }
    }
}

/// One live tenant: its repository handle plus the tenant-scoped locks
/// that make same-tenant operations safe without serializing other
/// tenants. Handed out as an `Arc` — the registry's eviction logic uses
/// the reference count to tell idle slots from busy ones.
pub struct TenantSlot<V: Vfs = RealVfs> {
    tenant: TenantId,
    handle: RepositoryHandle<V>,
    commit_gate: Mutex<()>,
}

impl<V: Vfs> TenantSlot<V> {
    /// The tenant this slot serves.
    pub fn tenant(&self) -> &TenantId {
        &self.tenant
    }

    /// The tenant's repository handle. Its writer lock is *this tenant's*
    /// writer lock — no other tenant contends on it.
    pub fn handle(&self) -> &RepositoryHandle<V> {
        &self.handle
    }

    /// Locks this tenant's resumable-commit gate, serializing the
    /// committed-check → commit → record sequence of idempotent backups
    /// against same-tenant retries only.
    pub fn commit_gate(&self) -> MutexGuard<'_, ()> {
        self.commit_gate.lock().unwrap_or_else(|e| e.into_inner())
    }
}

struct Inner<V: Vfs> {
    /// Live slots, least-recently-used first.
    live: Vec<(TenantId, Arc<TenantSlot<V>>)>,
    /// Explicit per-tenant quota overrides.
    quotas: BTreeMap<TenantId, TenantQuota>,
}

/// Maps validated tenant ids to independent repositories under one root,
/// opening handles lazily through a capacity-bounded LRU. See the crate
/// docs for the locking and eviction rules.
pub struct TenantRegistry<V: Vfs = RealVfs> {
    mount: Mount,
    options: RegistryOptions,
    /// Vfs used for registry-level filesystem work (tenant root creation,
    /// listing).
    root_vfs: V,
    /// Builds the Vfs each tenant's repository runs on. Fault-injection
    /// tests hand one tenant an armed [`hidestore_failpoint::FaultVfs`]
    /// and every other tenant a benign one, proving a poisoned tenant
    /// fast-fails alone.
    make_vfs: Box<dyn Fn(&TenantId) -> V + Send + Sync>,
    inner: Mutex<Inner<V>>,
    /// Rollbacks accumulated by handles that have since been evicted, so
    /// [`TenantRegistry::rollbacks`] survives eviction.
    retired_rollbacks: AtomicU64,
}

impl TenantRegistry<RealVfs> {
    /// Serves the single pre-existing repository at `dir` as exactly the
    /// `default` tenant — the single-repository deployment. Every other
    /// tenant id is [`TenantError::UnknownTenant`].
    ///
    /// # Errors
    ///
    /// [`TenantError::Repo`] when `dir` is not an initialized repository.
    pub fn open_legacy(
        dir: impl AsRef<Path>,
        options: RegistryOptions,
    ) -> Result<Self, TenantError> {
        Self::open_legacy_with(dir, options, RealVfs, |_| RealVfs)
    }

    /// Serves `root` as a tenant root: each tenant's repository lives at
    /// `<root>/tenants/<id>/`. The `tenants` directory is created if
    /// missing; a `config` file at `root` overrides the template for
    /// auto-created tenants.
    ///
    /// # Errors
    ///
    /// [`TenantError::Io`] when the tenant root cannot be created, or
    /// [`TenantError::Repo`] when the root config exists but is invalid.
    pub fn open_root(
        root: impl AsRef<Path>,
        options: RegistryOptions,
    ) -> Result<Self, TenantError> {
        Self::open_root_with(root, options, RealVfs, |_| RealVfs)
    }
}

impl<V: Vfs> TenantRegistry<V> {
    /// [`TenantRegistry::open_legacy`] with explicit vfs plumbing — the
    /// fault-injection entry point.
    ///
    /// # Errors
    ///
    /// As [`TenantRegistry::open_legacy`].
    pub fn open_legacy_with(
        dir: impl AsRef<Path>,
        options: RegistryOptions,
        root_vfs: V,
        make_vfs: impl Fn(&TenantId) -> V + Send + Sync + 'static,
    ) -> Result<Self, TenantError> {
        let dir = dir.as_ref().to_path_buf();
        // Fail fast on a directory that is not a repository: the legacy
        // mount never creates one.
        let template = HiDeStoreConfig::load_from_with(&dir, &root_vfs)?;
        Ok(TenantRegistry {
            mount: Mount::Legacy(dir),
            options: RegistryOptions {
                template,
                max_live: options.max_live.max(1),
                ..options
            },
            root_vfs,
            make_vfs: Box::new(make_vfs),
            inner: Mutex::new(Inner {
                live: Vec::new(),
                quotas: BTreeMap::new(),
            }),
            retired_rollbacks: AtomicU64::new(0),
        })
    }

    /// [`TenantRegistry::open_root`] with explicit vfs plumbing — the
    /// fault-injection entry point.
    ///
    /// # Errors
    ///
    /// As [`TenantRegistry::open_root`].
    pub fn open_root_with(
        root: impl AsRef<Path>,
        mut options: RegistryOptions,
        root_vfs: V,
        make_vfs: impl Fn(&TenantId) -> V + Send + Sync + 'static,
    ) -> Result<Self, TenantError> {
        let root = root.as_ref().to_path_buf();
        root_vfs.create_dir_all(&root.join(TENANTS_SUBDIR))?;
        if root_vfs.exists(&root.join(CONFIG_FILE)) {
            options.template = HiDeStoreConfig::load_from_with(&root, &root_vfs)?;
        }
        options.max_live = options.max_live.max(1);
        Ok(TenantRegistry {
            mount: Mount::Root(root),
            options,
            root_vfs,
            make_vfs: Box::new(make_vfs),
            inner: Mutex::new(Inner {
                live: Vec::new(),
                quotas: BTreeMap::new(),
            }),
            retired_rollbacks: AtomicU64::new(0),
        })
    }

    fn lock(&self) -> MutexGuard<'_, Inner<V>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Whether this registry is a legacy single-repository mount.
    pub fn is_legacy(&self) -> bool {
        matches!(self.mount, Mount::Legacy(_))
    }

    /// Soft cap on live handles.
    pub fn max_live(&self) -> usize {
        self.options.max_live
    }

    /// The directory a tenant's repository lives in (whether or not it
    /// exists yet).
    ///
    /// # Errors
    ///
    /// [`TenantError::UnknownTenant`] for a non-default tenant on a
    /// legacy mount, which has no directory to offer.
    pub fn tenant_dir(&self, tenant: &TenantId) -> Result<PathBuf, TenantError> {
        match &self.mount {
            Mount::Legacy(dir) => {
                if tenant.is_default() {
                    Ok(dir.clone())
                } else {
                    Err(TenantError::UnknownTenant(tenant.clone()))
                }
            }
            Mount::Root(root) => Ok(root.join(TENANTS_SUBDIR).join(tenant.as_str())),
        }
    }

    /// The live slot for `tenant`, opening its repository if needed. Never
    /// creates a repository — an absent tenant is
    /// [`TenantError::UnknownTenant`], which the server maps to the
    /// protocol's `NotFound`.
    ///
    /// # Errors
    ///
    /// [`TenantError::UnknownTenant`], or the open's errors.
    pub fn get(&self, tenant: &TenantId) -> Result<Arc<TenantSlot<V>>, TenantError> {
        self.lookup(tenant, false)
    }

    /// The live slot for `tenant`, creating its repository from the
    /// template on first use when auto-creation is enabled (tenant-root
    /// mounts only). The entry point for backups.
    ///
    /// # Errors
    ///
    /// [`TenantError::UnknownTenant`] when the tenant is absent and may
    /// not be created, or the open/create errors.
    pub fn get_or_create(&self, tenant: &TenantId) -> Result<Arc<TenantSlot<V>>, TenantError> {
        self.lookup(tenant, true)
    }

    fn lookup(&self, tenant: &TenantId, create: bool) -> Result<Arc<TenantSlot<V>>, TenantError> {
        let mut inner = self.lock();
        if let Some(at) = inner.live.iter().position(|(t, _)| t == tenant) {
            let entry = inner.live.remove(at);
            let slot = entry.1.clone();
            inner.live.push(entry);
            // Catch-up eviction: slots that were busy (and thus skipped)
            // when the table last went over cap may be idle by now.
            self.evict_idle(&mut inner);
            return Ok(slot);
        }
        // Not live: open (possibly create) under the registry lock, so two
        // racing requests can never hold two handles — two writer locks —
        // on the same directory. The open is bounded repository metadata
        // I/O; bulk data never moves under this lock.
        let dir = self.tenant_dir(tenant)?;
        let vfs = (self.make_vfs)(tenant);
        if !vfs.exists(&dir.join(CONFIG_FILE)) {
            let may_create =
                create && self.options.auto_create && matches!(self.mount, Mount::Root(_));
            if !may_create {
                return Err(TenantError::UnknownTenant(tenant.clone()));
            }
            vfs.create_dir_all(&dir)?;
            self.options.template.save_to_with(&dir, &vfs)?;
        }
        let handle = RepositoryHandle::open_with(&dir, vfs)?;
        let slot = Arc::new(TenantSlot {
            tenant: tenant.clone(),
            handle,
            commit_gate: Mutex::new(()),
        });
        inner.live.push((tenant.clone(), slot.clone()));
        self.evict_idle(&mut inner);
        Ok(slot)
    }

    /// Evicts least-recently-used *idle* slots until the table is within
    /// its cap. A slot is idle exactly when the registry holds the only
    /// `Arc` to it — checked under the registry lock, the same lock every
    /// lookup clones under, so idleness cannot be raced. Busy slots are
    /// skipped; if every slot is busy the table stays over cap (soft cap).
    fn evict_idle(&self, inner: &mut Inner<V>) {
        let mut at = 0;
        while inner.live.len() > self.options.max_live && at < inner.live.len() {
            if Arc::strong_count(&inner.live[at].1) == 1 {
                let (_, slot) = inner.live.remove(at);
                self.retired_rollbacks
                    .fetch_add(slot.handle.rollbacks(), Ordering::Relaxed);
            } else {
                at += 1;
            }
        }
    }

    /// Whether `tenant`'s handle is currently live.
    pub fn is_live(&self, tenant: &TenantId) -> bool {
        self.lock().live.iter().any(|(t, _)| t == tenant)
    }

    /// How many handles are currently live.
    pub fn live_count(&self) -> usize {
        self.lock().live.len()
    }

    /// Total failed-mutation rollbacks across all tenants, including
    /// handles that have since been evicted.
    pub fn rollbacks(&self) -> u64 {
        let live: u64 = self
            .lock()
            .live
            .iter()
            .map(|(_, slot)| slot.handle.rollbacks())
            .sum();
        self.retired_rollbacks.load(Ordering::Relaxed) + live
    }

    /// The quota in force for `tenant`: its override, or the default.
    pub fn quota_for(&self, tenant: &TenantId) -> TenantQuota {
        self.lock()
            .quotas
            .get(tenant)
            .copied()
            .unwrap_or(self.options.default_quota)
    }

    /// Overrides `tenant`'s quota.
    pub fn set_quota(&self, tenant: &TenantId, quota: TenantQuota) {
        self.lock().quotas.insert(tenant.clone(), quota);
    }

    /// Every tenant with an initialized repository, sorted by id. On a
    /// legacy mount this is exactly `default`.
    ///
    /// # Errors
    ///
    /// [`TenantError::Io`] when the tenant root cannot be listed.
    pub fn list(&self) -> Result<Vec<TenantId>, TenantError> {
        match &self.mount {
            Mount::Legacy(_) => Ok(vec![TenantId::default_tenant()]),
            Mount::Root(root) => {
                let mut tenants = Vec::new();
                for entry in self.root_vfs.read_dir(&root.join(TENANTS_SUBDIR))? {
                    let Some(name) = entry.file_name().and_then(|n| n.to_str()) else {
                        continue;
                    };
                    // Only directories that validate as tenant ids and
                    // hold an initialized repository count; anything else
                    // in the tree is not a tenant.
                    let Ok(tenant) = TenantId::new(name) else {
                        continue;
                    };
                    if self.root_vfs.exists(&entry.join(CONFIG_FILE)) {
                        tenants.push(tenant);
                    }
                }
                tenants.sort();
                Ok(tenants)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    use hidestore_failpoint::{FaultKind, FaultVfs};
    use hidestore_restore::Faa;
    use hidestore_storage::VersionId;

    fn temp(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hidestore-tenant-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_options() -> RegistryOptions {
        RegistryOptions {
            template: HiDeStoreConfig::small_for_tests(),
            ..RegistryOptions::default()
        }
    }

    fn tid(s: &str) -> TenantId {
        TenantId::new(s).unwrap()
    }

    fn backup<V: Vfs>(
        registry: &TenantRegistry<V>,
        tenant: &TenantId,
        data: &[u8],
    ) -> Result<u32, TenantError> {
        let slot = registry.get_or_create(tenant)?;
        let quota = registry.quota_for(tenant);
        let stats = slot
            .handle()
            .write_checked(|s| quota.admit(s, data.len() as u64), |s| s.backup(data))?;
        Ok(stats.version.get())
    }

    fn restore<V: Vfs>(registry: &TenantRegistry<V>, tenant: &TenantId, version: u32) -> Vec<u8> {
        let slot = registry.get(tenant).unwrap();
        slot.handle()
            .read(|s| {
                let mut out = Vec::new();
                s.restore(VersionId::new(version), &mut Faa::new(1 << 20), &mut out)
                    .map(|_| out)
            })
            .unwrap()
            .unwrap()
    }

    #[test]
    fn tenants_are_physically_isolated() {
        let root = temp("isolated");
        let registry = TenantRegistry::open_root(&root, small_options()).unwrap();
        let (a, b) = (tid("alice"), tid("bob"));
        // Both tenants get version 1: independent version-id spaces.
        assert_eq!(backup(&registry, &a, &vec![0xAA; 30_000]).unwrap(), 1);
        assert_eq!(backup(&registry, &b, &vec![0xBB; 20_000]).unwrap(), 1);
        assert_eq!(backup(&registry, &a, &vec![0xAC; 10_000]).unwrap(), 2);
        assert_eq!(restore(&registry, &a, 1), vec![0xAA; 30_000]);
        assert_eq!(restore(&registry, &b, 1), vec![0xBB; 20_000]);
        // Separate directories on disk.
        assert!(root
            .join(TENANTS_SUBDIR)
            .join("alice")
            .join(CONFIG_FILE)
            .exists());
        assert!(root
            .join(TENANTS_SUBDIR)
            .join("bob")
            .join(CONFIG_FILE)
            .exists());
        assert_eq!(registry.list().unwrap(), vec![a, b]);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn unknown_tenant_is_typed_and_reads_never_create() {
        let root = temp("unknown");
        let registry = TenantRegistry::open_root(&root, small_options()).unwrap();
        let ghost = tid("ghost");
        assert!(matches!(
            registry.get(&ghost),
            Err(TenantError::UnknownTenant(_))
        ));
        assert!(
            !root.join(TENANTS_SUBDIR).join("ghost").exists(),
            "a read lookup must not create a repository"
        );
        // With auto-creation off, even the backup path refuses.
        let registry = TenantRegistry::open_root(
            &root,
            RegistryOptions {
                auto_create: false,
                ..small_options()
            },
        )
        .unwrap();
        assert!(matches!(
            registry.get_or_create(&ghost),
            Err(TenantError::UnknownTenant(_))
        ));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn legacy_mount_serves_exactly_default() {
        let dir = temp("legacy");
        HiDeStoreConfig::small_for_tests().save_to(&dir).unwrap();
        let registry = TenantRegistry::open_legacy(&dir, RegistryOptions::default()).unwrap();
        assert!(registry.is_legacy());
        let default = TenantId::default_tenant();
        assert_eq!(backup(&registry, &default, &vec![7u8; 10_000]).unwrap(), 1);
        assert_eq!(restore(&registry, &default, 1), vec![7u8; 10_000]);
        assert!(matches!(
            registry.get_or_create(&tid("alice")),
            Err(TenantError::UnknownTenant(_))
        ));
        assert_eq!(registry.list().unwrap(), vec![default]);
        // And a directory that is not a repository refuses to mount.
        let empty = temp("legacy-empty");
        assert!(matches!(
            TenantRegistry::open_legacy(&empty, RegistryOptions::default()),
            Err(TenantError::Repo(HiDeStoreError::Config(_)))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&empty).unwrap();
    }

    #[test]
    fn lru_eviction_under_pressure_round_trips() {
        let root = temp("lru");
        let registry = TenantRegistry::open_root(
            &root,
            RegistryOptions {
                max_live: 2,
                ..small_options()
            },
        )
        .unwrap();
        let tenants: Vec<TenantId> = (0..4).map(|i| tid(&format!("t{i}"))).collect();
        for (i, t) in tenants.iter().enumerate() {
            assert_eq!(backup(&registry, t, &vec![i as u8; 20_000]).unwrap(), 1);
        }
        assert_eq!(
            registry.live_count(),
            2,
            "capacity bounds the live handle table"
        );
        assert!(!registry.is_live(&tenants[0]), "oldest tenant was evicted");
        assert!(registry.is_live(&tenants[3]));
        // An evicted tenant reopens lazily and sees its committed state.
        assert_eq!(restore(&registry, &tenants[0], 1), vec![0u8; 20_000]);
        assert!(registry.is_live(&tenants[0]));
        assert_eq!(
            backup(&registry, &tenants[0], &vec![9u8; 10_000]).unwrap(),
            2,
            "version ids continue where the evicted handle left off"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn busy_slots_are_never_evicted() {
        let root = temp("busy");
        let registry = TenantRegistry::open_root(
            &root,
            RegistryOptions {
                max_live: 1,
                ..small_options()
            },
        )
        .unwrap();
        let (a, b) = (tid("held"), tid("other"));
        backup(&registry, &a, &vec![1u8; 10_000]).unwrap();
        let held = registry.get(&a).unwrap();
        // Opening a second tenant pushes past the cap, but the held slot
        // may not be evicted: the soft cap yields instead.
        backup(&registry, &b, &vec![2u8; 10_000]).unwrap();
        assert!(registry.is_live(&a), "a busy slot survives pressure");
        let again = registry.get(&a).unwrap();
        assert!(
            Arc::ptr_eq(&held, &again),
            "a busy tenant always resolves to the same slot — never two \
             handles (two writer locks) on one directory"
        );
        drop(again);
        drop(held);
        // Now idle: the next lookup evicts it.
        backup(&registry, &b, &vec![3u8; 10_000]).unwrap();
        registry.get(&b).unwrap();
        assert!(!registry.is_live(&a) || registry.live_count() <= 1);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn quotas_refuse_typed_without_rollback() {
        let root = temp("quota");
        let registry = TenantRegistry::open_root(&root, small_options()).unwrap();
        let a = tid("capped");
        registry.set_quota(
            &a,
            TenantQuota {
                max_bytes: 0,
                max_versions: 2,
            },
        );
        backup(&registry, &a, &vec![1u8; 10_000]).unwrap();
        backup(&registry, &a, &vec![2u8; 10_000]).unwrap();
        let err = backup(&registry, &a, &vec![3u8; 10_000]);
        assert!(matches!(
            err,
            Err(TenantError::Repo(HiDeStoreError::QuotaExceeded {
                what: "versions",
                used: 2,
                limit: 2,
            }))
        ));
        assert_eq!(
            registry.rollbacks(),
            0,
            "a quota refusal is an admission check, not a rollback"
        );
        // Byte quota: the check sees retained + incoming bytes.
        let b = tid("byte-capped");
        registry.set_quota(
            &b,
            TenantQuota {
                max_bytes: 25_000,
                max_versions: 0,
            },
        );
        backup(&registry, &b, &vec![4u8; 20_000]).unwrap();
        let err = backup(&registry, &b, &vec![5u8; 10_000]);
        assert!(matches!(
            err,
            Err(TenantError::Repo(HiDeStoreError::QuotaExceeded {
                what: "bytes",
                used: 20_000,
                limit: 25_000,
            }))
        ));
        // Other tenants are unaffected by one tenant's quota exhaustion.
        assert_eq!(
            backup(&registry, &tid("free"), &vec![6u8; 40_000]).unwrap(),
            1
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Per-tenant writer locks, proved at the registry layer: tenant A's
    /// commit is held open (its writer lock held mid-mutation) while
    /// tenant B completes a full backup within a watchdog deadline. With
    /// a shared writer lock this deadlocks until the watchdog fires.
    #[test]
    fn tenants_commit_in_parallel_while_one_writer_is_held() {
        let root = temp("parallel");
        let registry = Arc::new(TenantRegistry::open_root(&root, small_options()).unwrap());
        let (a, b) = (tid("held"), tid("concurrent"));
        // Materialize A so the held write below starts immediately.
        backup(&registry, &a, &vec![1u8; 10_000]).unwrap();

        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let registry_a = Arc::clone(&registry);
        let holder = std::thread::spawn(move || {
            let slot = registry_a.get(&tid("held")).unwrap();
            slot.handle()
                .write(|s| {
                    entered_tx.send(()).unwrap();
                    // Hold A's writer lock until the test releases it.
                    release_rx
                        .recv_timeout(Duration::from_secs(30))
                        .expect("test must release the held commit");
                    s.backup(&vec![2u8; 10_000])
                })
                .unwrap();
        });
        entered_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("holder must enter its commit");

        // With A's writer lock held, B's backup must complete within the
        // watchdog deadline.
        let (done_tx, done_rx) = mpsc::channel::<u32>();
        let registry_b = Arc::clone(&registry);
        let runner = std::thread::spawn(move || {
            let version = backup(&registry_b, &b, &vec![3u8; 30_000]).unwrap();
            done_tx.send(version).unwrap();
        });
        let version = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("tenant B must commit while tenant A's writer lock is held");
        assert_eq!(version, 1);

        release_tx.send(()).unwrap();
        holder.join().unwrap();
        runner.join().unwrap();
        assert_eq!(restore(&registry, &tid("held"), 2), vec![2u8; 10_000]);
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// A tenant whose vfs dies mid-commit poisons *its own* handle only:
    /// its operations fast-fail typed while every other tenant keeps
    /// committing through the same registry.
    #[test]
    fn poisoned_tenant_fast_fails_alone() {
        let root = temp("poison");
        let victim = tid("victim");

        // Materialize the victim's repository with a benign registry.
        {
            let setup = TenantRegistry::open_root_with(
                &root,
                small_options(),
                FaultVfs::counting(),
                |_| FaultVfs::counting(),
            )
            .unwrap();
            setup.get_or_create(&victim).unwrap();
        }

        // Counting probe: how many vfs ops does opening the existing
        // repository take? The armed run fails the op after that — the
        // first I/O of the mutation/save.
        let counting = FaultVfs::counting();
        let counting_for_closure = counting.clone();
        let benign = FaultVfs::counting();
        let registry =
            TenantRegistry::open_root_with(&root, small_options(), benign.clone(), move |t| {
                if t.as_str() == "victim" {
                    counting_for_closure.clone()
                } else {
                    FaultVfs::counting()
                }
            })
            .unwrap();
        registry.get(&victim).unwrap();
        let open_ops = counting.ops();

        // Armed run: the victim's vfs fails every op after the open, so
        // its first mutation fails AND its rollback reopen fails —
        // poisoning the victim's handle.
        let armed = FaultVfs::armed(open_ops, FaultKind::Error);
        let armed_for_closure = armed.clone();
        let registry = TenantRegistry::open_root_with(
            &root,
            small_options(),
            FaultVfs::counting(),
            move |t| {
                if t.as_str() == "victim" {
                    armed_for_closure.clone()
                } else {
                    FaultVfs::counting()
                }
            },
        )
        .unwrap();
        let err = backup(&registry, &victim, &vec![9u8; 40_000]);
        assert!(err.is_err(), "the armed fault must fail the mutation");
        assert!(armed.crashed(), "the armed site must have fired");
        let slot = registry.get(&victim).unwrap();
        assert!(matches!(
            slot.handle().read(|s| s.versions()),
            Err(HiDeStoreError::Poisoned)
        ));
        drop(slot);
        // Every other tenant commits and restores normally through the
        // same registry — the poison is tenant-local.
        let bystander = tid("bystander");
        assert_eq!(
            backup(&registry, &bystander, &vec![4u8; 20_000]).unwrap(),
            1
        );
        assert_eq!(restore(&registry, &bystander, 1), vec![4u8; 20_000]);
        assert_eq!(registry.rollbacks(), 1);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
