#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Versioned backup-workload generators.
//!
//! The paper evaluates on four datasets (Table 1): `kernel` and `gcc`
//! (successive source releases of real software), and `fslhomes` and `macos`
//! (user snapshot traces). Those datasets total multiple terabytes and two of
//! them are not public, so this reproduction substitutes **deterministic
//! synthetic version streams** with matched *chunk-level statistics*: every
//! effect the paper measures (deduplication ratio, inter-version redundancy
//! decay of Figure 3, fragmentation growth, restore locality) depends only on
//! which chunks recur across versions and in what order — which the
//! generators reproduce — not on the actual bytes. See DESIGN.md for the
//! substitution rationale.
//!
//! A dataset is modelled as a file tree evolving version to version:
//!
//! * a fraction of files receives byte-level edits (overwrites, insertions,
//!   deletions — insertions/deletions shift content and exercise CDC);
//! * some files are added, some removed;
//! * optionally, *flapping* files disappear for one version and return — the
//!   macos pattern of Figure 3d that motivates HiDeStore's depth-2 cache;
//! * optionally, periodic *major upgrades* touch many files at once (the
//!   "large upgrades" the paper notes between some versions).
//!
//! # Examples
//!
//! ```
//! use hidestore_workloads::{Profile, VersionStream};
//!
//! let spec = Profile::Kernel.spec().scaled(1_000_000, 5);
//! let mut stream = VersionStream::new(spec, 42);
//! let v1 = stream.next_version();
//! let v2 = stream.next_version();
//! assert!(!v1.is_empty());
//! // Successive versions are highly similar but not identical.
//! assert_ne!(v1, v2);
//! ```

mod materialize;

pub use materialize::materialize;

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The workload profiles of the paper: the four Table 1 datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Profile {
    /// Linux kernel source releases: many files, small incremental diffs,
    /// very high redundancy (paper: 91.53% dedup over 158 versions).
    Kernel,
    /// gcc releases: larger per-release churn (paper: 78.75%).
    Gcc,
    /// User home-directory snapshots: high redundancy, file adds/deletes
    /// (paper: 92.17%).
    Fslhomes,
    /// macOS server snapshots: moderate redundancy plus the skip-a-version
    /// file pattern of Figure 3d (paper: 89.56%).
    Macos,
}

impl Profile {
    /// The four Table 1 datasets, in the paper's order.
    pub const ALL: [Profile; 4] = [
        Profile::Kernel,
        Profile::Gcc,
        Profile::Fslhomes,
        Profile::Macos,
    ];

    /// The generator specification for this profile at its default scaled
    /// size (tens of MB instead of the paper's GB/TB; scale further with
    /// [`WorkloadSpec::scaled`]).
    pub fn spec(self) -> WorkloadSpec {
        match self {
            Profile::Kernel => WorkloadSpec {
                name: "kernel",
                initial_bytes: 16 << 20,
                versions: 20,
                files: 256,
                modify_file_fraction: 0.12,
                modify_span_fraction: 0.15,
                add_fraction: 0.004,
                delete_fraction: 0.002,
                flap_fraction: 0.0,
                major_every: 0,
                major_file_fraction: 0.0,
            },
            Profile::Gcc => WorkloadSpec {
                name: "gcc",
                initial_bytes: 16 << 20,
                versions: 20,
                files: 256,
                modify_file_fraction: 0.45,
                modify_span_fraction: 0.35,
                add_fraction: 0.02,
                delete_fraction: 0.01,
                flap_fraction: 0.0,
                major_every: 6,
                major_file_fraction: 0.7,
            },
            Profile::Fslhomes => WorkloadSpec {
                name: "fslhomes",
                initial_bytes: 16 << 20,
                versions: 20,
                files: 192,
                modify_file_fraction: 0.10,
                modify_span_fraction: 0.20,
                add_fraction: 0.01,
                delete_fraction: 0.008,
                flap_fraction: 0.0,
                major_every: 0,
                major_file_fraction: 0.0,
            },
            Profile::Macos => WorkloadSpec {
                name: "macos",
                initial_bytes: 16 << 20,
                versions: 20,
                files: 224,
                modify_file_fraction: 0.18,
                modify_span_fraction: 0.25,
                add_fraction: 0.01,
                delete_fraction: 0.006,
                flap_fraction: 0.10,
                major_every: 8,
                major_file_fraction: 0.5,
            },
        }
    }
}

impl std::fmt::Display for Profile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.spec().name)
    }
}

/// Tunable generator specification (see [`Profile::spec`] for presets).
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Short dataset name.
    pub name: &'static str,
    /// Total bytes of version 1.
    pub initial_bytes: usize,
    /// Default number of versions for experiments.
    pub versions: u32,
    /// Number of files composing the tree.
    pub files: usize,
    /// Fraction of files modified per version.
    pub modify_file_fraction: f64,
    /// Fraction of a modified file's bytes that change.
    pub modify_span_fraction: f64,
    /// New-file bytes per version, as a fraction of the tree size.
    pub add_fraction: f64,
    /// Files deleted per version, as a fraction of the file count.
    pub delete_fraction: f64,
    /// Fraction of files that *flap*: absent on odd versions, present on
    /// even ones (macos Figure 3d behaviour).
    pub flap_fraction: f64,
    /// Every `major_every`-th version is a major upgrade (0 = never).
    pub major_every: u32,
    /// Fraction of files modified in a major upgrade.
    pub major_file_fraction: f64,
}

impl WorkloadSpec {
    /// Returns the spec resized to roughly `bytes` of version-1 data and
    /// `versions` versions — used to scale experiments to the available
    /// time budget.
    pub fn scaled(mut self, bytes: usize, versions: u32) -> Self {
        assert!(bytes >= 4096, "workload must be at least a few chunks");
        assert!(versions >= 1, "at least one version");
        // Keep the file count (the behavioural knob) and shrink file sizes,
        // unless files would drop below ~1 KiB each.
        let mean_file = (bytes / self.files).max(1024);
        self.files = (bytes / mean_file).max(4);
        self.initial_bytes = bytes;
        self.versions = versions;
        self
    }
}

#[derive(Debug, Clone)]
struct FileState {
    content: Vec<u8>,
    /// Flapping files toggle presence by version parity.
    flapping: bool,
}

/// Deterministic stream of backup versions for one workload.
///
/// Call [`VersionStream::next_version`] repeatedly; each call returns the
/// full backup stream of the next version (files concatenated in a stable
/// order, the way an archiver would feed a backup appliance).
#[derive(Debug)]
pub struct VersionStream {
    spec: WorkloadSpec,
    rng: StdRng,
    files: BTreeMap<u64, FileState>,
    next_file_id: u64,
    version: u32,
}

impl VersionStream {
    /// Creates the stream; the same `(spec, seed)` pair always produces the
    /// same versions.
    pub fn new(spec: WorkloadSpec, seed: u64) -> Self {
        let mut stream = VersionStream {
            spec,
            rng: StdRng::seed_from_u64(seed ^ 0x5DEE_CE66_D153_1CE5),
            files: BTreeMap::new(),
            next_file_id: 0,
            version: 0,
        };
        stream.populate_initial();
        stream
    }

    /// The spec in force.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Number of versions produced so far.
    pub fn version(&self) -> u32 {
        self.version
    }

    fn populate_initial(&mut self) {
        let mean = (self.spec.initial_bytes / self.spec.files).max(512);
        let mut remaining = self.spec.initial_bytes as i64;
        while remaining > 0 {
            // File sizes vary ±50% around the mean.
            let size = self
                .rng
                .gen_range(mean / 2..=mean * 3 / 2)
                .min(remaining as usize)
                .max(1);
            let content = self.random_bytes(size);
            let flapping = self.rng.gen_bool(self.spec.flap_fraction.clamp(0.0, 1.0));
            let id = self.next_file_id;
            self.next_file_id += 1;
            self.files.insert(id, FileState { content, flapping });
            remaining -= size as i64;
        }
    }

    fn random_bytes(&mut self, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        self.rng.fill(&mut buf[..]);
        buf
    }

    /// Produces the next backup version's stream.
    pub fn next_version(&mut self) -> Vec<u8> {
        self.next_version_with_manifest().0
    }

    /// Produces the next version's stream together with its file manifest:
    /// `(file_id, length)` pairs in serialization order, letting callers
    /// recover per-file boundaries (e.g. for file-grained comparisons).
    pub fn next_version_with_manifest(&mut self) -> (Vec<u8>, Vec<(u64, usize)>) {
        self.version += 1;
        if self.version > 1 {
            self.evolve();
        }
        // Serialize: files in stable id order; flapping files skip even
        // versions (so they are present, absent, present, … — Figure 3d).
        let mut out = Vec::new();
        let mut manifest = Vec::new();
        for (&id, file) in &self.files {
            if file.flapping && self.version.is_multiple_of(2) {
                continue;
            }
            manifest.push((id, file.content.len()));
            out.extend_from_slice(&file.content);
        }
        (out, manifest)
    }

    fn evolve(&mut self) {
        let is_major =
            self.spec.major_every != 0 && self.version.is_multiple_of(self.spec.major_every);
        let modify_fraction = if is_major {
            self.spec.major_file_fraction
        } else {
            self.spec.modify_file_fraction
        };
        let ids: Vec<u64> = self.files.keys().copied().collect();

        // Deletions.
        let deletions = ((ids.len() as f64) * self.spec.delete_fraction).round() as usize;
        for _ in 0..deletions {
            if self.files.len() <= 2 {
                break;
            }
            let victim = ids[self.rng.gen_range(0..ids.len())];
            self.files.remove(&victim);
        }

        // Modifications.
        let ids: Vec<u64> = self.files.keys().copied().collect();
        let modifications = ((ids.len() as f64) * modify_fraction).round() as usize;
        for _ in 0..modifications {
            let id = ids[self.rng.gen_range(0..ids.len())];
            // Pre-generate randomness to avoid borrowing `self` twice.
            let choice = self.rng.gen_range(0u8..10);
            let Some(len) = self.files.get(&id).map(|f| f.content.len()) else {
                continue;
            };
            if len < 16 {
                continue;
            }
            let span = ((len as f64) * self.spec.modify_span_fraction) as usize;
            let span = span.clamp(1, len / 2);
            let start = self.rng.gen_range(0..len - span);
            match choice {
                // 60%: in-place overwrite (no shift).
                0..=5 => {
                    let patch = self.random_bytes(span);
                    let Some(file) = self.files.get_mut(&id) else {
                        continue;
                    };
                    file.content[start..start + span].copy_from_slice(&patch);
                }
                // 20%: insertion (shifts the tail).
                6..=7 => {
                    let insert = self.random_bytes(span / 4 + 1);
                    let Some(file) = self.files.get_mut(&id) else {
                        continue;
                    };
                    let tail = file.content.split_off(start);
                    file.content.extend_from_slice(&insert);
                    file.content.extend_from_slice(&tail);
                }
                // 20%: deletion (shifts the tail).
                _ => {
                    let Some(file) = self.files.get_mut(&id) else {
                        continue;
                    };
                    file.content.drain(start..start + span / 4 + 1);
                }
            }
        }

        // Additions.
        let total: usize = self.files.values().map(|f| f.content.len()).sum();
        let add_bytes = ((total as f64) * self.spec.add_fraction) as usize;
        if add_bytes > 0 {
            let content = self.random_bytes(add_bytes);
            let flapping = self.rng.gen_bool(self.spec.flap_fraction.clamp(0.0, 1.0));
            let id = self.next_file_id;
            self.next_file_id += 1;
            self.files.insert(id, FileState { content, flapping });
        }
    }

    /// Generates all `spec.versions` versions at once.
    pub fn all_versions(mut self) -> Vec<Vec<u8>> {
        let n = self.spec.versions;
        (0..n).map(|_| self.next_version()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let spec = Profile::Kernel.spec().scaled(300_000, 3);
        let a = VersionStream::new(spec, 7).all_versions();
        let b = VersionStream::new(spec, 7).all_versions();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let spec = Profile::Kernel.spec().scaled(300_000, 2);
        let a = VersionStream::new(spec, 1).all_versions();
        let b = VersionStream::new(spec, 2).all_versions();
        assert_ne!(a, b);
    }

    #[test]
    fn initial_size_near_target() {
        for profile in Profile::ALL {
            let spec = profile.spec().scaled(1_000_000, 1);
            let v1 = VersionStream::new(spec, 3).next_version();
            // Flapping files are present in V1 (odd), so V1 ~ target.
            assert!(
                (800_000..1_400_000).contains(&v1.len()),
                "{profile}: {} bytes",
                v1.len()
            );
        }
    }

    /// Fraction of version-2 files byte-identical to their version-1 self.
    fn file_similarity(profile: Profile, seed: u64) -> f64 {
        let spec = profile.spec().scaled(1_000_000, 2);
        let mut s = VersionStream::new(spec, seed);
        let (v1, m1) = s.next_version_with_manifest();
        let (v2, m2) = s.next_version_with_manifest();
        let slice = |data: &[u8], manifest: &[(u64, usize)]| {
            let mut map = std::collections::HashMap::new();
            let mut pos = 0;
            for &(id, len) in manifest {
                map.insert(id, data[pos..pos + len].to_vec());
                pos += len;
            }
            map
        };
        let f1 = slice(&v1, &m1);
        let f2 = slice(&v2, &m2);
        let same = f2.iter().filter(|(id, c)| f1.get(id) == Some(c)).count();
        same as f64 / f2.len() as f64
    }

    #[test]
    fn successive_versions_share_most_content() {
        let similarity = file_similarity(Profile::Kernel, 5);
        assert!(similarity > 0.7, "only {similarity:.2} of files unchanged");
    }

    #[test]
    fn gcc_churns_more_than_kernel() {
        let kernel = file_similarity(Profile::Kernel, 9);
        let gcc = file_similarity(Profile::Gcc, 9);
        assert!(kernel > gcc, "kernel {kernel:.2} vs gcc {gcc:.2}");
    }

    #[test]
    fn macos_flapping_files_skip_even_versions() {
        let spec = Profile::Macos.spec().scaled(500_000, 4);
        let mut s = VersionStream::new(spec, 13);
        let v1 = s.next_version();
        let v2 = s.next_version();
        let v3 = s.next_version();
        // Flapping drops content on even versions: v2 smaller than v1/v3.
        assert!(v2.len() < v1.len(), "v2 {} vs v1 {}", v2.len(), v1.len());
        assert!(v2.len() < v3.len(), "v2 {} vs v3 {}", v2.len(), v3.len());
    }

    #[test]
    fn scaled_preserves_mean_file_size() {
        let base = Profile::Fslhomes.spec();
        let scaled = base.scaled(2_000_000, 5);
        assert_eq!(scaled.initial_bytes, 2_000_000);
        assert_eq!(scaled.versions, 5);
        assert!(scaled.files >= 4);
    }

    #[test]
    fn version_counter_tracks() {
        let spec = Profile::Kernel.spec().scaled(100_000, 3);
        let mut s = VersionStream::new(spec, 1);
        assert_eq!(s.version(), 0);
        s.next_version();
        s.next_version();
        assert_eq!(s.version(), 2);
    }

    #[test]
    fn display_names_match_table_1() {
        let names: Vec<String> = Profile::ALL.iter().map(|p| p.to_string()).collect();
        assert_eq!(names, vec!["kernel", "gcc", "fslhomes", "macos"]);
    }
}
