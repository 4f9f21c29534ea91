//! Chunk containers: the unit of disk I/O in deduplication systems.

use std::collections::HashMap;
use std::fmt;

use hidestore_hash::Fingerprint;

/// Default container capacity: 4 MiB, as in the paper (§2.1) and Destor.
pub const CONTAINER_CAPACITY: usize = 4 * 1024 * 1024;

/// Identifier of a container. IDs are positive; `0` is reserved because the
/// HiDeStore recipe encoding uses CID `0` to mean "still in active
/// containers" (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContainerId(u32);

impl ContainerId {
    /// Creates a container ID.
    ///
    /// # Panics
    ///
    /// Panics if `id == 0` (reserved by the recipe encoding).
    pub fn new(id: u32) -> Self {
        assert!(
            id != 0,
            "container id 0 is reserved for the active-container marker"
        );
        ContainerId(id)
    }

    /// The raw numeric ID (always > 0).
    pub fn get(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ContainerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A chunk container: a metadata section (fingerprint → offset/length table)
/// plus the packed chunk data, mirroring Figure 6 of the paper.
///
/// Containers also carry a `version_tag`: for HiDeStore archival containers
/// this is the backup version at whose end the container was sealed, which
/// makes expired-version deletion a container-drop with no garbage collection
/// (§4.5). Baseline systems leave it at 0.
///
/// The container tracks *dead bytes* created by [`Container::remove`] so the
/// chunk filter can compute utilization and decide when to merge sparse
/// active containers (§4.2).
#[derive(Debug, Clone)]
pub struct Container {
    id: ContainerId,
    version_tag: u32,
    capacity: usize,
    entries: HashMap<Fingerprint, (u32, u32)>,
    data: Vec<u8>,
    dead_bytes: usize,
}

impl Container {
    /// Creates an empty container with the given capacity.
    pub fn new(id: ContainerId, capacity: usize) -> Self {
        Container {
            id,
            version_tag: 0,
            capacity,
            entries: HashMap::new(),
            data: Vec::new(),
            dead_bytes: 0,
        }
    }

    /// Creates an empty container with the paper's 4 MiB capacity.
    pub fn with_default_capacity(id: ContainerId) -> Self {
        Self::new(id, CONTAINER_CAPACITY)
    }

    /// The container's ID.
    pub fn id(&self) -> ContainerId {
        self.id
    }

    /// The version tag (0 if untagged).
    pub fn version_tag(&self) -> u32 {
        self.version_tag
    }

    /// Tags the container with the version at whose end it was sealed.
    pub fn set_version_tag(&mut self, version: u32) {
        self.version_tag = version;
    }

    /// Capacity in bytes of the data section.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Tries to append a chunk; returns `false` if the data section would
    /// overflow the capacity or if the fingerprint is already present.
    /// Sealed containers are filled through [`crate::ContainerBuilder`],
    /// which seals a full container and opens the next.
    pub fn try_add(&mut self, fingerprint: Fingerprint, data: &[u8]) -> bool {
        if self.entries.contains_key(&fingerprint) {
            return false;
        }
        if self.data.len() + data.len() > self.capacity {
            return false;
        }
        let offset = self.data.len() as u32;
        self.data.extend_from_slice(data);
        self.entries
            .insert(fingerprint, (offset, data.len() as u32));
        true
    }

    /// Looks up a chunk's content by fingerprint.
    pub fn get(&self, fingerprint: &Fingerprint) -> Option<&[u8]> {
        self.entries
            .get(fingerprint)
            .map(|&(off, len)| &self.data[off as usize..(off + len) as usize])
    }

    /// Whether the container holds this fingerprint.
    pub fn contains(&self, fingerprint: &Fingerprint) -> bool {
        self.entries.contains_key(fingerprint)
    }

    /// Removes a chunk from the metadata table, leaving its bytes as dead
    /// space (the paper's Figure 6: freed space is not directly reusable
    /// because chunk sizes vary). Returns `true` if it was present.
    pub fn remove(&mut self, fingerprint: &Fingerprint) -> bool {
        if let Some((_, len)) = self.entries.remove(fingerprint) {
            self.dead_bytes += len as usize;
            true
        } else {
            false
        }
    }

    /// Number of live chunks.
    pub fn chunk_count(&self) -> usize {
        self.entries.len()
    }

    /// Whether the container has no live chunks.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total bytes of live chunk data.
    pub fn live_bytes(&self) -> usize {
        self.data.len() - self.dead_bytes
    }

    /// Bytes occupied in the data section, live or dead.
    pub fn used_bytes(&self) -> usize {
        self.data.len()
    }

    /// Live bytes divided by capacity — the utilization measure HiDeStore's
    /// compactor uses to find sparse containers (§4.2).
    pub fn utilization(&self) -> f64 {
        self.live_bytes() as f64 / self.capacity as f64
    }

    /// Iterates over live chunks as `(fingerprint, content)` pairs, in data
    /// (= insertion) order.
    ///
    /// Deterministic order matters: restore caches (ChunkLru, ALACC) insert
    /// a read container's chunks in this order, so their eviction behaviour
    /// — and therefore container-read counts — must not vary run to run.
    pub fn iter(&self) -> impl Iterator<Item = (Fingerprint, &[u8])> + '_ {
        let mut order: Vec<(Fingerprint, (u32, u32))> =
            self.entries.iter().map(|(fp, &sl)| (*fp, sl)).collect();
        order.sort_unstable_by_key(|&(_, (off, _))| off);
        order
            .into_iter()
            .map(move |(fp, (off, len))| (fp, &self.data[off as usize..(off + len) as usize]))
    }

    /// Live fingerprints, in unspecified order.
    pub fn fingerprints(&self) -> impl Iterator<Item = Fingerprint> + '_ {
        self.entries.keys().copied()
    }

    /// The metadata table as `(fingerprint, offset, length)` triples, in
    /// unspecified order — the raw view integrity checkers need to validate
    /// that the metadata section agrees with the data section (bounds,
    /// overlaps) without going through content lookups.
    pub fn entry_locations(&self) -> impl Iterator<Item = (Fingerprint, u32, u32)> + '_ {
        self.entries.iter().map(|(fp, &(off, len))| (*fp, off, len))
    }

    /// Re-hashes every live chunk and returns the fingerprints whose content
    /// no longer matches — the container-level integrity check behind
    /// repository scrubbing.
    pub fn verify(&self) -> Vec<Fingerprint> {
        self.iter()
            .filter(|(fp, data)| Fingerprint::of(data) != *fp)
            .map(|(fp, _)| fp)
            .collect()
    }

    /// Rewrites the data section dropping dead bytes. Chunk offsets change;
    /// the metadata table is updated accordingly.
    pub fn compact_in_place(&mut self) {
        if self.dead_bytes == 0 {
            return;
        }
        let mut new_data = Vec::with_capacity(self.live_bytes());
        let mut live: Vec<(Fingerprint, (u32, u32))> =
            self.entries.iter().map(|(fp, loc)| (*fp, *loc)).collect();
        // Preserve current physical order to keep locality of insertion.
        live.sort_by_key(|&(_, (off, _))| off);
        for (fp, (off, len)) in live {
            let new_off = new_data.len() as u32;
            new_data.extend_from_slice(&self.data[off as usize..(off + len) as usize]);
            self.entries.insert(fp, (new_off, len));
        }
        self.data = new_data;
        self.dead_bytes = 0;
    }

    /// Serializes the container to the on-disk format used by
    /// [`crate::FileContainerStore`].
    ///
    /// Layout: magic `b"HDSC"`, u32 id, u32 version_tag, u64 capacity,
    /// u32 entry count, u32 data length, then per-entry
    /// (20-byte fp, u32 offset, u32 len), then the data section (live and
    /// dead bytes as-is).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.entries.len() * 28 + self.data.len());
        out.extend_from_slice(b"HDSC");
        out.extend_from_slice(&self.id.get().to_le_bytes());
        out.extend_from_slice(&self.version_tag.to_le_bytes());
        out.extend_from_slice(&(self.capacity as u64).to_le_bytes());
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.data.len() as u32).to_le_bytes());
        let mut entries: Vec<(&Fingerprint, &(u32, u32))> = self.entries.iter().collect();
        entries.sort_by_key(|&(fp, _)| *fp);
        for (fp, &(off, len)) in entries {
            out.extend_from_slice(fp.as_bytes());
            out.extend_from_slice(&off.to_le_bytes());
            out.extend_from_slice(&len.to_le_bytes());
        }
        out.extend_from_slice(&self.data);
        out
    }

    /// Parses a container from the [`Container::encode`] format.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first structural problem found.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        fn take<'a>(bytes: &mut &'a [u8], n: usize) -> Result<&'a [u8], String> {
            if bytes.len() < n {
                return Err(format!("truncated container: needed {n} more bytes"));
            }
            let (head, tail) = bytes.split_at(n);
            *bytes = tail;
            Ok(head)
        }
        fn take_array<const N: usize>(bytes: &mut &[u8]) -> Result<[u8; N], String> {
            let head = take(bytes, N)?;
            let mut out = [0u8; N];
            out.copy_from_slice(head);
            Ok(out)
        }
        let mut rest = bytes;
        if take(&mut rest, 4)? != b"HDSC" {
            return Err("bad container magic".into());
        }
        let id = u32::from_le_bytes(take_array(&mut rest)?);
        if id == 0 {
            return Err("container id 0 is invalid".into());
        }
        let version_tag = u32::from_le_bytes(take_array(&mut rest)?);
        let capacity = u64::from_le_bytes(take_array(&mut rest)?) as usize;
        let n_entries = u32::from_le_bytes(take_array(&mut rest)?) as usize;
        let data_len = u32::from_le_bytes(take_array(&mut rest)?) as usize;
        let mut entries = HashMap::with_capacity(n_entries);
        let mut live_bytes = 0usize;
        for _ in 0..n_entries {
            let fp_bytes: [u8; 20] = take_array(&mut rest)?;
            let off = u32::from_le_bytes(take_array(&mut rest)?);
            let len = u32::from_le_bytes(take_array(&mut rest)?);
            if off as u64 + len as u64 > data_len as u64 {
                return Err(format!("entry extends past data section: {}+{}", off, len));
            }
            live_bytes += len as usize;
            entries.insert(Fingerprint::from_bytes(fp_bytes), (off, len));
        }
        let data = take(&mut rest, data_len)?.to_vec();
        Ok(Container {
            id: ContainerId::new(id),
            version_tag,
            capacity,
            entries,
            dead_bytes: data.len().saturating_sub(live_bytes),
            data,
        })
    }

    /// Extracts all live chunks as owned `(fingerprint, content)` pairs in
    /// physical order — used when migrating chunks between containers.
    pub fn drain_chunks(&self) -> Vec<(Fingerprint, Vec<u8>)> {
        self.iter().map(|(fp, data)| (fp, data.to_vec())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: u64) -> Fingerprint {
        Fingerprint::synthetic(n)
    }

    #[test]
    fn add_and_get() {
        let mut c = Container::new(ContainerId::new(1), 1024);
        assert!(c.try_add(fp(1), b"hello"));
        assert_eq!(c.get(&fp(1)), Some(&b"hello"[..]));
        assert_eq!(c.get(&fp(2)), None);
        assert_eq!(c.chunk_count(), 1);
    }

    #[test]
    fn duplicate_add_rejected() {
        let mut c = Container::new(ContainerId::new(1), 1024);
        assert!(c.try_add(fp(1), b"a"));
        assert!(!c.try_add(fp(1), b"b"));
        assert_eq!(c.get(&fp(1)), Some(&b"a"[..]));
    }

    #[test]
    fn capacity_overflow_rejected() {
        let mut c = Container::new(ContainerId::new(1), 10);
        assert!(c.try_add(fp(1), b"12345678"));
        assert!(!c.try_add(fp(2), b"abc"));
        assert!(c.try_add(fp(2), b"ab"), "exactly full still fits");
    }

    #[test]
    fn remove_creates_dead_space() {
        let mut c = Container::new(ContainerId::new(1), 100);
        c.try_add(fp(1), b"aaaa");
        c.try_add(fp(2), b"bbbb");
        assert!(c.remove(&fp(1)));
        assert!(!c.remove(&fp(1)));
        assert_eq!(c.live_bytes(), 4);
        assert_eq!(c.used_bytes(), 8);
        assert_eq!(c.get(&fp(1)), None);
        assert_eq!(c.get(&fp(2)), Some(&b"bbbb"[..]));
    }

    #[test]
    fn utilization_reflects_dead_space() {
        let mut c = Container::new(ContainerId::new(1), 100);
        c.try_add(fp(1), &[0; 50]);
        c.try_add(fp(2), &[1; 25]);
        assert!((c.utilization() - 0.75).abs() < 1e-9);
        c.remove(&fp(1));
        assert!((c.utilization() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn compact_in_place_reclaims_dead_bytes() {
        let mut c = Container::new(ContainerId::new(1), 100);
        c.try_add(fp(1), b"xxxx");
        c.try_add(fp(2), b"yyyy");
        c.try_add(fp(3), b"zzzz");
        c.remove(&fp(2));
        c.compact_in_place();
        assert_eq!(c.used_bytes(), 8);
        assert_eq!(c.live_bytes(), 8);
        assert_eq!(c.get(&fp(1)), Some(&b"xxxx"[..]));
        assert_eq!(c.get(&fp(3)), Some(&b"zzzz"[..]));
        // Now there is room again.
        assert!(c.try_add(fp(4), &[7; 90]));
    }

    #[test]
    fn compact_noop_when_no_dead_bytes() {
        let mut c = Container::new(ContainerId::new(1), 100);
        c.try_add(fp(1), b"abcd");
        let before = c.encode();
        c.compact_in_place();
        assert_eq!(c.encode(), before);
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut c = Container::new(ContainerId::new(42), 4096);
        c.set_version_tag(7);
        for i in 0..20 {
            c.try_add(fp(i), &vec![i as u8; 30 + i as usize]);
        }
        c.remove(&fp(5));
        let decoded = Container::decode(&c.encode()).unwrap();
        assert_eq!(decoded.id(), c.id());
        assert_eq!(decoded.version_tag(), 7);
        assert_eq!(decoded.capacity(), 4096);
        assert_eq!(decoded.chunk_count(), 19);
        assert_eq!(decoded.live_bytes(), c.live_bytes());
        for i in 0..20 {
            assert_eq!(decoded.get(&fp(i)), c.get(&fp(i)), "chunk {i}");
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Container::decode(b"").is_err());
        assert!(Container::decode(b"NOPE").is_err());
        assert!(Container::decode(&[0u8; 64]).is_err());
        // Truncated valid prefix.
        let mut c = Container::new(ContainerId::new(1), 64);
        c.try_add(fp(1), b"data");
        let enc = c.encode();
        assert!(Container::decode(&enc[..enc.len() - 2]).is_err());
    }

    #[test]
    fn drain_chunks_in_physical_order() {
        let mut c = Container::new(ContainerId::new(1), 1024);
        c.try_add(fp(3), b"c3");
        c.try_add(fp(1), b"c1");
        c.try_add(fp(2), b"c2");
        let drained = c.drain_chunks();
        assert_eq!(drained.len(), 3);
        assert_eq!(drained[0].1, b"c3");
        assert_eq!(drained[1].1, b"c1");
        assert_eq!(drained[2].1, b"c2");
    }

    #[test]
    fn verify_flags_only_mismatched_chunks() {
        let mut c = Container::new(ContainerId::new(1), 1024);
        let good = Fingerprint::of(b"good data");
        c.try_add(good, b"good data");
        // A trace-mode chunk: fingerprint deliberately unrelated to content.
        let fake = Fingerprint::synthetic(1);
        c.try_add(fake, b"filler");
        let corrupt = c.verify();
        assert_eq!(corrupt, vec![fake]);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn id_zero_panics() {
        ContainerId::new(0);
    }

    #[test]
    fn iter_yields_all_live_chunks() {
        let mut c = Container::new(ContainerId::new(1), 1024);
        c.try_add(fp(1), b"one");
        c.try_add(fp(2), b"two");
        c.remove(&fp(1));
        let collected: Vec<_> = c.iter().collect();
        assert_eq!(collected, vec![(fp(2), &b"two"[..])]);
    }
}
