//! Chunk containers: the unit of disk I/O in deduplication systems.

use std::collections::HashMap;
use std::fmt;

use hidestore_hash::Fingerprint;
use hidestore_proto::wire::{ByteReader, ByteWriter};

/// Default container capacity: 4 MiB, as in the paper (§2.1) and Destor.
pub const CONTAINER_CAPACITY: usize = 4 * 1024 * 1024;

const MAGIC: &[u8; 4] = b"HDSC";

/// Encoded size of one metadata entry: fingerprint, offset, length.
const ENTRY_LEN: usize = 28;

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
///
/// The data section is the tail of one buffer, from `data_start` on. A
/// container built in memory starts its data at offset 0; one from
/// [`Container::decode`] keeps the whole encoded file it was given, and its
/// data section starts after the header and entry table (32 + 28·n bytes),
/// so a container read copies its bytes once, from the device. Every method
/// behaves the same on both.
#[derive(Debug, Clone)]
pub struct Container {
    id: ContainerId,
    version_tag: u32,
    capacity: usize,
    entries: HashMap<Fingerprint, (u32, u32)>,
    buf: Vec<u8>,
    data_start: usize,
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
            buf: Vec::new(),
            data_start: 0,
            dead_bytes: 0,
        }
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
        let used = self.used_bytes();
        if used + data.len() > self.capacity {
            return false;
        }
        // Offsets and lengths are u32 on disk: nothing lands past 4 GiB.
        let (Ok(offset), Ok(len)) = (u32::try_from(used), u32::try_from(data.len())) else {
            return false;
        };
        // The data section is the buffer's tail, so appending to the buffer
        // appends to the data section.
        self.buf.extend_from_slice(data);
        self.entries.insert(fingerprint, (offset, len));
        true
    }

    /// Looks up a chunk's content by fingerprint.
    pub fn get(&self, fingerprint: &Fingerprint) -> Option<&[u8]> {
        self.entries
            .get(fingerprint)
            .map(|&(off, len)| &self.data()[off as usize..(off + len) as usize])
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
        self.used_bytes() - self.dead_bytes
    }

    /// Bytes occupied in the data section, live or dead.
    pub fn used_bytes(&self) -> usize {
        self.data().len()
    }

    /// The data section: the buffer from `data_start` on.
    fn data(&self) -> &[u8] {
        &self.buf[self.data_start..]
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
        let data = self.data();
        self.physical_order()
            .into_iter()
            .map(move |(fp, (off, len))| (fp, &data[off as usize..(off + len) as usize]))
    }

    /// The live entries by offset. An empty chunk shares its offset with
    /// the next chunk, so ties go by fingerprint: the table's `HashMap`
    /// order differs between two containers with the same contents.
    fn physical_order(&self) -> Vec<(Fingerprint, (u32, u32))> {
        let mut order: Vec<(Fingerprint, (u32, u32))> =
            self.entries.iter().map(|(fp, &sl)| (*fp, sl)).collect();
        order.sort_unstable_by_key(|&(fp, (off, _))| (off, fp));
        order
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

    /// Rewrites the data section dropping dead bytes. Chunk offsets change;
    /// the metadata table is updated accordingly.
    pub fn compact_in_place(&mut self) {
        if self.dead_bytes == 0 {
            return;
        }
        let start = self.data_start;
        let mut new_off = 0;
        // Preserve current physical order to keep locality of insertion.
        for (fp, (off, len)) in self.physical_order() {
            let (from, to) = (start + off as usize, start + new_off as usize);
            self.buf.copy_within(from..from + len as usize, to);
            self.entries.insert(fp, (new_off, len));
            new_off += len;
        }
        self.buf.truncate(start + new_off as usize);
        self.dead_bytes = 0;
    }

    /// Serializes the container to the on-disk format used by
    /// [`crate::FileContainerStore`].
    ///
    /// Layout: magic `b"HDSC"`, u32 id, u32 version_tag, u64 capacity,
    /// u32 entry count, u32 data length, then per-entry
    /// (20-byte fp, u32 offset, u32 len) in fingerprint order, then the
    /// data section (live and dead bytes as-is).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(self.encoded_len());
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Length of [`Container::encode`]'s output.
    pub fn encoded_len(&self) -> usize {
        32 + self.entries.len() * ENTRY_LEN + self.used_bytes()
    }

    /// Appends [`Container::encode`]'s output to `w`: a caller that sized
    /// `w` with [`Container::encoded_len`] decides where the bytes live,
    /// whichever thread encodes them.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        w.raw(MAGIC);
        w.u32(self.id.get());
        w.u32(self.version_tag);
        w.u64(self.capacity as u64);
        w.len_u32(self.entries.len());
        w.len_u32(self.used_bytes());
        let mut entries: Vec<(&Fingerprint, &(u32, u32))> = self.entries.iter().collect();
        entries.sort_by_key(|&(fp, _)| *fp);
        for (fp, &(off, len)) in entries {
            w.raw(fp.as_bytes());
            w.u32(off);
            w.u32(len);
        }
        w.raw(self.data());
    }

    /// Parses a container from the [`Container::encode`] format, taking
    /// ownership of `bytes`: the data section stays where it is in the
    /// buffer and is not copied again.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first structural problem found,
    /// including bytes past the end of the data section.
    pub fn decode(bytes: Vec<u8>) -> Result<Self, String> {
        let malformed = |e| format!("malformed container: {e}");
        let mut r = ByteReader::new(&bytes);
        if r.array().map_err(malformed)? != *MAGIC {
            return Err("bad container magic".into());
        }
        let id = r.u32().map_err(malformed)?;
        if id == 0 {
            return Err("container id 0 is invalid".into());
        }
        let version_tag = r.u32().map_err(malformed)?;
        let capacity = r.u64().map_err(malformed)? as usize;
        let n_entries = r
            .count_within("container entries", ENTRY_LEN)
            .map_err(malformed)?;
        let data_len = r.u32().map_err(malformed)?;
        let mut entries = HashMap::with_capacity(n_entries);
        let mut live_bytes = 0usize;
        for _ in 0..n_entries {
            let fp = Fingerprint::from_bytes(r.array().map_err(malformed)?);
            let off = r.u32().map_err(malformed)?;
            let len = r.u32().map_err(malformed)?;
            if off as u64 + len as u64 > data_len as u64 {
                return Err(format!("entry extends past data section: {off}+{len}"));
            }
            live_bytes += len as usize;
            entries.insert(fp, (off, len));
        }
        let data_start = bytes.len() - r.remaining();
        r.bytes(data_len as usize).map_err(malformed)?;
        r.finish().map_err(malformed)?;
        Ok(Container {
            id: ContainerId::new(id),
            version_tag,
            capacity,
            entries,
            dead_bytes: (data_len as usize).saturating_sub(live_bytes),
            buf: bytes,
            data_start,
        })
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
        let decoded = Container::decode(c.encode()).unwrap();
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
        assert!(Container::decode(Vec::new()).is_err());
        assert!(Container::decode(b"NOPE".to_vec()).is_err());
        assert!(Container::decode(vec![0u8; 64]).is_err());
        // Truncated valid prefix.
        let mut c = Container::new(ContainerId::new(1), 64);
        c.try_add(fp(1), b"data");
        let enc = c.encode();
        assert!(Container::decode(enc[..enc.len() - 2].to_vec()).is_err());
        // An entry count the file cannot hold fails typed, before any
        // table is sized from it.
        let mut huge = enc.clone();
        huge[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = Container::decode(huge).unwrap_err();
        assert!(err.contains("container entries"), "{err}");
    }

    #[test]
    fn decode_rejects_bytes_past_the_data_section() {
        let mut c = Container::new(ContainerId::new(1), 64);
        c.try_add(fp(1), b"data");
        let mut extended = c.encode();
        extended.extend_from_slice(&[0u8; 15]);
        let err = Container::decode(extended).unwrap_err();
        assert!(err.contains("15 trailing bytes"), "{err}");
    }

    /// Every observable of two containers that must be indistinguishable.
    fn assert_same(built: &Container, decoded: &Container, step: &str) {
        assert_eq!(built.encode(), decoded.encode(), "{step}: encode");
        assert_eq!(built.encoded_len(), decoded.encoded_len(), "{step}");
        assert_eq!(
            built.iter().collect::<Vec<_>>(),
            decoded.iter().collect::<Vec<_>>(),
            "{step}: iter order"
        );
        for i in 0..40 {
            assert_eq!(built.get(&fp(i)), decoded.get(&fp(i)), "{step}: get {i}");
        }
        assert_eq!(built.live_bytes(), decoded.live_bytes(), "{step}");
        assert_eq!(built.used_bytes(), decoded.used_bytes(), "{step}");
        assert_eq!(
            built.utilization().to_bits(),
            decoded.utilization().to_bits(),
            "{step}"
        );
    }

    #[test]
    fn decoded_container_behaves_like_the_built_one() {
        let mut a = Container::new(ContainerId::new(9), 1000);
        a.set_version_tag(3);
        for i in 0..10 {
            assert!(a.try_add(fp(i), &vec![i as u8 + 1; 40 + i as usize]));
        }
        let mut b = Container::decode(a.encode()).unwrap();
        assert_same(&a, &b, "decoded");

        for c in [&mut a, &mut b] {
            assert!(c.remove(&fp(2)));
            assert!(c.remove(&fp(7)));
        }
        assert_same(&a, &b, "removed");

        a.compact_in_place();
        b.compact_in_place();
        assert_same(&a, &b, "compacted");

        let mut next = 10;
        loop {
            let room = a.capacity() - a.used_bytes();
            if room == 0 {
                break;
            }
            let len = room.min(64);
            let chunk = vec![next as u8; len];
            assert!(a.try_add(fp(next), &chunk));
            assert!(b.try_add(fp(next), &chunk));
            next += 1;
        }
        assert_eq!(a.used_bytes(), a.capacity(), "exactly full");
        assert_same(&a, &b, "filled");

        assert!(!a.try_add(fp(next), b"x"));
        assert!(!b.try_add(fp(next), b"x"));
        assert_same(&a, &b, "overflow rejected");
    }

    #[test]
    fn empty_chunks_order_by_fingerprint_at_a_shared_offset() {
        let mut c = Container::new(ContainerId::new(1), 64);
        for i in [9, 3, 7] {
            assert!(c.try_add(fp(i), b""));
        }
        c.try_add(fp(5), b"five");
        let want = {
            let mut fps = vec![fp(3), fp(5), fp(7), fp(9)];
            fps.sort();
            fps
        };
        let order: Vec<Fingerprint> = c.iter().map(|(fp, _)| fp).collect();
        assert_eq!(order, want);
        c.remove(&fp(7));
        c.compact_in_place();
        assert!(c.try_add(fp(7), b""));
        assert_eq!(c.get(&fp(5)), Some(&b"five"[..]));
        assert_same(&c, &Container::decode(c.encode()).unwrap(), "empty chunks");
    }

    #[test]
    fn decode_keeps_the_chunks_in_the_buffer_it_was_given() {
        let mut c = Container::new(ContainerId::new(1), 4096);
        for i in 0..20 {
            c.try_add(fp(i), &vec![i as u8; 50 + i as usize]);
        }
        c.remove(&fp(4));
        let buf = c.encode();
        let range = buf.as_ptr_range();
        let decoded = Container::decode(buf).unwrap();
        assert_eq!(decoded.iter().count(), 19);
        for (fp, chunk) in decoded.iter() {
            let inside = chunk.as_ptr_range();
            assert!(
                range.start <= inside.start && inside.end <= range.end,
                "chunk {fp:?} was copied out of the decoded buffer"
            );
        }
    }

    #[test]
    fn iter_is_in_physical_order() {
        let mut c = Container::new(ContainerId::new(1), 1024);
        c.try_add(fp(3), b"c3");
        c.try_add(fp(1), b"c1");
        c.try_add(fp(2), b"c2");
        let chunks: Vec<_> = c.iter().collect();
        assert_eq!(
            chunks,
            [
                (fp(3), &b"c3"[..]),
                (fp(1), &b"c1"[..]),
                (fp(2), &b"c2"[..])
            ]
        );
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
