//! Sequential container filling with explicit seal handoff.
//!
//! Every sealed container of the workspace is filled by this one loop:
//! append chunks to an open container, seal it when full, open the next one
//! under a fresh ID. Its callers are the Destor-style pipeline's commit
//! stage and mark-sweep GC merge (`hidestore_dedup`), and HiDeStore's
//! archival writers (`hidestore_core`): cold demotion and re-clustering.
//! The [`ContainerBuilder`] owns exactly that state — the open container
//! and the ID counter — and *returns* sealed containers to the caller
//! instead of writing them itself, so the caller decides when and where
//! each one is persisted and keeps the next ID.

use hidestore_hash::Fingerprint;

use crate::container::{Container, ContainerId};

/// Fills containers sequentially, sealing full ones back to the caller.
///
/// # Examples
///
/// ```
/// use hidestore_storage::ContainerBuilder;
/// use hidestore_hash::Fingerprint;
///
/// let mut builder = ContainerBuilder::new(1, 64);
/// let (cid, sealed) = builder.append(Fingerprint::of(b"a"), &[0u8; 40]);
/// assert_eq!(cid.get(), 1);
/// assert!(sealed.is_none());
/// // The next chunk does not fit: container 1 is sealed and handed back.
/// let (cid, sealed) = builder.append(Fingerprint::of(b"b"), &[1u8; 40]);
/// assert_eq!(cid.get(), 2);
/// assert_eq!(sealed.map(|c| c.id().get()), Some(1));
/// ```
#[derive(Debug)]
pub struct ContainerBuilder {
    next_id: u32,
    capacity: usize,
    version_tag: u32,
    open: Option<Container>,
}

impl ContainerBuilder {
    /// Creates a builder that numbers containers starting at `next_id`.
    ///
    /// # Panics
    ///
    /// Panics if `next_id` is 0 (reserved) or `capacity` is 0.
    pub fn new(next_id: u32, capacity: usize) -> Self {
        assert!(next_id != 0, "container id 0 is reserved");
        assert!(capacity > 0, "container capacity must be non-zero");
        ContainerBuilder {
            next_id,
            capacity,
            version_tag: 0,
            open: None,
        }
    }

    /// Tags every container opened *from now on* with `version` (see
    /// [`Container::set_version_tag`]); pass 0 to stop tagging.
    pub fn set_version_tag(&mut self, version: u32) {
        self.version_tag = version;
    }

    /// Appends a chunk, returning the container it landed in and, when the
    /// previously open container had to be sealed to make room, that sealed
    /// container for the caller to persist.
    ///
    /// If the open container already holds `fingerprint`, its ID is returned
    /// without storing a second copy (the caller deduplicated across
    /// containers already; this catches back-to-back duplicates within one).
    ///
    /// # Panics
    ///
    /// Panics if `data` is larger than the builder's container capacity.
    pub fn append(
        &mut self,
        fingerprint: Fingerprint,
        data: &[u8],
    ) -> (ContainerId, Option<Container>) {
        assert!(
            data.len() <= self.capacity,
            "chunk of {} bytes exceeds container capacity {}",
            data.len(),
            self.capacity
        );
        let mut sealed = None;
        loop {
            let container = match self.open.as_mut() {
                Some(c) => c,
                None => {
                    let id = ContainerId::new(self.next_id);
                    self.next_id += 1;
                    let mut c = Container::new(id, self.capacity);
                    if self.version_tag != 0 {
                        c.set_version_tag(self.version_tag);
                    }
                    self.open.insert(c)
                }
            };
            if container.contains(&fingerprint) {
                return (container.id(), sealed);
            }
            if container.try_add(fingerprint, data) {
                return (container.id(), sealed);
            }
            // Full: seal and retry with a fresh container. At most one seal
            // per append because the chunk fits an empty container.
            sealed = self.open.take();
        }
    }

    /// Takes the open container out of the builder (e.g. to seal it at a
    /// version boundary). Returns `None` if nothing is open.
    pub fn take_open(&mut self) -> Option<Container> {
        self.open.take()
    }

    /// The ID the next freshly opened container will get.
    pub fn next_id(&self) -> u32 {
        self.next_id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: u64) -> Fingerprint {
        Fingerprint::synthetic(n)
    }

    #[test]
    fn builder_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ContainerBuilder>();
    }

    #[test]
    fn fills_and_seals_in_order() {
        let mut b = ContainerBuilder::new(1, 100);
        let mut sealed_ids = Vec::new();
        for i in 0..10u64 {
            let (cid, sealed) = b.append(fp(i), &[i as u8; 40]);
            assert!(cid.get() >= 1);
            if let Some(c) = sealed {
                sealed_ids.push(c.id().get());
            }
        }
        // 2 chunks of 40 bytes per 100-byte container: 10 chunks = 5
        // containers, 4 sealed plus 1 still open.
        assert_eq!(sealed_ids, vec![1, 2, 3, 4]);
        assert_eq!(b.next_id(), 6);
        assert_eq!(b.take_open().map(|c| c.id().get()), Some(5));
    }

    #[test]
    fn duplicate_in_open_container_returns_same_cid() {
        let mut b = ContainerBuilder::new(7, 1024);
        let (c1, _) = b.append(fp(1), b"data");
        let (c2, sealed) = b.append(fp(1), b"data");
        assert_eq!(c1, c2);
        assert!(sealed.is_none());
        assert_eq!(b.take_open().map(|c| c.chunk_count()), Some(1));
    }

    #[test]
    fn version_tag_applied_to_new_containers() {
        let mut b = ContainerBuilder::new(1, 100);
        b.set_version_tag(9);
        let (_, _) = b.append(fp(1), &[0u8; 60]);
        let (_, sealed) = b.append(fp(2), &[1u8; 60]);
        let sealed = sealed.into_iter().next().unwrap();
        assert_eq!(sealed.version_tag(), 9);
        assert_eq!(b.take_open().map(|c| c.version_tag()), Some(9));
    }

    #[test]
    fn take_open_empties_builder() {
        let mut b = ContainerBuilder::new(1, 100);
        b.append(fp(1), b"x");
        assert!(b.take_open().is_some());
        assert!(b.take_open().is_none());
        // Appending again opens a fresh container under the next ID.
        let (cid, _) = b.append(fp(2), b"y");
        assert_eq!(cid.get(), 2);
    }

    #[test]
    #[should_panic(expected = "exceeds container capacity")]
    fn oversized_chunk_rejected() {
        let mut b = ContainerBuilder::new(1, 8);
        b.append(fp(1), &[0u8; 9]);
    }
}
