//! A restore wrapper that verifies chunk integrity on the fly.

use std::io::Write;

use hidestore_hash::Fingerprint;
use hidestore_storage::ContainerStore;

use crate::{RestoreCache, RestoreEntry, RestoreError, RestoreReport};

/// Wraps any restore scheme and re-hashes every restored chunk against its
/// recipe fingerprint, failing the restore on the first mismatch.
///
/// Verification costs one SHA-1 pass over the output, so production restores
/// run unverified and `hidestore verify`-style scrubs (or this wrapper, for
/// paranoid restores) check integrity explicitly. Container reads and the
/// speed factor are unchanged — verification is pure CPU.
///
/// # Examples
///
/// ```
/// use hidestore_restore::{Faa, RestoreCache, VerifyingRestore};
///
/// let cache = VerifyingRestore::new(Faa::new(1 << 20));
/// assert_eq!(cache.name(), "verifying");
/// ```
#[derive(Debug)]
pub struct VerifyingRestore<C> {
    inner: C,
}

impl<C: RestoreCache> VerifyingRestore<C> {
    /// Wraps a restore scheme.
    pub fn new(inner: C) -> Self {
        VerifyingRestore { inner }
    }

    /// Unwraps the inner scheme.
    pub fn into_inner(self) -> C {
        self.inner
    }
}

/// A writer that slices the restored stream back into chunks and re-hashes
/// each against the plan.
struct VerifyingWriter<'a, W> {
    out: W,
    plan: &'a [RestoreEntry],
    next: usize,
    pending: Vec<u8>,
    mismatch: Option<(Fingerprint, hidestore_storage::ContainerId)>,
}

impl<W: Write> Write for VerifyingWriter<'_, W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.pending.extend_from_slice(buf);
        // Consume whole chunks from the front of `pending`.
        while self.next < self.plan.len() {
            let want = self.plan[self.next].size as usize;
            if self.pending.len() < want {
                break;
            }
            let chunk: Vec<u8> = self.pending.drain(..want).collect();
            if Fingerprint::of(&chunk) != self.plan[self.next].fingerprint
                && self.mismatch.is_none()
            {
                self.mismatch = Some((
                    self.plan[self.next].fingerprint,
                    self.plan[self.next].container,
                ));
            }
            self.out.write_all(&chunk)?;
            self.next += 1;
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.out.flush()
    }
}

impl<C: RestoreCache> RestoreCache for VerifyingRestore<C> {
    fn restore(
        &mut self,
        plan: &[RestoreEntry],
        store: &dyn ContainerStore,
        out: &mut dyn Write,
    ) -> Result<RestoreReport, RestoreError> {
        let mut writer = VerifyingWriter {
            out,
            plan,
            next: 0,
            pending: Vec::new(),
            mismatch: None,
        };
        let report = self.inner.restore(plan, store, &mut writer)?;
        if let Some((fingerprint, container)) = writer.mismatch {
            return Err(RestoreError::MissingChunk {
                fingerprint,
                container,
            });
        }
        Ok(report)
    }

    fn name(&self) -> &'static str {
        "verifying"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::sequential_fixture;
    use crate::Faa;
    use hidestore_storage::{Container, ContainerId};

    #[test]
    fn clean_restore_passes() {
        let (store, plan, expect) = sequential_fixture(4, 8, 256);
        let mut cache = VerifyingRestore::new(Faa::new(1 << 18));
        let mut out = Vec::new();
        let report = cache.restore(&plan, &store, &mut out).unwrap();
        assert_eq!(out, expect);
        assert_eq!(report.bytes_restored, expect.len() as u64);
    }

    #[test]
    fn detects_silent_corruption() {
        // Build a container whose chunk content does not match the plan's
        // fingerprint (simulating bit rot that kept the metadata intact).
        let (mut store, mut plan, _) = sequential_fixture(2, 4, 128);
        let honest_fp = plan[0].fingerprint;
        let mut evil = Container::new(ContainerId::new(9), 1024);
        evil.try_add(honest_fp, b"not the original content");
        store.write(evil).unwrap();
        plan[0].container = ContainerId::new(9);
        plan[0].size = 24;

        let mut cache = VerifyingRestore::new(Faa::new(1 << 18));
        let err = cache.restore(&plan, &store, &mut Vec::new()).unwrap_err();
        assert!(
            matches!(err, RestoreError::MissingChunk { fingerprint, .. } if fingerprint == honest_fp)
        );

        // The unverified scheme restores the corrupt bytes silently.
        let mut plain = Faa::new(1 << 18);
        assert!(plain.restore(&plan, &store, &mut Vec::new()).is_ok());
    }

    #[test]
    fn reads_and_speed_factor_unchanged() {
        let (s1, plan, _) = sequential_fixture(4, 8, 256);
        let (s2, _, _) = sequential_fixture(4, 8, 256);
        let plain = Faa::new(1 << 18)
            .restore(&plan, &s1, &mut Vec::new())
            .unwrap();
        let verified = VerifyingRestore::new(Faa::new(1 << 18))
            .restore(&plan, &s2, &mut Vec::new())
            .unwrap();
        assert_eq!(plain.container_reads, verified.container_reads);
    }
}
