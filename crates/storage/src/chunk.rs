//! Filler content for trace-driven backups.

use hidestore_hash::Fingerprint;

/// `size` bytes of trace-mode filler derived from `fingerprint` (its bytes
/// repeated). Used by the `backup_trace` entry points that replay
/// fingerprint traces without real content; the filler does **not** hash
/// back to `fingerprint`, so trace-mode repositories serve counted
/// experiments, not content verification.
///
/// # Examples
///
/// ```
/// use hidestore_hash::Fingerprint;
/// use hidestore_storage::synthetic_chunk;
///
/// let fp = Fingerprint::synthetic(5);
/// let data = synthetic_chunk(fp, 50);
/// assert_eq!(data.len(), 50);
/// assert_eq!(&data[..20], fp.as_bytes());
/// ```
pub fn synthetic_chunk(fingerprint: Fingerprint, size: u32) -> Vec<u8> {
    let mut data = Vec::with_capacity(size as usize);
    while data.len() < size as usize {
        let take = (size as usize - data.len()).min(20);
        data.extend_from_slice(&fingerprint.as_bytes()[..take]);
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_has_requested_size() {
        let fp = Fingerprint::synthetic(5);
        let data = synthetic_chunk(fp, 100);
        assert_eq!(data.len(), 100);
        assert_eq!(&data[..20], fp.as_bytes());
        assert_eq!(&data[80..], &fp.as_bytes()[..]);
        assert!(synthetic_chunk(fp, 0).is_empty());
    }
}
