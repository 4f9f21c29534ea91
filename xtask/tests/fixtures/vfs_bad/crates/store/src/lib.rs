//! Fixture: direct `std::fs` repository I/O outside the Vfs shim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Writes bytes straight through `std::fs`, bypassing the shim.
pub fn persist(path: &std::path::Path, data: &[u8]) -> std::io::Result<()> {
    std::fs::write(path, data)
}
