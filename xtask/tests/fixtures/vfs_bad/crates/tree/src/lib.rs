//! Fixture: a tree walk reading source files without the Vfs shim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;

/// Reads a file straight through `fs::read`, bypassing the shim.
pub fn slurp(path: &std::path::Path) -> std::io::Result<Vec<u8>> {
    fs::read(path)
}
