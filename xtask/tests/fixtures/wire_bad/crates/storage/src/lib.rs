//! Fixture: an on-disk decoder that sizes a table from an unchecked count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;

/// Builds a table sized by a count read from the file, unchecked.
pub fn table(count: usize) -> HashMap<u64, u64> {
    HashMap::with_capacity(count)
}
