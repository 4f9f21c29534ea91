//! Violation-free fixture crate: `analyze` must exit 0 here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Adds without overflow.
pub fn add(a: u32, b: u32) -> u32 {
    a.wrapping_add(b)
}
