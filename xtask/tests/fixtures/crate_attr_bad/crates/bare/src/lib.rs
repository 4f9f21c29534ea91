//! Fixture: a crate root without the mandatory attributes.

/// Adds without overflow.
pub fn add(a: u32, b: u32) -> u32 {
    a.wrapping_add(b)
}
