//! Fixture: library code that aborts instead of returning an error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Unwraps a value the caller may not have.
pub fn first(xs: &[u8]) -> u8 {
    *xs.first().unwrap()
}
