//! Fixture: truncating length cast and unbounded wire-sized allocation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Announces a length as `u32`, silently truncating on 32-bit overflow.
pub fn announce(len: usize) -> u32 {
    len as u32
}

/// Allocates from a wire-derived count with no visible bound.
pub fn reserve(count: usize) -> Vec<u64> {
    Vec::with_capacity(count)
}

/// Most sessions a table admits; it bounds nothing below.
pub const MAX_SESSIONS: usize = 64;

/// Allocates from a wire-derived count below an unrelated `MAX_*` bound.
pub fn reserve_after_an_unrelated_bound(count: usize) -> Vec<u64> {
    let _sessions = MAX_SESSIONS;
    Vec::with_capacity(count)
}
