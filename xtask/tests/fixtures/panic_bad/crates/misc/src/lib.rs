//! Fixture: a `todo!` placeholder shipped in library code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Not implemented yet — the marker the panic-audit rule forbids.
pub fn later() {
    todo!()
}
