//! Fixture: lock poisoning punted to a panic via `.lock().unwrap()`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Mutex;

/// A counter behind one lock.
pub struct Counter {
    state: Mutex<u32>,
}

impl Counter {
    /// Increments, panicking if a previous holder panicked.
    pub fn bump(&self) {
        let mut g = self.state.lock().unwrap();
        *g += 1;
    }
}
