//! Fixture: two functions acquire the same locks in opposite orders.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Mutex;

/// A pair of counters behind independent locks.
pub struct Pair {
    alpha: Mutex<u32>,
    beta: Mutex<u32>,
}

impl Pair {
    /// Acquires alpha, then beta.
    pub fn forward(&self) -> u32 {
        let a = self.alpha.lock().unwrap_or_else(|e| e.into_inner());
        let b = self.beta.lock().unwrap_or_else(|e| e.into_inner());
        *a + *b
    }

    /// Acquires beta, then alpha — the conflicting order.
    pub fn backward(&self) -> u32 {
        let b = self.beta.lock().unwrap_or_else(|e| e.into_inner());
        let a = self.alpha.lock().unwrap_or_else(|e| e.into_inner());
        *b - *a
    }
}
