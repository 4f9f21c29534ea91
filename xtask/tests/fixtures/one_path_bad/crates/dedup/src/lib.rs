//! Fixture: a second fan-out engine outside `hidestore_hash::map_ordered`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Sums both halves of `data` on two scoped threads.
pub fn sum(data: &[u64]) -> u64 {
    std::thread::scope(|scope| {
        let (left, right) = data.split_at(data.len() / 2);
        let other = scope.spawn(|| right.iter().sum::<u64>());
        left.iter().sum::<u64>() + other.join().unwrap_or(0)
    })
}
