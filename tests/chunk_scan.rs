//! Cut-point stability of the Rabin/TTTD chunk scan.
//!
//! Deduplication against an existing repository only works while a chunker
//! keeps cutting where it always has, so the table-driven slice scan in
//! `hidestore_chunking::rolling` is held to two standards here:
//!
//! * **Differential**: on one version of each paper workload it must cut
//!   exactly where a from-first-principles reference cuts — bit-serial GF(2)
//!   reduction, a ring-buffer window, hardware `%` — written out below and
//!   sharing no code with the crate.
//! * **Golden**: for fixed seeded inputs the number of chunks and the SHA-1
//!   of the little-endian cut offsets equal constants recorded from the
//!   commit *before* the scan was rewritten. The differential cannot see a
//!   change that moves scan and reference together; this can.

use hidestore::chunking::{chunk_spans, Chunker, RabinChunker, TttdChunker};
use hidestore::hash::Sha1;
use hidestore::workloads::{Profile, VersionStream};

const POLY: u64 = 0x003D_A335_8B4D_C173;
const WINDOW: usize = 48;

fn degree(p: u64) -> i32 {
    63 - p.leading_zeros() as i32
}

fn polymod(mut a: u64) -> u64 {
    while degree(a) >= 53 {
        a ^= POLY << (degree(a) - 53);
    }
    a
}

/// x^n mod P, one multiplication by x at a time.
fn pow_of_x(n: usize) -> u64 {
    (0..n).fold(1u64, |acc, _| polymod(acc << 1))
}

/// The chunk rule as specified: `backup = None` is plain Rabin CDC,
/// `Some(d)` is TTTD's second divisor.
struct Reference {
    min: usize,
    max: usize,
    main: u64,
    backup: Option<u64>,
    expire: [u64; 256],
}

impl Reference {
    fn new(min: usize, max: usize, main: u64, backup: Option<u64>) -> Self {
        let xw = pow_of_x(8 * (WINDOW - 1));
        let mut expire = [0u64; 256];
        for (b, entry) in expire.iter_mut().enumerate() {
            // b * x^(8*(W-1)) mod P by shift-and-add over the bits of b.
            let mut term = xw;
            for bit in 0..8 {
                if b >> bit & 1 == 1 {
                    *entry ^= term;
                }
                term = polymod(term << 1);
            }
        }
        Reference {
            min,
            max,
            main,
            backup,
            expire,
        }
    }

    /// HP TR 2005-30 ratios, as `TttdChunker::new` scales them.
    fn tttd(avg: usize) -> Self {
        let scale = avg as f64 / 1015.0;
        let min = ((460.0 * scale) as usize).max(1);
        let max = ((2800.0 * scale) as usize).max(min + 1);
        let main = ((540.0 * scale) as u64).max(2);
        Self::new(min, max, main, Some((main / 2).max(1)))
    }

    fn rabin(avg: usize) -> Self {
        Self::new(avg / 4, avg * 8, avg as u64, None)
    }

    fn next_chunk_len(&self, data: &[u8]) -> usize {
        if data.len() <= self.min {
            return data.len();
        }
        let limit = data.len().min(self.max);
        let mut ring = [0u8; WINDOW];
        let mut head = 0;
        let mut hash = 0u64;
        let mut backup_cut = None;
        for (pos, &byte) in data[..limit]
            .iter()
            .enumerate()
            .skip(self.min.saturating_sub(WINDOW))
        {
            hash ^= self.expire[ring[head] as usize];
            ring[head] = byte;
            head = (head + 1) % WINDOW;
            hash = polymod((hash << 8) | byte as u64);
            if pos < self.min {
                continue;
            }
            if hash % self.main == self.main - 1 {
                return pos + 1;
            }
            if self.backup.is_some_and(|d| hash % d == d - 1) {
                backup_cut = Some(pos + 1);
            }
        }
        if limit < self.max {
            return data.len();
        }
        backup_cut.unwrap_or(limit)
    }

    fn cuts(&self, data: &[u8]) -> Vec<usize> {
        let mut cuts = Vec::new();
        let mut pos = 0;
        while pos < data.len() {
            pos += self.next_chunk_len(&data[pos..]);
            cuts.push(pos);
        }
        cuts
    }
}

fn cuts<C: Chunker>(mut chunker: C, data: &[u8]) -> Vec<usize> {
    chunk_spans(&mut chunker, data)
        .iter()
        .map(|s| s.end)
        .collect()
}

#[test]
fn scan_cuts_where_the_bit_serial_reference_cuts_on_every_workload() {
    for profile in [
        Profile::Kernel,
        Profile::Macos,
        Profile::Gcc,
        Profile::Fslhomes,
    ] {
        // Version 2: an edited tree, so unchanged, modified and new regions
        // are all present.
        let mut stream = VersionStream::new(profile.spec().scaled(3 << 20, 2), 20);
        stream.next_version();
        let data = stream.next_version();
        for avg in [4096, 8192] {
            assert_eq!(
                cuts(TttdChunker::new(avg), &data),
                Reference::tttd(avg).cuts(&data),
                "{profile:?}: tttd {avg}"
            );
            assert_eq!(
                cuts(RabinChunker::new(avg), &data),
                Reference::rabin(avg).cuts(&data),
                "{profile:?}: rabin {avg}"
            );
        }
    }
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn noise(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| (xorshift(&mut state) >> 32) as u8)
        .collect()
}

/// Runs of noise, zeros, one repeated byte, period-7 text and 2-bit noise,
/// each up to 48 KiB: exercises main-divisor, backup-divisor and forced
/// max-size cuts in one stream.
fn mixed(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let kind = xorshift(&mut state) % 5;
        let run = 1 + (xorshift(&mut state) % (48 << 10)) as usize;
        let fill = (xorshift(&mut state) >> 40) as u8;
        for i in 0..run.min(len - out.len()) {
            out.push(match kind {
                0 => (xorshift(&mut state) >> 32) as u8,
                1 => 0,
                2 => fill,
                3 => b"backup\n"[i % 7],
                _ => (xorshift(&mut state) >> 32) as u8 & 0x03,
            });
        }
    }
    out
}

/// Chunk count and SHA-1 over the cut offsets as little-endian u64s.
fn digest(cuts: &[usize]) -> (usize, String) {
    let mut sha = Sha1::new();
    for &cut in cuts {
        sha.update(&(cut as u64).to_le_bytes());
    }
    let hex = sha.finalize().iter().map(|b| format!("{b:02x}")).collect();
    (cuts.len(), hex)
}

#[test]
fn cut_points_match_the_constants_recorded_before_the_table_driven_scan() {
    // (min_size, max_size) of TttdChunker::new(avg); the divisors are pinned
    // beside the struct in crates/chunking/src/tttd.rs.
    for (avg, min, max) in [(1024, 464, 2824), (4096, 1856, 11299), (8192, 3712, 22598)] {
        let c = TttdChunker::new(avg);
        assert_eq!((c.min_size(), c.max_size()), (min, max), "tttd {avg}");
    }

    let noise = noise(1 << 20, 20);
    let mixed = mixed(2 << 20, 20);
    let tttd = |avg: usize, data: &[u8]| cuts(TttdChunker::new(avg), data);
    let rabin = |avg: usize, data: &[u8]| cuts(RabinChunker::new(avg), data);
    #[rustfmt::skip]
    let golden = [
        ("tttd 1024 noise", tttd(1024, &noise), 1040, "8f32f6a8de7df9cc71439d29df68467a33d5fddc"),
        ("tttd 4096 noise", tttd(4096, &noise), 268, "95d5421f3c8af27abf755b80522ecbfd042406e0"),
        ("tttd 8192 noise", tttd(8192, &noise), 132, "29590fcf83900d377eaa5ed0ae40d922c728949e"),
        ("tttd 1024 mixed", tttd(1024, &mixed), 1313, "34ab8ef5edf611f42f47257c1d75f67b6aa94496"),
        ("tttd 4096 mixed", tttd(4096, &mixed), 339, "07eba68e7a0e15a002c21ba5b5f26f7c3f720c62"),
        ("tttd 8192 mixed", tttd(8192, &mixed), 162, "1bf3fad0e6d21f5f9a86f22de84a7f61ef3ebb28"),
        ("rabin 4096 noise", rabin(4096, &noise), 203, "447f5bd951a4026b9bd66543201ec31e5e7aaee1"),
        ("rabin 4096 mixed", rabin(4096, &mixed), 214, "2c0068e227432b91b617845d030f161923e8e837"),
    ];
    for (name, cuts, chunks, sha1) in golden {
        assert_eq!(digest(&cuts), (chunks, sha1.to_string()), "{name}");
    }
}
