//! Rolling-hash primitives shared by the content-defined chunkers.
//!
//! Two families are provided:
//!
//! * A true Rabin fingerprint over GF(2) polynomials with a fixed
//!   irreducible modulus, as used by LBFS-style CDC. Table-driven: appending
//!   a byte (one reduction-table lookup) and expiring the oldest window byte
//!   (one expiry-table lookup) are both O(1) and branch-free. The Rabin and
//!   TTTD chunkers run it as one stateless scan over a slice (`CutScan`: the
//!   expiring byte is `data[i - window]`, and two lanes roll over adjacent
//!   blocks in lockstep), and do their `h % D == D - 1` tests with one
//!   multiplication by a precomputed modular inverse (`Divisor`) instead of
//!   dividing. Cut points are those of the bit-serial, ring-buffer,
//!   hardware-`%` scan this replaced, which survives as the test oracle.
//! * [`gear_table`] / [`gear_step`] — the gear hash used by FastCDC; a single
//!   shift-and-add per byte with a random byte-to-u64 substitution table.

/// The irreducible degree-53 polynomial used by LBFS and most Rabin CDC
/// implementations (0x3DA3358B4DC173 in the usual notation).
pub const RABIN_POLYNOMIAL: u64 = 0x003D_A335_8B4D_C173;

/// Default rolling window width in bytes for Rabin chunking.
pub const DEFAULT_WINDOW: usize = 48;

/// Fingerprints are residues modulo a degree-53 polynomial: below 2^53.
const HASH_BITS: u32 = 53;

/// Degree of a GF(2) polynomial represented as a bit set (u64), or -1 for 0.
const fn degree(p: u64) -> i32 {
    63 - p.leading_zeros() as i32
}

/// Multiplies two GF(2) polynomials modulo `modulus` (carry-less).
const fn polymod_mul(mut a: u64, mut b: u64, modulus: u64) -> u64 {
    let mut result = 0u64;
    let deg = degree(modulus);
    a = polymod(a, modulus);
    while b != 0 {
        if b & 1 != 0 {
            result ^= a;
        }
        b >>= 1;
        a <<= 1;
        if degree(a) == deg {
            a ^= modulus;
        }
    }
    polymod(result, modulus)
}

/// Reduces polynomial `a` modulo `modulus` over GF(2), one bit per round.
/// Only table construction (and the test reference) pays for this loop.
const fn polymod(mut a: u64, modulus: u64) -> u64 {
    let dm = degree(modulus);
    if dm < 0 {
        return a;
    }
    while degree(a) >= dm {
        a ^= modulus << (degree(a) - dm);
    }
    a
}

/// Computes x^n mod `modulus` over GF(2) by square-and-multiply.
const fn polymod_pow_of_x(n: u32, modulus: u64) -> u64 {
    let mut result = 1u64; // x^0
    let mut base = 2u64; // x^1
    let mut n = n;
    while n > 0 {
        if n & 1 == 1 {
            result = polymod_mul(result, base, modulus);
        }
        base = polymod_mul(base, base, modulus);
        n >>= 1;
    }
    result
}

/// `table[t] = (t << 53) ^ ((t << 53) mod P)`: xoring it into a 61-bit value
/// whose bits 53..61 are `t` clears them and adds their residue, which by
/// linearity is the whole value mod P.
const fn reduce_table() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut t = 0;
    while t < 256 {
        let top = (t as u64) << HASH_BITS;
        table[t] = top ^ polymod(top, RABIN_POLYNOMIAL);
        t += 1;
    }
    table
}

/// `table[b] = b * x^(8*(window-1)) mod P`: the contribution of the oldest
/// window byte. It is removed *before* the <<8 append step, at which point
/// its positional weight is x^(8*(window-1)), as in LBFS.
const fn expire_table(window: usize) -> [u64; 256] {
    let xw = polymod_pow_of_x((8 * (window - 1)) as u32, RABIN_POLYNOMIAL);
    let mut table = [0u64; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = polymod_mul(b as u64, xw, RABIN_POLYNOMIAL);
        b += 1;
    }
    table
}

static REDUCE: [u64; 256] = reduce_table();
static EXPIRE_DEFAULT: [u64; 256] = expire_table(DEFAULT_WINDOW);

/// One rolling step: drop `expired` (the expiry-table entry of the byte
/// leaving the window, 0 while the window is filling), then
/// `value = (value * x^8 + byte) mod P`.
#[inline(always)]
fn rabin_step(value: u64, expired: u64, byte: u8) -> u64 {
    let shifted = ((value ^ expired) << 8) | byte as u64;
    // `value < 2^53` on entry, so bits 53..61 are all that overflowed.
    shifted ^ REDUCE[((shifted >> HASH_BITS) & 0xFF) as usize]
}

/// A divisor `d` with a precomputed inverse, so the cut test
/// `h % d == d - 1` — `d` divides `h + 1` — costs one multiplication and
/// no division.
///
/// With `d = 2^k·m`, `m` odd, and `m⁻¹` the inverse of `m` modulo 2^64,
/// `d` divides `x` exactly when `rotr(x·m⁻¹, k) <= ⌊(2^64 − 1) / d⌋`
/// (Hacker's Delight §10-17; Lemire, Kaser & Kurz 2019). Multiplying by
/// `m⁻¹` permutes the 64-bit values and sends the multiples of `m` onto
/// `0..=⌊(2^64 − 1) / m⌋`; the rotation carries the low bits of a value
/// that is not a multiple of `2^k` to the top, out of that range. For a
/// multiple of `d` the rotated product is the quotient `x / d` itself.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Divisor {
    d: u64,
    inverse: u64,
    twos: u32,
    max_quotient: u64,
}

impl Divisor {
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub(crate) fn new(d: u64) -> Self {
        assert!(d > 0, "divisor must be non-zero");
        let twos = d.trailing_zeros();
        let odd = d >> twos;
        // Newton's iteration doubles the number of correct low bits, and an
        // odd number is its own inverse modulo 8: 3 → 6 → … → 96 ≥ 64 bits.
        let mut inverse = odd;
        for _ in 0..5 {
            inverse = inverse.wrapping_mul(2u64.wrapping_sub(odd.wrapping_mul(inverse)));
        }
        Divisor {
            d,
            inverse,
            twos,
            max_quotient: u64::MAX / d,
        }
    }

    pub(crate) fn get(self) -> u64 {
        self.d
    }

    /// `rotr((h + 1)·m⁻¹, k)`: at most `max_quotient` exactly when `d`
    /// divides `h + 1`, and then equal to `(h + 1) / d`.
    #[inline(always)]
    fn quotient(self, h: u64) -> u64 {
        debug_assert!(h >> HASH_BITS == 0, "not a Rabin fingerprint: {h:#x}");
        (h + 1).wrapping_mul(self.inverse).rotate_right(self.twos)
    }

    /// `h % d == d - 1`; exact for `h < 2^53`.
    #[inline(always)]
    pub(crate) fn matches(self, h: u64) -> bool {
        self.quotient(h) <= self.max_quotient
    }
}

/// Positions each lane of [`CutScan`]'s two-lane loop tests per round. Of
/// 256, 512, 1024 and 2048, 512 cut 8 KiB TTTD chunks fastest: a longer
/// lane wastes more of lane B when lane A cuts, a shorter one pays lane
/// B's window warm-up more often.
const LANE: usize = 512;

/// The Rabin fingerprint of the window made of `bytes`, rolled in from
/// zero: nothing expires, so no byte before them is needed.
fn warm(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0, |hash, &b| rabin_step(hash, 0, b))
}

/// The cut-point rule shared by the Rabin and TTTD chunkers: the first
/// position at least `min_size` in whose windowed fingerprint satisfies
/// `h % D == D - 1`, else `max_size` — or, with a backup divisor `D'`, the
/// last position before `max_size` satisfying `h % D' == D' - 1`.
///
/// Stateless: the fingerprint is recomputed from the slice for every chunk,
/// and the byte leaving the window is read from the slice itself.
#[derive(Debug, Clone)]
pub(crate) struct CutScan {
    min_size: usize,
    max_size: usize,
    main: Divisor,
    backup: Option<Divisor>,
}

impl CutScan {
    pub(crate) fn new(min_size: usize, max_size: usize, main: u64, backup: Option<u64>) -> Self {
        CutScan {
            min_size,
            max_size,
            main: Divisor::new(main),
            backup: backup.map(Divisor::new),
        }
    }

    pub(crate) fn min_size(&self) -> usize {
        self.min_size
    }

    pub(crate) fn max_size(&self) -> usize {
        self.max_size
    }

    /// Length of the next chunk at the front of `data`.
    pub(crate) fn next_chunk_len(&self, data: &[u8]) -> usize {
        assert!(!data.is_empty(), "next_chunk_len requires non-empty data");
        if data.len() <= self.min_size {
            return data.len();
        }
        let main = self.main;
        match self.backup {
            None => self.scan(data, |h| (main.matches(h), false)),
            // D = 2D': D divides h + 1 exactly when D' does with an even
            // quotient, so one multiplication answers both tests.
            Some(backup) if backup.get().checked_mul(2) == Some(main.get()) => {
                self.scan(data, |h| {
                    let q = backup.quotient(h);
                    let hit = q <= backup.max_quotient;
                    (hit && q & 1 == 0, hit)
                })
            }
            Some(backup) => self.scan(data, |h| (main.matches(h), backup.matches(h))),
        }
    }

    /// Whether a chunk this scan emitted whole from a boundary is cut at
    /// its own length in every stream that begins with it: it is longer
    /// than `min_size`, no longer than `max_size`, and the window ending at
    /// its last byte main-matches.
    ///
    /// The fingerprint at a position depends only on the bytes before it
    /// (`warm` of the last `DEFAULT_WINDOW` of them, or of all of them
    /// when fewer), so a stream beginning with the chunk has the same
    /// fingerprints up to its end. The chunk was emitted whole, so none of
    /// them main-matched before its end; its end main-matches and is within
    /// `limit`, so the scan cuts there, before any backup or forced cut and
    /// before the tail rule. A backup, forced or tail cut has no such
    /// guarantee: more bytes can move it.
    pub(crate) fn cut_confirmed(&self, chunk: &[u8]) -> bool {
        let len = chunk.len();
        len > self.min_size
            && len <= self.max_size
            && self
                .main
                .matches(warm(&chunk[len.saturating_sub(DEFAULT_WINDOW)..]))
    }

    /// `test` maps a fingerprint to (main-divisor match, backup-divisor
    /// match); one copy of the loop is compiled per divisor arrangement.
    ///
    /// Each rolling step depends on the one before, so one scan runs at the
    /// latency of that chain. The main loop runs two: lane A over the next
    /// `LANE` positions and lane B over the `LANE` after them, in lockstep,
    /// B starting from a fingerprint warmed over the window before its
    /// first position. Lane A's first main match is the cut; else lane B's;
    /// else the pair's last backup match, B's before A's, replaces any
    /// earlier one, and lane A continues from B's state. The last
    /// `< 2 * LANE` positions are scanned by one lane.
    fn scan(&self, data: &[u8], test: impl Fn(u64) -> (bool, bool)) -> usize {
        const W: usize = DEFAULT_WINDOW;
        let start = self.min_size;
        let limit = data.len().min(self.max_size);
        // Warm the window over the bytes before the first legal cut point so
        // the hash at position min_size covers real content.
        let mut hash = warm(&data[start.saturating_sub(W)..start]);
        let mut backup_cut = None;
        // min_size < W only: until W bytes are in, nothing leaves the window.
        let full = start.max(W).min(limit);
        for (i, &b) in data[start..full].iter().enumerate() {
            hash = rabin_step(hash, 0, b);
            let (main, backup) = test(hash);
            if main {
                return start + i + 1;
            }
            if backup {
                backup_cut = Some(start + i + 1);
            }
        }
        // Each window is the expiring byte, the W - 1 bytes that stay, and
        // the entering byte. When `full < W` the slice is all of a stream
        // shorter than W + 1 bytes and there is no window to visit.
        let mut pos = full;
        while let Some(pair) = data[pos.saturating_sub(W)..limit].first_chunk::<{ 2 * LANE + W }>()
        {
            let mut hash_b = warm(&pair[LANE..LANE + W]);
            let (mut cut_b, mut backup_a, mut backup_b) = (None, None, None);
            for i in 0..LANE {
                hash = rabin_step(hash, EXPIRE_DEFAULT[pair[i] as usize], pair[i + W]);
                let j = LANE + i;
                hash_b = rabin_step(hash_b, EXPIRE_DEFAULT[pair[j] as usize], pair[j + W]);
                let ((a_main, a_backup), (b_main, b_backup)) = (test(hash), test(hash_b));
                // One rarely taken branch keeps the bookkeeping off the loop.
                if a_main | a_backup | b_main | b_backup {
                    if a_main {
                        return pos + i + 1;
                    }
                    if a_backup {
                        backup_a = Some(pos + i + 1);
                    }
                    if b_main {
                        cut_b.get_or_insert(pos + j + 1);
                    }
                    if b_backup {
                        backup_b = Some(pos + j + 1);
                    }
                }
            }
            if let Some(cut) = cut_b {
                return cut;
            }
            backup_cut = backup_b.or(backup_a).or(backup_cut);
            hash = hash_b;
            pos += 2 * LANE;
        }
        for (i, w) in data[pos.saturating_sub(W)..limit]
            .windows(W + 1)
            .enumerate()
        {
            hash = rabin_step(hash, EXPIRE_DEFAULT[w[0] as usize], w[W]);
            let (main, backup) = test(hash);
            if main {
                return pos + i + 1;
            }
            if backup {
                backup_cut = Some(pos + i + 1);
            }
        }
        if limit < self.max_size {
            // Stream tail: no more data will arrive, take the remainder.
            return limit;
        }
        backup_cut.unwrap_or(limit)
    }
}

/// 256-entry substitution table for the gear hash, generated deterministically
/// from a SplitMix64 sequence so chunking is reproducible across runs and
/// platforms without a `rand` dependency.
pub fn gear_table() -> &'static [u64; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u64; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut state = 0x853C_49E6_748F_EA9Bu64;
        let mut table = [0u64; 256];
        for entry in table.iter_mut() {
            // SplitMix64 step.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *entry = z ^ (z >> 31);
        }
        table
    })
}

/// One gear-hash step: `h' = (h << 1) + G[byte]`.
#[inline]
pub fn gear_step(hash: u64, byte: u8) -> u64 {
    (hash << 1).wrapping_add(gear_table()[byte as usize])
}

/// Returns a mask with `bits` one-bits spread over the upper half of a u64,
/// as FastCDC does to judge boundaries from the most-mixed bits.
/// # Panics
///
/// Panics if `bits > 48`.
pub fn spread_mask(bits: u32) -> u64 {
    assert!(bits <= 48, "spread_mask supports at most 48 bits");
    let mut mask = 0u64;
    for i in 0..bits {
        // Odd bit positions from the top first, then even ones.
        let pos = if i < 32 {
            63 - 2 * i
        } else {
            62 - 2 * (i - 32)
        };
        mask |= 1u64 << pos;
    }
    mask
}

/// The scan as first written — bit-serial reduction, a ring-buffer window,
/// hardware `%` — kept as the oracle the table-driven scan is tested against.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use std::collections::BTreeSet;

    /// The windowed Rabin fingerprint, one byte at a time over a ring
    /// buffer, with `polymod` in place of the reduction table.
    pub(crate) struct BitSerialRabin {
        value: u64,
        buf: Vec<u8>,
        head: usize,
        expire: [u64; 256],
    }

    impl BitSerialRabin {
        pub(crate) fn new(window: usize) -> Self {
            BitSerialRabin {
                value: 0,
                buf: vec![0; window],
                head: 0,
                expire: expire_table(window),
            }
        }

        pub(crate) fn roll(&mut self, byte: u8) -> u64 {
            let old = std::mem::replace(&mut self.buf[self.head], byte);
            self.head = (self.head + 1) % self.buf.len();
            self.value ^= self.expire[old as usize];
            self.value = polymod((self.value << 8) | byte as u64, RABIN_POLYNOMIAL);
            self.value
        }
    }

    /// Which rule ended a chunk.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub(crate) enum Cut {
        Main,
        Backup,
        Forced,
        Tail,
    }

    impl CutScan {
        /// `(min_size, max_size, D, D')`.
        pub(crate) fn parameters(&self) -> (usize, usize, u64, Option<u64>) {
            let (main, backup) = (self.main.get(), self.backup.map(Divisor::get));
            (self.min_size, self.max_size, main, backup)
        }

        pub(crate) fn reference_chunk_len(&self, data: &[u8]) -> (usize, Cut) {
            let (_, _, main, backup) = self.parameters();
            if data.len() <= self.min_size {
                return (data.len(), Cut::Tail);
            }
            let mut hash = BitSerialRabin::new(DEFAULT_WINDOW);
            let limit = data.len().min(self.max_size);
            for &b in &data[self.min_size.saturating_sub(DEFAULT_WINDOW)..self.min_size] {
                hash.roll(b);
            }
            let mut backup_cut = None;
            for (i, &b) in data[self.min_size..limit].iter().enumerate() {
                let h = hash.roll(b);
                let pos = self.min_size + i + 1;
                if h % main == main - 1 {
                    return (pos, Cut::Main);
                }
                if backup.is_some_and(|d| h % d == d - 1) {
                    backup_cut = Some(pos);
                }
            }
            if limit < self.max_size {
                return (data.len(), Cut::Tail);
            }
            backup_cut.map_or((limit, Cut::Forced), |pos| (pos, Cut::Backup))
        }
    }

    pub(crate) fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    pub(crate) fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| (xorshift(&mut state) >> 32) as u8)
            .collect()
    }

    /// Runs of noise, zeros, one repeated byte, period-7 text and 2-bit
    /// noise, each up to `max_run` bytes.
    fn runs(len: usize, max_run: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let kind = xorshift(&mut state) % 5;
            let run = 1 + (xorshift(&mut state) % max_run as u64) as usize;
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

    /// Zeroes the six bytes before `pos`, then sets them so the fingerprint
    /// of the window ending at `pos` is `residue` modulo `d`, the `skip`-th
    /// such choice. Those bytes enter the fingerprint as its low 48 bits,
    /// xored in below any reduction, so every residue of a `d < 2^48` is
    /// reachable. The windows that hold them change too.
    fn plant(data: &mut [u8], pos: usize, d: u64, residue: u64, skip: u64) {
        const LOW: u64 = (1 << 48) - 1;
        data[pos - 6..pos].fill(0);
        let mut rabin = BitSerialRabin::new(DEFAULT_WINDOW);
        let rest = data[pos - DEFAULT_WINDOW..pos]
            .iter()
            .fold(0, |_, &b| rabin.roll(b));
        let low = (residue + d - (rest & !LOW) % d) % d + skip * d;
        let bytes = (low ^ (rest & LOW)).to_be_bytes();
        data[pos - 6..pos].copy_from_slice(&bytes[2..]);
    }

    /// (main match, backup match) of the window ending at each position of
    /// `data` from `DEFAULT_WINDOW` on, by the reference; index = position.
    fn matches(scan: &CutScan, data: &[u8]) -> Vec<(bool, bool)> {
        let (_, _, main, backup) = scan.parameters();
        let mut rabin = BitSerialRabin::new(DEFAULT_WINDOW);
        let mut out = vec![(false, false)];
        for (i, &b) in data.iter().enumerate() {
            let h = rabin.roll(b);
            let full = i + 1 >= DEFAULT_WINDOW;
            out.push((
                full && h % main == main - 1,
                full && backup.is_some_and(|d| h % d == d - 1),
            ));
        }
        out
    }

    /// Zeros, which never match, with matches planted in the first round of
    /// the two-lane loop: backup matches only in lane A, a main match in
    /// lane B; then noise. The scan must cut in lane B. `None` when
    /// `max_size` ends the chunk before that round.
    fn lane_b_main_behind_lane_a_backups(scan: &CutScan) -> Option<Vec<u8>> {
        let (min, max, main, backup) = scan.parameters();
        let a = min.max(DEFAULT_WINDOW);
        let b = a + LANE;
        if b + LANE > max {
            return None;
        }
        let planted = (0..64).find_map(|skip| {
            // Noise after the round, so a scan that passed over lane B's
            // match would cut somewhere else.
            let mut data = vec![0u8; b + LANE];
            data.extend(noise(max + min, skip));
            if let Some(d) = backup {
                plant(&mut data, a + LANE / 2, d, d - 1, skip);
            }
            plant(&mut data, b + LANE / 2, main, main - 1, skip);
            let hits = matches(scan, &data);
            let lane_a = &hits[a + 1..=b];
            let ok = !lane_a.iter().any(|&(m, _)| m)
                && (backup.is_none() || lane_a.iter().any(|&(_, k)| k))
                && hits[b + 1..=b + LANE].iter().any(|&(m, _)| m);
            ok.then_some(data)
        });
        assert!(planted.is_some(), "no lane-B input for {min}..{max}");
        planted
    }

    /// Zeros with planted backup matches and no main match inside the first
    /// chunk's range, which must end as a backup cut at the last of them:
    /// one in each lane of the two-lane loop's first round where it runs
    /// (the cut is lane B's), else one in the middle of the range.
    fn backup_cut(scan: &CutScan) -> Option<Vec<u8>> {
        let (min, max, _, backup) = scan.parameters();
        let d = backup?;
        let a = min.max(DEFAULT_WINDOW);
        let at = if a + 2 * LANE <= max {
            vec![a + LANE / 2, a + LANE + LANE / 2]
        } else {
            vec![(min + max).div_ceil(2).max(DEFAULT_WINDOW)]
        };
        let planted = (0..64).find_map(|skip| {
            let mut data = vec![0u8; 2 * max];
            for &pos in &at {
                plant(&mut data, pos, d, d - 1, skip);
            }
            // Planting at `pos` changes the windows ending at pos - 5 on.
            let (cut, kind) = scan.reference_chunk_len(&data);
            (kind == Cut::Backup && cut + 5 >= at[at.len() - 1]).then_some(data)
        });
        assert!(planted.is_some(), "no backup-cut input for {min}..{max}");
        planted
    }

    /// Chunks every differential input with `scan` and with the reference,
    /// panicking at the first chunk that differs; returns the kinds of cut
    /// the inputs provoked so callers can assert coverage.
    pub(crate) fn assert_same_cuts(scan: &CutScan, label: &str) -> BTreeSet<Cut> {
        let (min, max) = (scan.min_size(), scan.max_size());
        let seed = (min ^ max) as u64;
        let noise = noise(6 * max + 12_345, seed);
        let mut inputs = vec![
            ("zeros", vec![0u8; 2 * max + min + 7]),
            ("one byte", vec![0xA7u8; 2 * max + 1]),
            (
                "period 7",
                b"backup\n"
                    .iter()
                    .copied()
                    .cycle()
                    .take(2 * max + 3)
                    .collect(),
            ),
            ("runs", runs(8 * max, 2 * max, seed)),
        ];
        // Stream lengths around both thresholds, and a short tail after a
        // full-size chunk; zeros never match, so they reach every length.
        for len in [
            1,
            min - 1,
            min,
            min + 1,
            max - 1,
            max,
            max + 1,
            max + min / 2,
        ] {
            inputs.push(("noise prefix", noise[..len].to_vec()));
            inputs.push(("zero prefix", vec![0u8; len]));
        }
        // Lengths that end the two-lane loop exactly at, one position
        // before, and one after the end of its k-th round.
        for k in 1..=3 {
            for len in [
                min + k * 2 * LANE - 1,
                min + k * 2 * LANE,
                min + k * 2 * LANE + 1,
            ] {
                inputs.push(("noise prefix", noise[..len].to_vec()));
            }
        }
        inputs.extend(lane_b_main_behind_lane_a_backups(scan).map(|d| ("lane B main", d)));
        inputs.extend(backup_cut(scan).map(|d| ("planted backup", d)));
        inputs.push(("noise", noise));

        let mut kinds = BTreeSet::new();
        for (name, data) in &inputs {
            let mut pos = 0;
            while pos < data.len() {
                let (want, kind) = scan.reference_chunk_len(&data[pos..]);
                let got = scan.next_chunk_len(&data[pos..]);
                assert_eq!(
                    got,
                    want,
                    "{label}, {name} of {}: chunk at {pos}",
                    data.len()
                );
                kinds.insert(kind);
                pos += got;
            }
        }
        kinds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degree_basic() {
        assert_eq!(degree(0), -1);
        assert_eq!(degree(1), 0);
        assert_eq!(degree(2), 1);
        assert_eq!(degree(RABIN_POLYNOMIAL), 53);
    }

    #[test]
    fn polymod_reduces_below_modulus_degree() {
        let m = RABIN_POLYNOMIAL;
        for a in [0u64, 1, 2, 0xFFFF_FFFF_FFFF_FFFF, m, m << 1 >> 1] {
            assert!(degree(polymod(a, m)) < degree(m));
        }
    }

    #[test]
    fn polymod_mul_is_commutative_and_distributive() {
        let m = RABIN_POLYNOMIAL;
        let (a, b, c) = (0x1234_5678u64, 0x9ABC_DEF0u64, 0x0F0F_F0F0u64);
        assert_eq!(polymod_mul(a, b, m), polymod_mul(b, a, m));
        assert_eq!(
            polymod_mul(a, b ^ c, m),
            polymod_mul(a, b, m) ^ polymod_mul(a, c, m)
        );
    }

    #[test]
    fn pow_of_x_matches_repeated_multiplication() {
        let m = RABIN_POLYNOMIAL;
        let mut acc = 1u64;
        for n in 0..20u32 {
            assert_eq!(polymod_pow_of_x(n, m), acc, "x^{n}");
            acc = polymod_mul(acc, 2, m);
        }
    }

    #[test]
    fn reduce_table_equals_polymod_for_every_top_byte() {
        let low_mask = (1u64 << HASH_BITS) - 1;
        for top in 0..256u64 {
            for low in [
                0,
                1,
                low_mask,
                RABIN_POLYNOMIAL & low_mask,
                0x0012_3456_789A_BCDE,
            ] {
                let shifted = (top << HASH_BITS) | low;
                assert_eq!(
                    shifted ^ REDUCE[top as usize],
                    polymod(shifted, RABIN_POLYNOMIAL),
                    "top {top:#x} low {low:#x}"
                );
            }
        }
    }

    #[test]
    fn rabin_step_equals_bit_serial_reference() {
        let data = reference::noise(5_000, 31);
        let mut slow = reference::BitSerialRabin::new(DEFAULT_WINDOW);
        let mut fast = 0u64;
        for (i, &b) in data.iter().enumerate() {
            let expired = i
                .checked_sub(DEFAULT_WINDOW)
                .map_or(0, |j| EXPIRE_DEFAULT[data[j] as usize]);
            fast = rabin_step(fast, expired, b);
            assert_eq!(fast, slow.roll(b), "byte {i}");
        }
    }

    /// `Divisor::matches` against hardware `%`, and for a divisor whose
    /// match holds, the rotated product against the quotient the `D = 2D'`
    /// arm reads its parity from.
    fn assert_exact(d: u64, h: u64) {
        let div = Divisor::new(d);
        let want = h % d == d - 1;
        assert_eq!(div.matches(h), want, "{h} % {d}");
        if want {
            assert_eq!(div.quotient(h), (h + 1) / d, "({h} + 1) / {d}");
        }
    }

    #[test]
    fn divisor_match_is_exact_at_the_edges_of_every_small_divisor() {
        let top = (1u64 << HASH_BITS) - 1;
        for d in 1..=70_000u64 {
            let k = top / d;
            for h in [
                0,
                1,
                d.saturating_sub(2),
                d - 1,
                d,
                d + 1,
                (k / 2) * d,
                ((k / 2) * d).saturating_sub(1),
                k * d - 1,
                k * d,
                // h + 1 = 2^53: a power of two, divisible by every 2^j.
                top,
            ] {
                assert_exact(d, h);
            }
        }
    }

    #[test]
    fn divisor_match_is_exact_on_seeded_pairs() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || reference::xorshift(&mut state);
        for n in 0..1_000_000 {
            // Divisors of every bit width, not just the huge ones a uniform
            // draw would give; every third a power of two, every third
            // 2^k·m with m odd.
            let d = match n % 3 {
                0 => (next() >> (next() % 64)).max(1),
                1 => 1 << (next() % 64),
                _ => ((next() >> (next() % 64)) | 1) << (next() % 32),
            }
            .max(1);
            let h = next() >> (64 - HASH_BITS);
            assert_exact(d, h);
            // A hit one below a multiple of d, where one exists below 2^53.
            if let Some(hit) = (h / d * d).checked_sub(1) {
                assert_exact(d, hit);
            }
        }
    }

    #[test]
    fn gear_table_is_deterministic_and_mixed() {
        let t1 = gear_table();
        let t2 = gear_table();
        assert_eq!(t1[0], t2[0]);
        // All entries distinct (SplitMix64 guarantees this for 256 outputs).
        let mut seen: Vec<u64> = t1.to_vec();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 256);
    }

    #[test]
    fn spread_mask_bit_count() {
        for bits in 1..=20 {
            assert_eq!(spread_mask(bits).count_ones(), bits, "bits={bits}");
        }
    }

    #[test]
    fn gear_step_shifts_old_bytes_out() {
        // After 64 steps the first byte no longer influences the hash.
        let mut a = 0u64;
        let mut b = 0u64;
        a = gear_step(a, 0x01);
        b = gear_step(b, 0xFE);
        for i in 0..64u8 {
            a = gear_step(a, i);
            b = gear_step(b, i);
        }
        assert_eq!(a, b);
    }
}
