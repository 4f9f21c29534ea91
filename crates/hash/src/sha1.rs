//! SHA-1 implemented from scratch per FIPS 180-4.
//!
//! SHA-1 is cryptographically broken for adversarial collision resistance,
//! but remains the fingerprint function used by essentially every published
//! deduplication system (DDFS, Sparse Indexing, SiLo, Destor, HiDeStore)
//! because accidental collisions are still vastly less likely than hardware
//! faults. We implement it here rather than depending on an external crate:
//! fingerprinting is part of the substrate this reproduction is required to
//! build.
//!
//! The compression function is fully unrolled (see `compress`). On a
//! 2.1 GHz Xeon core it hashes 8 KiB chunks at ~460–580 MiB/s, against
//! ~195 MiB/s for the rolled 80-step loop it replaced; on a shared 2-core
//! host of the same model it measured 280–540 MiB/s (medians of three
//! sessions, DESIGN §8.5). Every digest is the same, pinned by a golden
//! digest recorded with the rolled loop.

const H0: [u32; 5] = [
    0x6745_2301,
    0xEFCD_AB89,
    0x98BA_DCFE,
    0x1032_5476,
    0xC3D2_E1F0,
];

/// Streaming SHA-1 hasher.
///
/// # Examples
///
/// ```
/// use hidestore_hash::Sha1;
///
/// let digest = Sha1::hash(b"The quick brown fox jumps over the lazy dog");
/// assert_eq!(hex(&digest), "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
/// # fn hex(b: &[u8]) -> String { b.iter().map(|x| format!("{x:02x}")).collect() }
/// ```
#[derive(Debug, Clone)]
pub struct Sha1 {
    state: [u32; 5],
    /// Bytes absorbed so far (used for the length suffix).
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Sha1 {
            state: H0,
            len: 0,
            buf: [0; 64],
            buf_len: 0,
        }
    }

    /// Absorbs `data` into the hasher.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                return;
            }
            compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        // Whole blocks are compressed straight from the input.
        let (blocks, tail) = rest.as_chunks::<64>();
        for block in blocks {
            compress(&mut self.state, block);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Consumes the hasher, returning the 20-byte digest.
    pub fn finalize(mut self) -> [u8; 20] {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80, zeros, 8-byte big-endian bit length. The buffer
        // holds stale bytes past `buf_len`, so the zeros are written.
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        if n >= 56 {
            // No room for the length: it goes in a block of its own.
            compress(&mut self.state, &self.buf);
            self.buf = [0; 64];
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buf);
        let mut out = [0u8; 20];
        for (bytes, w) in out.as_chunks_mut::<4>().0.iter_mut().zip(self.state) {
            *bytes = w.to_be_bytes();
        }
        out
    }

    /// One-shot hash of `data`.
    pub fn hash(data: &[u8]) -> [u8; 20] {
        let mut h = Sha1::new();
        h.update(data);
        h.finalize()
    }
}

// The four round functions, one per 20-round block (`parity` serves two).

#[inline(always)]
fn ch(b: u32, c: u32, d: u32) -> u32 {
    d ^ (b & (c ^ d))
}

#[inline(always)]
fn parity(b: u32, c: u32, d: u32) -> u32 {
    b ^ c ^ d
}

#[inline(always)]
fn maj(b: u32, c: u32, d: u32) -> u32 {
    (b & c) | (d & (b | c))
}

/// The SHA-1 compression function, fully unrolled.
///
/// The message schedule lives in a 16-word ring: word `t >= 16` overwrites
/// word `t - 16` in place. Instead of shuffling `e = d, d = c, ...` after
/// every round, each round updates `e` and `b` in place and the next round
/// names the five variables one position rotated, so after 80 rounds (a
/// multiple of five) every variable is back under its own name.
fn compress(state: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (word, bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
        *word = u32::from_be_bytes(*bytes);
    }
    let [mut a, mut b, mut c, mut d, mut e] = *state;

    // One round: the schedule word for round `$t` (taken as is for the
    // first 16 rounds, expanded in place after), then the state update.
    macro_rules! round {
        ($f:ident, $k:expr, $t:expr, $a:ident, $b:ident, $c:ident, $d:ident, $e:ident) => {
            let t: usize = $t;
            if t >= 16 {
                w[t & 15] = (w[(t + 13) & 15] ^ w[(t + 8) & 15] ^ w[(t + 2) & 15] ^ w[t & 15])
                    .rotate_left(1);
            }
            $e = $e
                .wrapping_add($a.rotate_left(5))
                .wrapping_add($f($b, $c, $d))
                .wrapping_add($k)
                .wrapping_add(w[t & 15]);
            $b = $b.rotate_left(30);
        };
    }
    // Twenty rounds sharing one round function and constant: four turns of
    // the five-name rotation.
    macro_rules! block20 {
        ($f:ident, $k:expr, $t:expr) => {
            for5!($f, $k, $t);
            for5!($f, $k, $t + 5);
            for5!($f, $k, $t + 10);
            for5!($f, $k, $t + 15);
        };
    }
    macro_rules! for5 {
        ($f:ident, $k:expr, $t:expr) => {
            round!($f, $k, $t, a, b, c, d, e);
            round!($f, $k, $t + 1, e, a, b, c, d);
            round!($f, $k, $t + 2, d, e, a, b, c);
            round!($f, $k, $t + 3, c, d, e, a, b);
            round!($f, $k, $t + 4, b, c, d, e, a);
        };
    }
    block20!(ch, 0x5A82_7999, 0);
    block20!(parity, 0x6ED9_EBA1, 20);
    block20!(maj, 0x8F1B_BCDC, 40);
    block20!(parity, 0xCA62_C1D6, 60);

    for (s, v) in state.iter_mut().zip([a, b, c, d, e]) {
        *s = s.wrapping_add(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // FIPS 180-4 / RFC 3174 test vectors.
    #[test]
    fn empty_input() {
        assert_eq!(
            hex(&Sha1::hash(b"")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            hex(&Sha1::hash(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            hex(&Sha1::hash(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&Sha1::hash(&data)),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn quick_brown_fox() {
        assert_eq!(
            hex(&Sha1::hash(b"The quick brown fox jumps over the lazy dog")),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"
        );
    }

    #[test]
    fn incremental_matches_oneshot_at_all_split_points() {
        // 257 bytes span five blocks with padding; every pair of cut
        // points splits them into three updates, so a block is assembled
        // from up to three pieces and the direct-from-input path starts at
        // every offset.
        let data: Vec<u8> = (0..257u16).map(|i| (i % 251) as u8).collect();
        let expect = Sha1::hash(&data);
        for first in 0..=data.len() {
            for second in first..=data.len() {
                let mut h = Sha1::new();
                h.update(&data[..first]);
                h.update(&data[first..second]);
                h.update(&data[second..]);
                assert_eq!(h.finalize(), expect, "split at {first}, {second}");
            }
        }
    }

    /// SHA-1 of the concatenated digests of `noise[..len]` for every
    /// `len` in 0..=1024 and [`TTTD_LENGTHS`], recorded with the rolled
    /// 80-step compression loop the unrolled one replaced. Never
    /// regenerate it: a mismatch means the kernel changed its output.
    const GOLDEN_DIGEST_OF_DIGESTS: &str = "a9b2dd83e42a4beb0a4e14076b2f472dd57fb872";

    /// TTTD minimum and maximum chunk sizes at 4, 8 and 64 KiB averages,
    /// plus the averages themselves.
    const TTTD_LENGTHS: [usize; 9] = [
        1856, 3712, 4096, 8192, 11_299, 22_598, 29_701, 65_536, 180_788,
    ];

    #[test]
    fn digests_match_the_recorded_golden() {
        let data = crate::noise(180_788);
        let mut all = Sha1::new();
        for len in (0..=1024).chain(TTTD_LENGTHS) {
            all.update(&Sha1::hash(&data[..len]));
        }
        assert_eq!(hex(&all.finalize()), GOLDEN_DIGEST_OF_DIGESTS);
    }

    #[test]
    fn boundary_lengths_55_56_63_64_65() {
        // Lengths around the padding boundary exercise the two-block finalize path.
        let known = [
            (55usize, "c1c8bbdc22796e28c0e15163d20899b65621d65a"),
            (56, "c2db330f6083854c99d4b5bfb6e8f29f201be699"),
            (63, "03f09f5b158a7a8cdad920bddc29b81c18a551f5"),
            (64, "0098ba824b5c16427bd7a1122a5a442a25ec644d"),
            (65, "11655326c708d70319be2610e8a57d9a5b959d3b"),
        ];
        for (len, want) in known {
            let data = vec![b'a'; len];
            assert_eq!(hex(&Sha1::hash(&data)), want, "len {len}");
        }
    }
}
