//! CRC-32 (IEEE 802.3 polynomial) for on-disk and wire integrity checks.
//!
//! Repository metadata, the commit journal, every staged commit file and
//! every wire frame guard their payloads with a CRC so a torn or
//! bit-flipped record is *detected* as corrupt instead of silently
//! misparsed. CRC-32 is the right tool here: the threat is accidental
//! corruption (torn write, media error), not an adversary — content
//! addressing still uses the cryptographic digests.
//!
//! The kernel runs four slicing-by-8 lanes side by side: each 1 KiB stride
//! is cut into four 256-byte lanes, each lane runs its own CRC register
//! through the eight tables, and at the stride's end the four registers fold
//! into one through a table that advances a register over 256 zero bytes.
//! One lane is a single dependency chain that waits on its own loads; four
//! keep a core's load ports busy. Input shorter than a stride takes the
//! one-lane 8-byte step and the byte loop. On one core of a 2-core Xeon
//! host it runs at 2 150–2 470 MiB/s over 4 KiB, 256 KiB and 24 MiB
//! inputs, against 1 120–1 210 MiB/s for one lane and ~330 MiB/s for the
//! byte loop alone; the output is the same bit for bit.

/// Slicing-by-8 lookup tables for the reflected IEEE polynomial
/// (`0xEDB8_8320`), built at compile time. `TABLES[0]` is the classic
/// byte-at-a-time table; `TABLES[k][i]` is the CRC register after byte `i`
/// is followed by `k` zero bytes, so eight bytes fold into the register
/// with eight independent lookups instead of a chain of eight.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Bytes of input each lane covers per stride.
const LANE: usize = 256;

/// Bytes of input per stride: four lanes. Five and six lanes measured no
/// faster on a 2-core Xeon host, and a 1 KiB stride keeps records of a few
/// KiB on the multi-lane path (DESIGN §8.5).
const STRIDE: usize = 4 * LANE;

/// `ADVANCE[j][i]` is the CRC register `i << 8j` after [`LANE`] zero bytes.
/// Advancing is linear, so a whole register advances with four lookups,
/// one per byte; this is how a lane's register is carried past the lanes
/// that follow it.
const ADVANCE: [[u32; 256]; 4] = build_advance();

const fn build_advance() -> [[u32; 256]; 4] {
    let mut adv = [[0u32; 256]; 4];
    let mut j = 0;
    while j < 4 {
        let mut i = 0;
        while i < 256 {
            let mut reg = (i as u32) << (8 * j);
            let mut n = 0;
            while n < LANE / 8 {
                reg = step(reg, &[0; 8]);
                n += 1;
            }
            adv[j][i] = reg;
            i += 1;
        }
        j += 1;
    }
    adv
}

/// Computes the CRC-32 (IEEE) checksum of `data`.
///
/// # Examples
///
/// ```
/// use hidestore_hash::crc32;
///
/// // The classic check value from the CRC catalogue.
/// assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
/// assert_eq!(crc32(b""), 0);
/// ```
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// Continues a running CRC-32: given `crc`, the [`crc32`] of some bytes
/// `a`, returns the [`crc32`] of `a` followed by `data`. Lets a caller
/// checksum a record held in several buffers without joining them.
///
/// # Examples
///
/// ```
/// use hidestore_hash::{crc32, crc32_update};
///
/// assert_eq!(crc32_update(crc32(b"12345"), b"6789"), crc32(b"123456789"));
/// ```
#[must_use]
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    let mut reg = !crc;
    let (strides, rest) = data.as_chunks::<STRIDE>();
    for stride in strides {
        let (words, _) = stride.as_chunks::<8>();
        let (a, words) = words.split_at(LANE / 8);
        let (b, words) = words.split_at(LANE / 8);
        let (c, d) = words.split_at(LANE / 8);
        let (mut ra, mut rb, mut rc, mut rd) = (reg, 0, 0, 0);
        for (((wa, wb), wc), wd) in a.iter().zip(b).zip(c).zip(d) {
            ra = step(ra, wa);
            rb = step(rb, wb);
            rc = step(rc, wc);
            rd = step(rd, wd);
        }
        // The register is linear in its start value and its input, so the
        // register after lanes A then B is A's register advanced over
        // LANE zero bytes plus the register B built from zero.
        reg = advance(advance(advance(ra) ^ rb) ^ rc) ^ rd;
    }
    let (words, tail) = rest.as_chunks::<8>();
    for w in words {
        reg = step(reg, w);
    }
    for &byte in tail {
        reg = (reg >> 8) ^ TABLES[0][((reg ^ byte as u32) & 0xFF) as usize];
    }
    !reg
}

/// Feeds eight bytes into the CRC register `reg` (slicing-by-8).
#[inline(always)]
const fn step(reg: u32, w: &[u8; 8]) -> u32 {
    let t = &TABLES;
    let lo = reg ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
    t[7][(lo & 0xFF) as usize]
        ^ t[6][((lo >> 8) & 0xFF) as usize]
        ^ t[5][((lo >> 16) & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][w[4] as usize]
        ^ t[2][w[5] as usize]
        ^ t[1][w[6] as usize]
        ^ t[0][w[7] as usize]
}

/// The CRC register `reg` after [`LANE`] zero bytes.
#[inline(always)]
fn advance(reg: u32) -> u32 {
    let a = &ADVANCE;
    a[0][(reg & 0xFF) as usize]
        ^ a[1][((reg >> 8) & 0xFF) as usize]
        ^ a[2][((reg >> 16) & 0xFF) as usize]
        ^ a[3][(reg >> 24) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop the slicing kernel replaced, in the running
    /// form of [`crc32_update`]: the oracle the kernel must match bit for
    /// bit.
    fn crc32_bytewise(crc: u32, data: &[u8]) -> u32 {
        let mut reg = !crc;
        for &byte in data {
            let idx = ((reg ^ byte as u32) & 0xFF) as usize;
            reg = (reg >> 8) ^ TABLES[0][idx];
        }
        !reg
    }

    /// Seeded xorshift64 for the randomised cases.
    fn next(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    #[test]
    fn slicing_matches_bytewise_at_every_length_and_alignment() {
        let data = crate::noise(1024 + 8);
        for start in 0..8 {
            for len in 0..=1024 {
                let slice = &data[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(0, slice),
                    "start {start}, len {len}"
                );
            }
        }
    }

    #[test]
    fn slicing_matches_bytewise_on_megabytes() {
        let data = crate::noise(3 << 20);
        assert_eq!(crc32(&data), crc32_bytewise(0, &data));
    }

    #[test]
    fn running_crc_matches_oneshot_at_every_split() {
        let data = crate::noise(300);
        let expect = crc32(&data);
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(crc32_update(crc32(a), b), expect, "split at {split}");
        }
        assert_eq!(crc32_update(expect, b""), expect);
    }

    #[test]
    fn lanes_match_bytewise_around_every_stride_multiple() {
        let data = crate::noise(4 * STRIDE + 9);
        for k in 1..=4 {
            for len in k * STRIDE - 9..=k * STRIDE + 9 {
                let slice = &data[..len];
                assert_eq!(crc32(slice), crc32_bytewise(0, slice), "len {len}");
            }
        }
    }

    #[test]
    fn lanes_match_bytewise_at_every_alignment() {
        let len = 2 * STRIDE + 3 * LANE + 5;
        let data = crate::noise(len + 8);
        for start in 0..8 {
            let slice = &data[start..start + len];
            assert_eq!(crc32(slice), crc32_bytewise(0, slice), "start {start}");
        }
    }

    #[test]
    fn running_crc_matches_bytewise_split_at_every_lane_edge() {
        let data = crate::noise(3 * STRIDE + LANE / 2);
        let expect = crc32_bytewise(0, &data);
        // Every multiple of LANE, stride edges included, and its neighbours.
        for edge in (LANE..data.len()).step_by(LANE) {
            for split in [edge - 1, edge, edge + 1] {
                let (a, b) = data.split_at(split);
                assert_eq!(crc32_update(crc32(a), b), expect, "split at {split}");
            }
        }
    }

    #[test]
    fn seeded_lengths_and_splits_match_bytewise() {
        const MAX: usize = 1 << 20;
        let data = crate::noise(MAX);
        // prefix[n] is the oracle's CRC of data[..n], from one byte-loop pass.
        let mut prefix = Vec::with_capacity(MAX + 1);
        let mut crc = 0;
        prefix.push(crc);
        for byte in data.chunks(1) {
            crc = crc32_bytewise(crc, byte);
            prefix.push(crc);
        }
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..500 {
            let len = (next(&mut x) % (MAX as u64 + 1)) as usize;
            let split = (next(&mut x) % (len as u64 + 1)) as usize;
            let head = crc32(&data[..split]);
            assert_eq!(head, prefix[split], "prefix of {split}");
            assert_eq!(
                crc32_update(head, &data[split..len]),
                prefix[len],
                "len {len}, split at {split}"
            );
        }
    }

    #[test]
    fn advance_is_lane_zero_bytes_through_the_byte_loop() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..64 {
            let reg = next(&mut x) as u32;
            // The oracle works on the complemented register crc32 exposes.
            assert_eq!(
                advance(reg),
                !crc32_bytewise(!reg, &[0; LANE]),
                "reg {reg:#010x}"
            );
        }
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = b"hidestore meta payload".to_vec();
        let clean = crc32(&data);
        data[3] ^= 0x40;
        assert_ne!(crc32(&data), clean);
    }

    #[test]
    fn detects_truncation() {
        let data = b"0123456789abcdef";
        assert_ne!(crc32(data), crc32(&data[..15]));
    }
}
