//! CPU-speed calibration.
//!
//! The sandbox's cores run in two modes: the program's chunker alone on an
//! idle machine measures ~84 MiB/s for ten seconds, then ~105 MiB/s for
//! thirty. Raw timings of identical runs therefore differ by up to 25 %
//! depending on the mode they land in, and no amount of repetition inside a
//! run averages that out. The harness times a small fixed kernel between ops
//! (never inside one) and reports op seconds scaled to a fixed nominal speed
//! of that kernel. The kernel is the harness's own code, so a change to the
//! program cannot move it: a slower program still shows as slower, a slower
//! machine does not. Over ten runs of `bulk.kernel` this took the spread of
//! `backup_mb_s` from 17 % to 2 %.

use std::time::{Duration, Instant};

/// Bytes per kernel pass: small enough to stay in the L2 cache.
const PASS_BYTES: usize = 1 << 20;
/// Passes per measurement; the fastest one counts, so an interrupt or a
/// migration during one pass does not read as a slow machine.
const PASSES: usize = 6;
/// A measurement older than this is taken again before it is used. The
/// machine's modes last seconds, so this tracks them at ~3 % overhead.
const STALE_AFTER: Duration = Duration::from_millis(200);
/// The kernel speed, MiB/s, every reported timing is scaled to: what the
/// sandbox's cores reach in their slow mode. Frozen with the benchmark —
/// changing it rescales every timing metric.
const NOMINAL_MB_S: f64 = 1500.0;

/// One byte at a time through a shift-multiply rolling hash with a
/// data-dependent branch — the instruction mix of a content-defined chunker,
/// which is where the program spends most of an ingest.
fn kernel(buf: &[u8]) -> u64 {
    let mut hash: u64 = 0;
    let mut cuts: u64 = 0;
    for &byte in buf {
        hash = (hash << 1).wrapping_add(u64::from(byte).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if hash & 0x1FFF == 0 {
            cuts += 1;
        }
    }
    hash ^ cuts
}

/// The calibrator: hands out the factor to multiply measured seconds by.
#[derive(Debug, Clone)]
pub struct Speed {
    buf: Vec<u8>,
    measured_at: Instant,
    factor: f64,
    factor_sum: f64,
    uses: u32,
}

impl Default for Speed {
    fn default() -> Self {
        let buf = (0..PASS_BYTES).map(|i| ((i * 31) >> 3) as u8).collect();
        let mut speed = Speed {
            buf,
            measured_at: Instant::now(),
            factor: 1.0,
            factor_sum: 0.0,
            uses: 0,
        };
        speed.measure();
        speed
    }
}

impl Speed {
    fn measure(&mut self) {
        let fastest = (0..PASSES)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(kernel(std::hint::black_box(&self.buf)));
                start.elapsed()
            })
            .min()
            .expect("PASSES > 0");
        let mb_s = PASS_BYTES as f64 / (1 << 20) as f64 / fastest.as_secs_f64();
        self.factor = mb_s / NOMINAL_MB_S;
        self.measured_at = Instant::now();
    }

    /// The factor for an op that just ended: measured machine speed over
    /// nominal speed (below 1 on a slow machine, shrinking its seconds).
    pub fn factor(&mut self) -> f64 {
        if self.measured_at.elapsed() > STALE_AFTER {
            self.measure();
        }
        self.factor_sum += self.factor;
        self.uses += 1;
        self.factor
    }

    /// Mean of the factors handed out so far (1 before the first).
    pub fn mean_factor(&self) -> f64 {
        if self.uses == 0 {
            1.0
        } else {
            self.factor_sum / f64::from(self.uses)
        }
    }
}
