//! The harness's own span recorder.
//!
//! Spans are recorded around the calls the harness makes into each layer —
//! there is no tracing inside the program. They stay in memory and are
//! written out as JSONL after the run. A layer's *self time* is its span's
//! duration minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name (`chunking`, `core.commit`, …) or `op.*` for a root.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one; `None` for an op root.
    pub parent: Option<usize>,
    /// Operation id shared by every span of one backup/restore op.
    pub op: u64,
}

impl Span {
    fn len_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Busy/self time and call count of one layer, summed over its spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Σ span durations, seconds.
    pub busy_s: f64,
    /// Σ span durations minus child coverage, seconds.
    pub self_s: f64,
    /// Number of spans.
    pub count: u64,
}

/// In-memory span store. A disabled tracer records nothing but still times
/// the closures it is handed, so traced and untraced runs share one code
/// path.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Option<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`on`) or only times (`!on`).
    pub fn new(on: bool) -> Self {
        Self::with_epoch(on, Instant::now())
    }

    /// A tracer sharing another's epoch, so spans recorded on several
    /// threads land on one time axis and can be [`Tracer::absorb`]ed.
    pub fn with_epoch(on: bool, epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: on.then(Vec::new),
        }
    }

    /// The time origin of this tracer's spans.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.spans.is_some()
    }

    /// Opens a span named `name` under `parent`; close it with
    /// [`Tracer::end`]. Returns `None` when not recording.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> Option<usize> {
        let now = self.epoch.elapsed().as_nanos() as u64;
        let spans = self.spans.as_mut()?;
        spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op,
        });
        Some(spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: Option<usize>) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        if let (Some(spans), Some(id)) = (self.spans.as_mut(), id) {
            spans[id].end_ns = now;
        }
    }

    /// Runs `f` as a leaf span, returning its result and its duration in
    /// seconds (timed whether or not spans are being recorded).
    pub fn leaf<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.begin(name, parent, op);
        let start = Instant::now();
        let result = f();
        let took = start.elapsed();
        if let (Some(spans), Some(id)) = (self.spans.as_mut(), id) {
            // One clock reading for both the span and the returned
            // duration, so layer sums and op timings agree exactly.
            spans[id].end_ns = spans[id].start_ns + took.as_nanos() as u64;
        }
        (result, took.as_secs_f64())
    }

    /// Appends another tracer's spans (recorded against the same epoch).
    pub fn absorb(&mut self, other: Tracer) {
        if let (Some(mine), Some(theirs)) = (self.spans.as_mut(), other.spans) {
            let base = mine.len();
            mine.extend(theirs.into_iter().map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }

    /// Per-layer busy time, self time and span count.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let spans = self.spans();
        let covered = child_coverage_ns(spans);
        let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, covered) in spans.iter().zip(covered) {
            let layer = layers.entry(span.name).or_default();
            layer.busy_s += span.len_ns() as f64 / 1e9;
            layer.self_s += (span.len_ns() - covered) as f64 / 1e9;
            layer.count += 1;
        }
        layers
    }

    /// Writes one JSON object per span: `name, start_ns, end_ns, parent, op`.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in self.spans() {
            let line = Json::obj([
                ("name", Json::str(span.name)),
                ("start_ns", Json::Num(span.start_ns as f64)),
                ("end_ns", Json::Num(span.end_ns as f64)),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("op", Json::Num(span.op as f64)),
            ]);
            writeln!(out, "{}", line.to_line())?;
        }
        out.flush()
    }
}

/// For each span, the nanoseconds of its interval that its direct children
/// cover (overlapping children are counted once).
pub fn child_coverage_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.clamp(p.start_ns, p.end_ns);
            let end = span.end_ns.clamp(p.start_ns, p.end_ns);
            children[parent].push((start, end));
        }
    }
    children
        .into_iter()
        .map(|mut intervals| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for (start, end) in intervals {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            covered
        })
        .collect()
}
