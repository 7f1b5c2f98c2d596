//! Per-stage cycle accounting for the run loops' hot path.
//!
//! The event handlers and both run loops are generic over a
//! [`CycleSink`]; the default
//! sink is `()`, whose spans are compile-time dead (`ACTIVE = false`
//! plus `#[inline]` empty bodies), so ordinary runs pay literally zero —
//! the same monomorphization trick the probe bus uses. Passing a
//! [`CycleAccounting`] instead (via `Engine::run_with_cycles`) times
//! every stage span and buckets it by [`Stage`].
//!
//! npsim forbids `unsafe`, so there is no `_rdtsc` here: spans are
//! measured with `std::time::Instant` and "cycles" are **nanoseconds of
//! host wall time**. The name is kept because the per-stage *ratios*
//! are what the accounting is for — which stage dominates a burst — and
//! those are frequency-independent. The wall clock never feeds back
//! into the simulation: same seed + config still replays byte-identical
//! whether accounting is on or off (pinned by a unit test below).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

/// A pipeline stage of the engine, as accounted by the probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Arrival lookahead refills: gap + header draws, burst buffering.
    Ingest,
    /// Admission + scheduling: flow slots, classification, `choose_core`,
    /// flow-table updates.
    Dispatch,
    /// Queue mutation and the Eq. 3 delay model: enqueue, service
    /// start/finish, busy-time accounting.
    Service,
    /// Departure bookkeeping: order tracking, restoration, probes.
    Record,
    /// Picking the next event: the merge scan across sources, cores and
    /// control events (the heap pop under `ExecutionMode::Scalar`).
    Merge,
}

/// All accounted stages, in display order.
pub const STAGES: [Stage; 5] = [
    Stage::Ingest,
    Stage::Dispatch,
    Stage::Service,
    Stage::Record,
    Stage::Merge,
];

impl Stage {
    #[inline]
    fn index(self) -> usize {
        match self {
            Stage::Ingest => 0,
            Stage::Dispatch => 1,
            Stage::Service => 2,
            Stage::Record => 3,
            Stage::Merge => 4,
        }
    }
}

/// Where the run loop reports its stage spans.
///
/// `ACTIVE = false` (the `()` impl) compiles every span call to
/// nothing; the loop is monomorphized separately per sink, so the
/// accounting-off hot path carries no branch, no counter, no clock.
pub trait CycleSink {
    /// Whether spans are recorded at all. Span calls are additionally
    /// guarded by `if C::ACTIVE` at the call sites so the disabled case
    /// is branch-free after constant folding.
    const ACTIVE: bool;

    /// Start a span; returns an opaque timestamp token.
    fn span_start(&mut self) -> u64;

    /// End a span started at `start`, attributing it to `stage` and
    /// crediting `packets` packets of work to it.
    fn span_end(&mut self, stage: Stage, start: u64, packets: u64);
}

/// The no-op sink: accounting off, zero cost.
impl CycleSink for () {
    const ACTIVE: bool = false;

    #[inline(always)]
    fn span_start(&mut self) -> u64 {
        0
    }

    #[inline(always)]
    fn span_end(&mut self, _stage: Stage, _start: u64, _packets: u64) {}
}

/// Accumulated accounting for one stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCycles {
    /// Number of recorded spans.
    pub spans: u64,
    /// Packets of work credited across those spans.
    pub packets: u64,
    /// Total span time. Nanoseconds of host wall time standing in for
    /// cycles (npsim forbids `unsafe`, hence no raw TSC reads).
    pub cycles: u64,
}

impl StageCycles {
    /// Mean cost per packet (0 when no packets were credited).
    pub fn cycles_per_packet(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.cycles as f64 / self.packets as f64
        }
    }
}

/// The live accounting sink: an [`std::time::Instant`] epoch plus one
/// [`StageCycles`] bucket per stage.
#[derive(Debug)]
pub struct CycleAccounting {
    // The wall clock here measures the *host*, never the simulation:
    // nothing derived from it reaches sim state, so replay determinism
    // is untouched (asserted by `accounting_does_not_change_the_report`).
    epoch: std::time::Instant,
    stages: [StageCycles; STAGES.len()],
}

impl CycleAccounting {
    /// A fresh sink with all buckets zero.
    #[allow(clippy::disallowed_methods, reason = "host-side profiling epoch only")]
    pub fn new() -> Self {
        CycleAccounting {
            epoch: std::time::Instant::now(),
            stages: [StageCycles::default(); STAGES.len()],
        }
    }

    /// Freeze into a report.
    pub fn finish(self) -> CycleReport {
        CycleReport {
            stages: self.stages,
        }
    }
}

impl Default for CycleAccounting {
    fn default() -> Self {
        CycleAccounting::new()
    }
}

impl CycleSink for CycleAccounting {
    const ACTIVE: bool = true;

    #[inline]
    fn span_start(&mut self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[inline]
    fn span_end(&mut self, stage: Stage, start: u64, packets: u64) {
        let end = self.epoch.elapsed().as_nanos() as u64;
        if let Some(bucket) = self.stages.get_mut(stage.index()) {
            bucket.spans += 1;
            bucket.packets += packets;
            bucket.cycles += end.saturating_sub(start);
        }
    }
}

/// Per-stage cycle totals of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleReport {
    stages: [StageCycles; STAGES.len()],
}

impl CycleReport {
    /// The bucket for `stage`.
    pub fn stage(&self, stage: Stage) -> StageCycles {
        self.stages.get(stage.index()).copied().unwrap_or_default()
    }

    /// True when nothing was recorded (a zero-event run).
    pub fn is_empty(&self) -> bool {
        self.stages.iter().all(|s| s.spans == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_sink_is_inactive() {
        const { assert!(!<() as CycleSink>::ACTIVE) };
        let mut s = ();
        let t = s.span_start();
        s.span_end(Stage::Merge, t, 10);
    }

    #[test]
    fn accounting_accumulates_spans() {
        let mut acc = CycleAccounting::new();
        let t = acc.span_start();
        acc.span_end(Stage::Ingest, t, 32);
        let t = acc.span_start();
        acc.span_end(Stage::Ingest, t, 16);
        let t = acc.span_start();
        acc.span_end(Stage::Merge, t, 1);
        let report = acc.finish();
        let ingest = report.stage(Stage::Ingest);
        assert_eq!(ingest.spans, 2);
        assert_eq!(ingest.packets, 48);
        assert_eq!(report.stage(Stage::Merge).spans, 1);
        assert_eq!(report.stage(Stage::Service).spans, 0);
        assert!(!report.is_empty());
    }

    #[test]
    fn cycles_per_packet_handles_zero() {
        assert_eq!(StageCycles::default().cycles_per_packet(), 0.0);
        let s = StageCycles {
            spans: 1,
            packets: 4,
            cycles: 100,
        };
        assert!((s.cycles_per_packet() - 25.0).abs() < 1e-9);
    }
}
