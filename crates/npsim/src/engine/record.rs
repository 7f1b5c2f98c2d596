//! Record stage: the observability bus terminal.
//!
//! Owns the order tracker, the optional egress restoration buffer, the
//! always-on [`ReportProbe`] (the report *is* a bus consumer, statically
//! dispatched), and the attached dynamic probes. Every event the
//! pipeline publishes lands here: the report probe folds it into
//! [`SimReport`] counters, and — only when `P::ACTIVE` — the dynamic
//! probes see it too.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use crate::event::SimEvent;
use crate::packet::PacketDesc;
use crate::probe::{ProbeHost, ReportProbe};
use crate::report::SimReport;
use crate::restore::RestorationBuffer;
use crate::OrderTracker;
use detsim::SimTime;
use nphash::FlowSlot;

#[derive(Debug)]
pub(super) struct RecordStage<P: ProbeHost> {
    order: OrderTracker,
    restoration: Option<RestorationBuffer>,
    report: ReportProbe,
    probes: P,
}

impl<P: ProbeHost> RecordStage<P> {
    pub(super) fn new(
        report: ReportProbe,
        restoration: Option<RestorationBuffer>,
        probes: P,
    ) -> Self {
        RecordStage {
            order: OrderTracker::new(),
            restoration,
            report,
            probes,
        }
    }

    /// Publish one event: fold it into the report (statically), then
    /// hand it to the dynamic probes (compiled away when `!P::ACTIVE`).
    #[inline]
    pub(super) fn publish(&mut self, now: SimTime, ev: &SimEvent) {
        self.report.observe(now, ev);
        if P::ACTIVE {
            self.probes.deliver(now, ev);
        }
    }

    /// Count one run-loop event dispatch (`SimReport::events`).
    #[inline]
    pub(super) fn note_loop_event(&mut self) {
        self.report.report.events += 1;
    }

    /// Record a packet leaving the system (after restoration, if any):
    /// publishes `Departure` and, for late packets, `ReorderDetected`.
    fn emit(&mut self, pkt: PacketDesc, now: SimTime) {
        let extent = self.order.record_departure_extent(pkt.slot, pkt.flow_seq);
        self.publish(
            now,
            &SimEvent::Departure {
                id: pkt.id,
                slot: pkt.slot,
                service: pkt.service,
                latency_ns: (now - pkt.arrival).as_nanos(),
                out_of_order: extent.is_some(),
            },
        );
        if P::ACTIVE {
            if let Some(extent) = extent {
                self.publish(
                    now,
                    &SimEvent::ReorderDetected {
                        slot: pkt.slot,
                        flow_seq: pkt.flow_seq,
                        extent,
                    },
                );
            }
        }
    }

    /// A packet finished service: emit it directly, or pass it through
    /// the restoration buffer and emit whatever the buffer releases.
    pub(super) fn departure(&mut self, pkt: PacketDesc, now: SimTime) {
        match self.restoration.as_mut() {
            None => self.emit(pkt, now),
            Some(buf) => {
                let mut released = buf.on_departure(pkt, now);
                released.extend(buf.flush_timeouts(now));
                for p in released {
                    self.emit(p, now);
                }
            }
        }
    }

    /// Start the order tracker's cache fill for `slot` (batched mode:
    /// issued at `ServiceStart`, ~one service time before the
    /// departure that reads the entry).
    #[inline]
    pub(super) fn prefetch_departure(&self, slot: FlowSlot) {
        self.order.prefetch(slot);
    }

    /// A packet was dropped: the frame manager knows this sequence
    /// number will never depart; tell the restoration buffer not to
    /// wait for it.
    pub(super) fn note_drop_gap(&mut self, slot: FlowSlot, flow_seq: u64, now: SimTime) {
        if let Some(buf) = self.restoration.as_mut() {
            for released in buf.note_gap(slot, flow_seq, now) {
                self.emit(released, now);
            }
        }
    }

    /// Stamp the run's end time.
    pub(super) fn set_end_time(&mut self, end: SimTime) {
        self.report.report.end_time = end;
    }

    /// Anything still waiting in the restoration buffer departs at the
    /// final instant; its statistics move into the report.
    pub(super) fn drain_restoration(&mut self, horizon: SimTime) {
        if let Some(mut buf) = self.restoration.take() {
            for p in buf.drain_all(horizon) {
                self.emit(p, horizon);
            }
            self.report.report.restoration = Some(buf.into_stats());
        }
    }

    /// Finalize loop-level report fields the event stream cannot see,
    /// signal `on_finish` to the probes, and hand both back.
    pub(super) fn finalize(
        mut self,
        core_reallocations: u64,
        core_busy_ns: Vec<u64>,
        faults: Option<crate::fault::FaultStats>,
    ) -> (SimReport, P) {
        self.report.report.out_of_order = self.order.out_of_order();
        self.report.report.core_reallocations = core_reallocations;
        self.report.report.core_busy_ns = core_busy_ns;
        self.report.report.faults = faults;
        if P::ACTIVE {
            let end = self.report.report.end_time;
            self.probes.finish(end);
        }
        (self.report.into_report(), self.probes)
    }

    /// The report under construction (invariant checking).
    #[cfg(feature = "invariants")]
    pub(super) fn report_ref(&self) -> &SimReport {
        &self.report.report
    }

    /// Restoration-buffer occupancy (invariant checking).
    #[cfg(feature = "invariants")]
    pub(super) fn restoration_occupancy(&self) -> u64 {
        self.restoration
            .as_ref()
            .map_or(0, |b| b.occupancy() as u64)
    }
}
