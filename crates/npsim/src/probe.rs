//! The observability bus: [`Probe`]s consume the [`SimEvent`] stream.
//!
//! A probe is a passive observer attached to the engine at build time.
//! The record stage hands it every published event (`on_event`) and one
//! final callback at the end of the run (`on_finish`). Probes never feed
//! back into the simulation — attaching any combination of probes must
//! not change a single bit of the [`SimReport`](crate::SimReport).
//!
//! # Determinism contract
//!
//! Probes run inside the deterministic event loop, so `on_event` must
//! itself be deterministic and cheap:
//!
//! * **No fresh allocation** per event. Appending to a pre-owned,
//!   amortized-growth buffer (`Vec::push` / `resize`) is fine;
//!   constructing containers, strings, or boxes per event is not.
//! * **No nondeterministic collections** (`HashMap`/`HashSet` with
//!   random state) — iteration order would leak into output.
//! * **No wall-clock or OS entropy.** Virtual time arrives as an
//!   argument.
//!
//! The `npcheck` lint rule `probe-hot-path` enforces the allocation and
//! collection clauses mechanically over every `on_event` body in the
//! simulation crates.
//!
//! # Zero-probe fast path
//!
//! The engine is generic over a [`ProbeHost`]. The default host `()` has
//! `ACTIVE == false` and empty inlined methods, so an engine built
//! without probes compiles to exactly the pre-bus hot path — event
//! publishing folds to nothing. A `Vec<Box<dyn Probe>>` host dispatches
//! dynamically to every attached probe.

use crate::event::SimEvent;
use crate::report::SimReport;
use detsim::{Counter, Histogram, SimTime};
use std::any::Any;
use std::fmt::Write as _;

/// A passive observer of the simulation-event stream.
pub trait Probe {
    /// Short identifier used in logs and output file names.
    fn name(&self) -> &'static str;

    /// Observe one event at virtual time `now`. Must follow the module's
    /// determinism contract (no per-event allocation, no nondeterministic
    /// collections, no wall clock).
    fn on_event(&mut self, now: SimTime, ev: &SimEvent);

    /// Called once after the run loop drains, with the run's end time.
    fn on_finish(&mut self, _end: SimTime) {}

    /// Downcasting hook so callers can recover the concrete probe (and
    /// its accumulated data) from a `Box<dyn Probe>` after the run.
    fn as_any(&self) -> &dyn Any;
}

/// The engine-side probe attachment point.
///
/// Implemented by `()` (no probes: `ACTIVE == false`, everything inlines
/// to nothing) and by [`ProbeStack`] (dynamic dispatch to each attached
/// probe). Engine code guards every publish with `P::ACTIVE`, a
/// compile-time constant, so the zero-probe engine carries no bus cost.
pub trait ProbeHost {
    /// Whether this host observes events at all. `false` lets the
    /// compiler erase event construction and delivery entirely.
    const ACTIVE: bool;

    /// Deliver one event to every probe.
    fn deliver(&mut self, now: SimTime, ev: &SimEvent);

    /// Signal end of run to every probe.
    fn finish(&mut self, end: SimTime);
}

impl ProbeHost for () {
    const ACTIVE: bool = false;

    #[inline(always)]
    fn deliver(&mut self, _now: SimTime, _ev: &SimEvent) {}

    #[inline(always)]
    fn finish(&mut self, _end: SimTime) {}
}

/// A dynamic set of probes, delivered to in attachment order.
pub type ProbeStack = Vec<Box<dyn Probe>>;

impl ProbeHost for ProbeStack {
    const ACTIVE: bool = true;

    #[inline]
    fn deliver(&mut self, now: SimTime, ev: &SimEvent) {
        for p in self.iter_mut() {
            p.on_event(now, ev);
        }
    }

    fn finish(&mut self, end: SimTime) {
        for p in self.iter_mut() {
            p.on_finish(end);
        }
    }
}

/// The probe that *is* the report: folds the event stream into the
/// engine's [`SimReport`] counters.
///
/// The record stage holds one of these statically (it is not boxed and
/// runs whether or not dynamic probes are attached), which is how the
/// report became bus-derived without a hot-path cost. Loop-level fields
/// the stream cannot see — `events`, `end_time`, the final
/// `out_of_order` total, `core_reallocations`, `core_busy_ns`,
/// restoration stats — are finalized by the engine after the drain.
///
/// A fold splits: npexec's dispatcher and each of its workers fold the
/// events they see into their own probe, and [`ReportProbe::merge`]
/// joins the parts into the report one probe would have folded from
/// the whole stream.
#[derive(Debug)]
pub struct ReportProbe {
    /// The report being accumulated.
    pub(crate) report: SimReport,
}

impl Default for ReportProbe {
    /// An empty fold with no scheduler name, for a part to be merged.
    fn default() -> Self {
        ReportProbe::new("", SimTime::ZERO, 1.0)
    }
}

impl ReportProbe {
    /// A zeroed report accumulator for `scheduler`.
    pub fn new(scheduler: &str, duration: SimTime, scale: f64) -> Self {
        ReportProbe {
            report: SimReport::new(scheduler, duration, scale),
        }
    }

    /// Fold one event into the report counters.
    #[inline]
    pub fn observe(&mut self, _now: SimTime, ev: &SimEvent) {
        match *ev {
            SimEvent::PacketArrived { service, .. } => {
                self.report.offered += 1;
                self.report.service_mut(service).offered += 1;
            }
            SimEvent::Migration { .. } => {
                self.report.migration_events += 1;
            }
            SimEvent::Dropped { service, .. } => {
                self.report.dropped += 1;
                self.report.service_mut(service).dropped += 1;
            }
            SimEvent::ServiceStart { cold, migrated, .. } => {
                if cold {
                    self.report.cold_starts += 1;
                }
                if migrated {
                    self.report.migrated_packets += 1;
                }
            }
            SimEvent::Departure {
                service,
                latency_ns,
                out_of_order,
                ..
            } => {
                self.report.processed += 1;
                self.report.service_mut(service).processed += 1;
                if out_of_order {
                    self.report.out_of_order += 1;
                    self.report.service_mut(service).out_of_order += 1;
                }
                self.report.latency.record(latency_ns);
            }
            SimEvent::Dispatched { .. }
            | SimEvent::ReorderDetected { .. }
            | SimEvent::CoreCrashed { .. }
            | SimEvent::CoreHealed { .. }
            | SimEvent::EpochTick => {}
        }
    }

    /// Add what `other` folded: every counter `observe` keeps, the
    /// per-service breakdowns and the latency histogram. Folding a
    /// stream in parts and merging them equals folding it whole.
    pub fn merge(&mut self, other: &ReportProbe) {
        let (r, o) = (&mut self.report, &other.report);
        r.offered += o.offered;
        r.dropped += o.dropped;
        r.processed += o.processed;
        r.out_of_order += o.out_of_order;
        r.migrated_packets += o.migrated_packets;
        r.migration_events += o.migration_events;
        r.cold_starts += o.cold_starts;
        for (s, t) in r.per_service.iter_mut().zip(&o.per_service) {
            s.offered += t.offered;
            s.dropped += t.dropped;
            s.processed += t.processed;
            s.out_of_order += t.out_of_order;
        }
        r.latency.merge(&o.latency);
    }

    /// Hand the accumulated report out.
    pub fn into_report(self) -> SimReport {
        self.report
    }
}

/// A deterministic metric registry: one named counter per event kind
/// plus histograms of the stream's scalar payloads, all layered on
/// `detsim::stats`. Iteration order is fixed at compile time, so two
/// identical runs snapshot byte-identical metrics.
#[derive(Debug, Default)]
pub struct MetricsProbe {
    arrivals: Counter,
    dispatched: Counter,
    migrations: Counter,
    drops: Counter,
    service_starts: Counter,
    cold_starts: Counter,
    departures: Counter,
    reorders: Counter,
    epoch_ticks: Counter,
    core_crashes: Counter,
    core_heals: Counter,
    latency_ns: Histogram,
    service_ns: Histogram,
    queue_len: Histogram,
    reorder_extent: Histogram,
}

impl MetricsProbe {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// All counters as `(name, value)` pairs in a fixed, deterministic
    /// order (the declaration order above). Look entries up by name.
    pub fn counters(&self) -> [(&'static str, u64); 11] {
        [
            ("arrivals", self.arrivals.get()),
            ("dispatched", self.dispatched.get()),
            ("migrations", self.migrations.get()),
            ("drops", self.drops.get()),
            ("service_starts", self.service_starts.get()),
            ("cold_starts", self.cold_starts.get()),
            ("departures", self.departures.get()),
            ("reorders", self.reorders.get()),
            ("epoch_ticks", self.epoch_ticks.get()),
            ("core_crashes", self.core_crashes.get()),
            ("core_heals", self.core_heals.get()),
        ]
    }

    /// All histograms as `(name, histogram)` pairs in fixed order.
    pub fn histograms(&self) -> [(&'static str, &Histogram); 4] {
        [
            ("latency_ns", &self.latency_ns),
            ("service_ns", &self.service_ns),
            ("queue_len", &self.queue_len),
            ("reorder_extent", &self.reorder_extent),
        ]
    }

    /// Render the registry as CSV: `metric,count,mean,p50,p99,max` (the
    /// distribution columns are empty for plain counters).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("metric,count,mean,p50,p99,max\n");
        for (name, v) in self.counters() {
            let _ = writeln!(out, "{name},{v},,,,");
        }
        for (name, h) in self.histograms() {
            let _ = writeln!(
                out,
                "{name},{},{:.1},{},{},{}",
                h.count(),
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.99),
                h.max()
            );
        }
        out
    }
}

impl Probe for MetricsProbe {
    fn name(&self) -> &'static str {
        "metrics"
    }

    fn on_event(&mut self, _now: SimTime, ev: &SimEvent) {
        match *ev {
            SimEvent::PacketArrived { .. } => self.arrivals.incr(),
            SimEvent::Dispatched { queue_len, .. } => {
                self.dispatched.incr();
                self.queue_len.record(queue_len as u64);
            }
            SimEvent::Migration { .. } => self.migrations.incr(),
            SimEvent::Dropped { .. } => self.drops.incr(),
            SimEvent::ServiceStart { cold, duration, .. } => {
                self.service_starts.incr();
                if cold {
                    self.cold_starts.incr();
                }
                self.service_ns.record(duration.as_nanos());
            }
            SimEvent::Departure { latency_ns, .. } => {
                self.departures.incr();
                self.latency_ns.record(latency_ns);
            }
            SimEvent::ReorderDetected { extent, .. } => {
                self.reorders.incr();
                self.reorder_extent.record(extent);
            }
            SimEvent::CoreCrashed { .. } => self.core_crashes.incr(),
            SimEvent::CoreHealed { .. } => self.core_heals.incr(),
            SimEvent::EpochTick => self.epoch_ticks.incr(),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// A time-stamped log of the *rare* events the paper's analysis keys on:
/// migrations, reorder detections, drops, and core crash/heal
/// transitions. High-frequency events (arrivals, dispatches, service)
/// are deliberately excluded to keep the log proportional to the
/// interesting-event count, not the packet count.
#[derive(Debug, Default)]
pub struct EventLogProbe {
    entries: Vec<(SimTime, SimEvent)>,
}

impl EventLogProbe {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded `(time, event)` entries, in publication order.
    pub fn entries(&self) -> &[(SimTime, SimEvent)] {
        &self.entries
    }

    /// Render as CSV: `time_ns,kind,key,a,b` where the column meaning is
    /// per kind — `migration`: flow slot, from-core, to-core; `reorder`:
    /// flow slot, flow seq, extent; `drop`: flow slot, core, packet id;
    /// `crash`/`heal`: core (a, b empty).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time_ns,kind,key,a,b\n");
        for &(t, ev) in &self.entries {
            let ns = t.as_nanos();
            let _ = match ev {
                SimEvent::Migration { slot, from, to } => {
                    writeln!(out, "{ns},migration,{},{from},{to}", slot.raw())
                }
                SimEvent::ReorderDetected {
                    slot,
                    flow_seq,
                    extent,
                } => writeln!(out, "{ns},reorder,{},{flow_seq},{extent}", slot.raw()),
                SimEvent::Dropped { id, slot, core, .. } => {
                    writeln!(out, "{ns},drop,{},{core},{id}", slot.raw())
                }
                SimEvent::CoreCrashed { core } => writeln!(out, "{ns},crash,{core},,"),
                SimEvent::CoreHealed { core } => writeln!(out, "{ns},heal,{core},,"),
                _ => Ok(()),
            };
        }
        out
    }
}

impl Probe for EventLogProbe {
    fn name(&self) -> &'static str {
        "event-log"
    }

    fn on_event(&mut self, now: SimTime, ev: &SimEvent) {
        match ev {
            SimEvent::Migration { .. }
            | SimEvent::ReorderDetected { .. }
            | SimEvent::Dropped { .. }
            | SimEvent::CoreCrashed { .. }
            | SimEvent::CoreHealed { .. } => self.entries.push((now, *ev)),
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nphash::FlowSlot;
    use nptraffic::ServiceKind;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn report_probe_folds_counters() {
        let mut rp = ReportProbe::new("test", t(100), 1.0);
        let svc = ServiceKind::IpForward;
        let slot = FlowSlot::new(0);
        rp.observe(
            t(0),
            &SimEvent::PacketArrived {
                id: 0,
                slot,
                service: svc,
                size: 64,
            },
        );
        rp.observe(
            t(1),
            &SimEvent::ServiceStart {
                core: 0,
                service: svc,
                cold: true,
                migrated: false,
                duration: t(1),
            },
        );
        rp.observe(
            t(2),
            &SimEvent::Departure {
                id: 0,
                slot,
                service: svc,
                latency_ns: 2_000,
                out_of_order: false,
            },
        );
        let r = rp.into_report();
        assert_eq!((r.offered, r.processed, r.cold_starts), (1, 1, 1));
        assert_eq!(r.per_service[svc.index()].offered, 1);
        assert_eq!(r.latency.count(), 1);
    }

    /// A random event of any kind the report fold reads (and some it
    /// ignores), over all four services.
    fn random_event(rng: &mut StdRng) -> SimEvent {
        let service = ServiceKind::ALL[rng.gen_range(0..4usize)];
        let slot = FlowSlot::new(rng.gen_range(0..64u32));
        let id = rng.gen_range(0..1_000_000u64);
        match rng.gen_range(0..6u32) {
            0 => SimEvent::PacketArrived {
                id,
                slot,
                service,
                size: 64,
            },
            1 => SimEvent::Dropped {
                id,
                slot,
                service,
                core: 1,
            },
            2 => SimEvent::Migration {
                slot,
                from: 0,
                to: 2,
            },
            3 => SimEvent::ServiceStart {
                core: 3,
                service,
                cold: rng.gen_bool(0.3),
                migrated: rng.gen_bool(0.2),
                duration: t(1),
            },
            4 => SimEvent::Departure {
                id,
                slot,
                service,
                latency_ns: rng.gen_range(0..50_000u64),
                out_of_order: rng.gen_bool(0.1),
            },
            _ => SimEvent::EpochTick,
        }
    }

    #[test]
    fn report_probe_merge_of_two_halves_equals_the_whole_fold() {
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let events: Vec<SimEvent> = (0..2_000).map(|_| random_event(&mut rng)).collect();
            let cut = rng.gen_range(0..events.len());
            let fold = |evs: &[SimEvent]| {
                let mut rp = ReportProbe::new("test", t(100), 1.0);
                for ev in evs {
                    rp.observe(t(0), ev);
                }
                rp
            };
            let whole = fold(&events).into_report();
            let (head, tail) = events.split_at(cut);
            let mut parts = fold(head);
            parts.merge(&fold(tail));
            let merged = parts.into_report();
            assert!(whole.latency.count() > 0 && whole.cold_starts > 0);
            assert_eq!(format!("{whole:?}"), format!("{merged:?}"), "seed {seed}");
        }
    }

    #[test]
    fn metrics_probe_counts_and_orders_deterministically() {
        let mut m = MetricsProbe::new();
        m.on_event(t(0), &SimEvent::EpochTick);
        m.on_event(
            t(1),
            &SimEvent::ReorderDetected {
                slot: FlowSlot::new(3),
                flow_seq: 9,
                extent: 2,
            },
        );
        let names: Vec<&str> = m.counters().iter().map(|(n, _)| *n).collect();
        assert_eq!(names[0], "arrivals");
        let by_name = |n: &str| m.counters().into_iter().find(|&(name, _)| name == n);
        assert_eq!(by_name("epoch_ticks"), Some(("epoch_ticks", 1)));
        assert_eq!(by_name("reorders"), Some(("reorders", 1)));
        assert_eq!(m.histograms()[3].1.max(), 2);
        let csv = m.to_csv();
        assert!(csv.starts_with("metric,count,mean,p50,p99,max\n"));
        assert!(csv.contains("epoch_ticks,1,,,,"));
    }

    #[test]
    fn event_log_probe_keeps_rare_events_only() {
        let mut l = EventLogProbe::new();
        l.on_event(
            t(0),
            &SimEvent::PacketArrived {
                id: 0,
                slot: FlowSlot::new(0),
                service: ServiceKind::IpForward,
                size: 64,
            },
        );
        l.on_event(
            t(1),
            &SimEvent::Migration {
                slot: FlowSlot::new(7),
                from: 0,
                to: 3,
            },
        );
        l.on_event(t(2), &SimEvent::CoreCrashed { core: 5 });
        assert_eq!(l.entries().len(), 2);
        let csv = l.to_csv();
        assert!(csv.contains("1000,migration,7,0,3"));
        assert!(csv.contains("2000,crash,5,,"));
    }

    #[test]
    fn probe_stack_delivers_in_order_and_downcasts() {
        let mut stack: ProbeStack = vec![
            Box::new(MetricsProbe::new()),
            Box::new(EventLogProbe::new()),
        ];
        stack.deliver(t(0), &SimEvent::EpochTick);
        stack.finish(t(1));
        let m = stack[0]
            .as_any()
            .downcast_ref::<MetricsProbe>()
            .expect("metrics probe downcasts");
        let ticks = m.counters().into_iter().find(|&(n, _)| n == "epoch_ticks");
        assert_eq!(ticks, Some(("epoch_ticks", 1)));
    }

    #[test]
    fn unit_host_is_inactive() {
        const { assert!(!<() as ProbeHost>::ACTIVE) };
        const { assert!(<ProbeStack as ProbeHost>::ACTIVE) };
    }
}
