//! Simulation reports — the numbers behind every figure.

use crate::fault::FaultStats;
use detsim::{Histogram, SimTime};
use serde::{Deserialize, Serialize, Value};

/// Per-service counters.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ServiceBreakdown {
    /// Packets offered (generated) for this service.
    pub offered: u64,
    /// Packets dropped at full queues.
    pub dropped: u64,
    /// Packets fully processed.
    pub processed: u64,
    /// Out-of-order departures.
    pub out_of_order: u64,
}

/// State-Compute Replication accounting: what the SCR sync-cost model
/// charged over the run. Present only when an `scr-*` policy ran with a
/// non-zero `DelayModel::sync_cost_us`; every other run omits the block
/// entirely (same wire contract as [`FaultStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyncStats {
    /// Packets that paid a non-zero sync surcharge (their flow's state
    /// was stale on at least one other core at dispatch time).
    pub sync_packets: u64,
    /// Total service-time surcharge in nanoseconds across those packets
    /// — the run's aggregate state-sync overhead.
    pub sync_extra_ns: u64,
    /// Replica-set consolidations performed (`SyncPolicy::sync_every`
    /// reached: the flow's state was re-mastered on one core).
    pub consolidations: u64,
}

/// The complete result of one simulation run.
///
/// `Serialize` is hand-written (not derived) for one reason: the
/// `faults` and `sync` fields must be *omitted* — not emitted as `null`
/// — when no fault plan / SCR sync model ran, so reports from ordinary
/// runs stay byte-identical to the pre-fault golden fixtures. The
/// derive has no `skip_serializing_if`; keep the manual impl's field
/// list in sync with the struct, in declaration order.
#[derive(Debug, Clone, Deserialize)]
pub struct SimReport {
    /// Scheduler name.
    pub scheduler: String,
    /// Simulated horizon (arrivals stop here).
    pub duration: SimTime,
    /// Time of the last departure (≥ `duration` when queues drained past
    /// the horizon). Utilization is measured against this.
    pub end_time: SimTime,
    /// Rate/time scale factor used.
    pub scale: f64,
    /// Packets offered by all sources.
    pub offered: u64,
    /// Packets dropped (full target queue).
    pub dropped: u64,
    /// Packets fully processed (departed).
    pub processed: u64,
    /// Out-of-order departures.
    pub out_of_order: u64,
    /// Packets that paid the flow-migration penalty.
    pub migrated_packets: u64,
    /// Distinct flow-migration events (a flow's packets moving to a new
    /// core) — the Fig. 9(c) metric.
    pub migration_events: u64,
    /// Packets that paid the cold-I-cache penalty.
    pub cold_starts: u64,
    /// Per-service breakdowns, indexed by `ServiceKind::index()`.
    pub per_service: [ServiceBreakdown; 4],
    /// Packet latency (arrival → departure), nanoseconds.
    pub latency: Histogram,
    /// Cores requested by the scheduler beyond its initial allocation
    /// (LAPS `request_core` count; 0 for baselines).
    pub core_reallocations: u64,
    /// Egress order-restoration statistics, when the engine ran with a
    /// restoration buffer (`EngineConfig::restoration`).
    pub restoration: Option<crate::restore::RestorationStats>,
    /// Per-core busy time in nanoseconds (time spent processing packets)
    /// — the raw input to any power/energy model.
    pub core_busy_ns: Vec<u64>,
    /// Always 0: every arrival is a data-plane packet (the engine has no
    /// control-plane slow path). Kept so the report's wire format and
    /// its readers stay as they are.
    pub slow_path: u64,
    /// Discrete events dispatched by the run loop (arrivals, service
    /// completions, rate updates) — identical across event-queue
    /// backends; the denominator-free half of the events/sec metric.
    pub events: u64,
    /// Fault-injection and degradation accounting; `None` when the run
    /// had no fault plan (and the key is then omitted from serialized
    /// reports entirely).
    pub faults: Option<FaultStats>,
    /// SCR state-sync accounting; `None` — and omitted from serialized
    /// reports — unless the policy opted into a sync model
    /// (`Scheduler::sync_policy`) *and* the delay model prices it.
    pub sync: Option<SyncStats>,
}

impl Serialize for SimReport {
    fn to_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> = vec![
            ("scheduler".to_string(), self.scheduler.to_value()),
            ("duration".to_string(), self.duration.to_value()),
            ("end_time".to_string(), self.end_time.to_value()),
            ("scale".to_string(), self.scale.to_value()),
            ("offered".to_string(), self.offered.to_value()),
            ("dropped".to_string(), self.dropped.to_value()),
            ("processed".to_string(), self.processed.to_value()),
            ("out_of_order".to_string(), self.out_of_order.to_value()),
            (
                "migrated_packets".to_string(),
                self.migrated_packets.to_value(),
            ),
            (
                "migration_events".to_string(),
                self.migration_events.to_value(),
            ),
            ("cold_starts".to_string(), self.cold_starts.to_value()),
            ("per_service".to_string(), self.per_service.to_value()),
            ("latency".to_string(), self.latency.to_value()),
            (
                "core_reallocations".to_string(),
                self.core_reallocations.to_value(),
            ),
            ("restoration".to_string(), self.restoration.to_value()),
            ("core_busy_ns".to_string(), self.core_busy_ns.to_value()),
            ("slow_path".to_string(), self.slow_path.to_value()),
            ("events".to_string(), self.events.to_value()),
        ];
        if let Some(f) = &self.faults {
            fields.push(("faults".to_string(), f.to_value()));
        }
        if let Some(s) = &self.sync {
            fields.push(("sync".to_string(), s.to_value()));
        }
        Value::Object(fields)
    }
}

impl SimReport {
    /// A zeroed report for `scheduler`.
    pub fn new(scheduler: impl Into<String>, duration: SimTime, scale: f64) -> Self {
        SimReport {
            scheduler: scheduler.into(),
            end_time: duration,
            duration,
            scale,
            offered: 0,
            dropped: 0,
            processed: 0,
            out_of_order: 0,
            migrated_packets: 0,
            migration_events: 0,
            cold_starts: 0,
            per_service: Default::default(),
            latency: Histogram::new(),
            core_reallocations: 0,
            restoration: None,
            core_busy_ns: Vec::new(),
            slow_path: 0,
            events: 0,
            faults: None,
            sync: None,
        }
    }

    /// The per-service counters of `service` (the hot-path-safe way to
    /// reach `per_service`: `ServiceKind::index()` is 0..4 and the array
    /// has exactly one slot per kind, so no packet-path indexing panic
    /// is possible through this accessor).
    pub fn service_mut(&mut self, service: nptraffic::ServiceKind) -> &mut ServiceBreakdown {
        let idx = service.index().min(self.per_service.len() - 1);
        &mut self.per_service[idx]
    }

    /// Fraction of offered packets dropped — Fig. 7(a) / Fig. 9(a).
    pub fn drop_fraction(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.dropped as f64 / self.offered as f64
        }
    }

    /// Fraction of processed packets departing out of order — Fig. 7(c) /
    /// Fig. 9(b).
    pub fn ooo_fraction(&self) -> f64 {
        if self.processed == 0 {
            0.0
        } else {
            self.out_of_order as f64 / self.processed as f64
        }
    }

    /// Fraction of processed packets paying the cold-cache penalty —
    /// Fig. 7(b).
    pub fn cold_fraction(&self) -> f64 {
        if self.processed == 0 {
            0.0
        } else {
            self.cold_starts as f64 / self.processed as f64
        }
    }

    /// Achieved throughput in Mpps at *paper scale* (processed packets ÷
    /// duration, multiplied back by the scale factor).
    pub fn throughput_mpps(&self) -> f64 {
        let us = self.duration.as_micros_f64();
        if us == 0.0 {
            0.0
        } else {
            self.processed as f64 / us * self.scale
        }
    }

    /// Mean packet latency in µs (at simulation scale).
    pub fn mean_latency_us(&self) -> f64 {
        self.latency.mean() / 1_000.0
    }

    /// Mean utilization across cores (busy time ÷ wall time to the last
    /// departure), 0..1.
    pub fn mean_utilization(&self) -> f64 {
        if self.core_busy_ns.is_empty() || self.end_time == SimTime::ZERO {
            return 0.0;
        }
        let total: u64 = self.core_busy_ns.iter().sum();
        total as f64 / (self.end_time.as_nanos() as f64 * self.core_busy_ns.len() as f64)
    }

    /// Number of cores whose busy fraction exceeds `threshold` — a proxy
    /// for "cores that could not have been powered down".
    pub fn active_cores(&self, threshold: f64) -> usize {
        let dur = self.end_time.as_nanos() as f64;
        if dur == 0.0 {
            return 0;
        }
        self.core_busy_ns
            .iter()
            .filter(|&&b| b as f64 / dur > threshold)
            .count()
    }

    /// Sanity: offered = dropped + processed + still-in-flight. Exposed
    /// for tests; `in_flight` is whatever remained queued/being processed
    /// at the horizon.
    pub fn accounted(&self) -> u64 {
        self.dropped + self.processed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nptraffic::ServiceKind;

    #[test]
    fn fractions_handle_zero_denominators() {
        let r = SimReport::new("x", SimTime::ZERO, 1.0);
        assert_eq!(r.drop_fraction(), 0.0);
        assert_eq!(r.ooo_fraction(), 0.0);
        assert_eq!(r.cold_fraction(), 0.0);
        assert_eq!(r.throughput_mpps(), 0.0);
    }

    #[test]
    fn throughput_unscales() {
        let mut r = SimReport::new("x", SimTime::from_secs(1), 50.0);
        r.processed = 1_000_000; // 1 Mp in 1 s at scale 50 → 0.05 Mpps × 50 = 50...
                                 // 1e6 packets / 1e6 µs = 1 pkt/µs = 1 Mpps at sim scale → ×50 = 50 Mpps.
        assert!((r.throughput_mpps() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn sync_block_omitted_when_none() {
        let mut r = SimReport::new("x", SimTime::ZERO, 1.0);
        let v = r.to_value();
        assert!(v.get("sync").is_none(), "None must omit the key, not null");
        assert!(v.get("faults").is_none());
        r.sync = Some(SyncStats {
            sync_packets: 3,
            sync_extra_ns: 900,
            consolidations: 1,
        });
        let v = r.to_value();
        let s = v.get("sync").expect("Some serializes the block");
        assert_eq!(s.get("sync_packets"), Some(&Value::U64(3)));
        let back = SimReport::from_value(&v).expect("round trip");
        assert_eq!(back.sync, r.sync);
    }

    #[test]
    fn per_service_indexing() {
        let mut r = SimReport::new("x", SimTime::ZERO, 1.0);
        r.per_service[ServiceKind::MalwareScan.index()].offered = 7;
        assert_eq!(r.per_service[2].offered, 7);
    }
}
