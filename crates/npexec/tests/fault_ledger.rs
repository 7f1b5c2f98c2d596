//! The crash ledger on both backends: `npsim::FaultProbe`'s
//! `resident_flows` and `moved_off` against a brute-force recount over
//! the run's own `Dispatched`, `CoreCrashed` and `CoreHealed` events, on
//! a detsim `static` crash+heal run and on an npexec one.
//!
//! The npexec run also moves the crashed core's group off it well after
//! the heal, so a ledger that kept counting past the heal fails here.

use std::collections::{BTreeMap, BTreeSet};

use detsim::SimTime;
use laps::StaticHash;
use npexec::{ForcedMigration, NpexecConfig, ThreadedBackend};
use npsim::{
    Engine, EngineConfig, ExecBackend, FaultPlan, FaultProbe, PlanStream, Probe, ProbeStack,
    RateSpec, SimEvent, SourceConfig,
};
use nptrace::TracePreset;
use nptraffic::ServiceKind;

/// The crashed core; on npexec it owns group `CORE` from the start.
const CORE: usize = 2;

fn cfg() -> EngineConfig {
    EngineConfig {
        n_cores: 4,
        duration: SimTime::from_millis(10),
        scale: 1.0,
        seed: 4242,
        faults: FaultPlan::new()
            .crash(SimTime::from_millis(3), CORE)
            .heal(SimTime::from_millis(6), CORE),
        ..EngineConfig::default()
    }
}

fn sources() -> Vec<SourceConfig> {
    vec![SourceConfig {
        service: ServiceKind::IpForward,
        trace: TracePreset::Caida(1),
        rate: RateSpec::Constant(2.0),
    }]
}

/// The events the ledger reads, in delivery order.
#[derive(Debug, Default)]
struct Log(Vec<SimEvent>);

impl Probe for Log {
    fn name(&self) -> &'static str {
        "ledger-log"
    }

    fn on_event(&mut self, _now: SimTime, ev: &SimEvent) {
        if matches!(
            ev,
            SimEvent::Dispatched { .. }
                | SimEvent::CoreCrashed { .. }
                | SimEvent::CoreHealed { .. }
        ) {
            self.0.push(*ev);
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Per crash in `log`: `(core, resident, moved off)`, recounted from
/// scratch — the flows whose last dispatch before the crash went to the
/// core, and how many of them were dispatched to another core before
/// the core's heal.
fn recount(log: &[SimEvent]) -> Vec<(usize, u64, u64)> {
    let mut spans = Vec::new();
    for (k, ev) in log.iter().enumerate() {
        let SimEvent::CoreCrashed { core } = *ev else {
            continue;
        };
        let mut last = BTreeMap::new();
        for e in &log[..k] {
            if let SimEvent::Dispatched { slot, core: to, .. } = *e {
                last.insert(slot.index(), to);
            }
        }
        let resident: BTreeSet<usize> = last
            .into_iter()
            .filter(|&(_, to)| to == core)
            .map(|(slot, _)| slot)
            .collect();
        let moved: BTreeSet<usize> = log[k + 1..]
            .iter()
            .take_while(|e| !matches!(e, SimEvent::CoreHealed { core: h } if *h == core))
            .filter_map(|e| match *e {
                SimEvent::Dispatched { slot, core: to, .. }
                    if to != core && resident.contains(&slot.index()) =>
                {
                    Some(slot.index())
                }
                _ => None,
            })
            .collect();
        spans.push((core, resident.len() as u64, moved.len() as u64));
    }
    spans
}

/// The probe's ledger equals the recount: one span, healed and
/// restarted, that moved resident flows off the core.
fn assert_ledger(backend: &str, probes: &ProbeStack) {
    let faults = probes
        .first()
        .and_then(|p| p.as_any().downcast_ref::<FaultProbe>())
        .expect("fault probe returned");
    let log = probes
        .get(1)
        .and_then(|p| p.as_any().downcast_ref::<Log>())
        .expect("log returned");
    let ledger: Vec<_> = faults
        .recoveries()
        .iter()
        .map(|r| (r.core, r.resident_flows, r.moved_off))
        .collect();
    assert_eq!(ledger, recount(&log.0), "{backend}: ledger vs recount");
    let [r] = faults.recoveries() else {
        panic!("{backend}: one crash, one span");
    };
    assert!(r.restarted_at.is_some(), "{backend}: the core served again");
    assert!(
        r.moved_off > 0,
        "{backend}: the repair moved resident flows"
    );
}

fn probes() -> ProbeStack {
    vec![Box::new(FaultProbe::new()), Box::new(Log::default())]
}

#[test]
fn detsim_static_ledger_matches_a_recount() {
    let engine = Engine::with_probes(cfg(), &sources(), StaticHash::new(4), probes());
    let (report, _, probes) = engine.run_full();
    assert_eq!(report.offered, report.processed + report.dropped);
    assert_ledger("detsim", &probes);
}

#[test]
fn npexec_ledger_matches_a_recount() {
    let c = cfg();
    let after_heal = PlanStream::new(&c, &sources())
        .position(|p| p.at >= SimTime::from_millis(8))
        .expect("the instant falls inside the run") as u64;
    let mut backend = ThreadedBackend::new(NpexecConfig {
        workers: 4,
        forced_migrations: vec![ForcedMigration {
            after_packets: after_heal,
            group: CORE as u64,
            to_worker: 0,
        }],
        ..NpexecConfig::default()
    });
    let (report, probes) = backend.run(&c, &sources(), Box::new(StaticHash::new(4)), probes());
    assert_eq!(report.offered, report.processed + report.dropped);
    assert_eq!(report.out_of_order, 0);
    assert_ledger("npexec", &probes);
}
