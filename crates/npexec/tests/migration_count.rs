//! One migration rule on both backends: a `Migration` is a flow whose
//! packet goes to another core than its previous packet, observed on
//! that packet right after its `Dispatched`. Under a static
//! flow-to-core map only a crash re-home and its heal restore move
//! flows, and both backends route every packet through the same
//! 4-bucket `MapTable` and repair it the same way (`retire_core` onto
//! the first survivor, `restore_core` on the heal), so they must
//! migrate the same flows on the same packets, seed for seed.
//!
//! detsim runs `StaticHash` on 4 cores; npexec runs 4 workers over 4
//! groups with no rebalancing. Each migrated packet is serviced (the
//! crash drops only what had reached the dead core), so on npexec the
//! count also equals the migrated service starts.

use detsim::SimTime;
use laps::StaticHash;
use npexec::{NpexecConfig, ThreadedBackend};
use nphash::FlowSlot;
use npsim::{
    Engine, EngineConfig, ExecBackend, FaultPlan, Probe, ProbeStack, RateSpec, SimEvent,
    SourceConfig,
};
use nptrace::TracePreset;
use nptraffic::ServiceKind;

/// Core 2 crashes at 3 ms and heals at 6 ms of an 8 ms run.
fn cfg(seed: u64) -> EngineConfig {
    EngineConfig {
        n_cores: 4,
        duration: SimTime::from_millis(8),
        scale: 1.0,
        seed,
        faults: FaultPlan::new()
            .crash(SimTime::from_millis(3), 2)
            .heal(SimTime::from_millis(6), 2),
        ..EngineConfig::default()
    }
}

/// IP forwarding at 0.5 Mpps with a trickle of VPN packets. detsim's
/// queues may still overflow while one core serves two buckets (seed 5
/// drops 11 packets so), which would move a flow's migration to its
/// next packet there; none of those drops hits a migrating packet.
fn sources() -> Vec<SourceConfig> {
    vec![
        SourceConfig {
            service: ServiceKind::IpForward,
            trace: TracePreset::Caida(1),
            rate: RateSpec::Constant(0.5),
        },
        SourceConfig {
            service: ServiceKind::VpnOut,
            trace: TracePreset::Auckland(2),
            rate: RateSpec::Constant(0.04),
        },
    ]
}

/// Every `Migration` delivered, as `(packet id, flow, from, to)`.
/// Each must directly follow its packet's `Dispatched`, to the core it
/// names, flagged `migrated`: detsim publishes it there, after the
/// queue took the packet, and npexec must too.
#[derive(Debug, Default)]
struct Moves {
    dispatched: Option<(u64, FlowSlot, usize, bool)>,
    moves: Vec<(u64, FlowSlot, usize, usize)>,
}

impl Probe for Moves {
    fn name(&self) -> &'static str {
        "moves"
    }

    fn on_event(&mut self, _now: SimTime, ev: &SimEvent) {
        let dispatched = self.dispatched.take();
        match *ev {
            SimEvent::Dispatched {
                id,
                slot,
                core,
                migrated,
                ..
            } => self.dispatched = Some((id, slot, core, migrated)),
            SimEvent::Migration { slot, from, to } => {
                let Some((id, s, core, migrated)) = dispatched else {
                    panic!("a Migration of {slot:?} with no Dispatched just before it");
                };
                assert_eq!((s, core, migrated), (slot, to, true), "packet {id}");
                assert_ne!(from, to, "packet {id}");
                self.moves.push((id, slot, from, to));
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

fn moves(probes: &ProbeStack) -> &[(u64, FlowSlot, usize, usize)] {
    let moves = probes
        .first()
        .and_then(|p| p.as_any().downcast_ref::<Moves>());
    &moves.expect("moves probe returned").moves
}

#[test]
fn crash_and_heal_migrate_the_same_flows_on_both_backends() {
    for seed in [1, 2, 3, 4, 5, 7, 99, 2026] {
        let probes: ProbeStack = vec![Box::new(Moves::default())];
        let engine = Engine::with_probes(cfg(seed), &sources(), StaticHash::new(4), probes);
        let (det, _, det_probes) = engine.run_full();
        assert!(
            det.migration_events > 0,
            "seed {seed}: the crash re-homes resident flows"
        );
        assert_eq!(moves(&det_probes).len() as u64, det.migration_events);
        let mut backend = ThreadedBackend::new(NpexecConfig {
            workers: 4,
            groups: 4,
            rebalance_every: 0,
            ..NpexecConfig::default()
        });
        let probes: ProbeStack = vec![Box::new(Moves::default())];
        let (exec, exec_probes) =
            backend.run(&cfg(seed), &sources(), Box::new(StaticHash::new(4)), probes);
        assert_eq!(exec.out_of_order, 0, "seed {seed}");
        assert_eq!(
            exec.migration_events, det.migration_events,
            "seed {seed}: migrations"
        );
        assert_eq!(
            exec.migration_events, exec.migrated_packets,
            "seed {seed}: every migrated packet was serviced"
        );
        assert_eq!(moves(&exec_probes), moves(&det_probes), "seed {seed}");
    }
}
