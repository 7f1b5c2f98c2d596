//! One core model on both backends: below saturation, under a static
//! flow-to-core map, each core sees the same packets in the same order
//! on the detsim engine and on npexec's threads, so the two must charge
//! exactly the same busy time, count the same cold starts and record
//! the same latencies — with or without a throttle or a stall.
//!
//! detsim runs `StaticHash` on 4 cores; npexec runs 4 workers over 4
//! groups with no rebalancing. Both then route every flow through the
//! same 4-bucket `MapTable`, and both charge through `npsim::CoreClock`.

use detsim::{Histogram, SimTime};
use laps::StaticHash;
use npexec::{NpexecConfig, ThreadedBackend};
use npsim::{Engine, EngineConfig, ExecBackend, FaultPlan, ProbeStack, RateSpec, SourceConfig};
use nptrace::TracePreset;
use nptraffic::ServiceKind;

fn cfg(faults: FaultPlan) -> EngineConfig {
    EngineConfig {
        n_cores: 4,
        duration: SimTime::from_millis(8),
        scale: 1.0,
        seed: 2026,
        faults,
        ..EngineConfig::default()
    }
}

/// Mostly IP forwarding, with a trickle of VPN packets so that cores
/// switch services and pay cold starts.
fn sources() -> Vec<SourceConfig> {
    vec![
        SourceConfig {
            service: ServiceKind::IpForward,
            trace: TracePreset::Caida(1),
            rate: RateSpec::Constant(1.0),
        },
        SourceConfig {
            service: ServiceKind::VpnOut,
            trace: TracePreset::Auckland(2),
            rate: RateSpec::Constant(0.04),
        },
    ]
}

/// Core 1 runs at 1/1.3 speed from 2 ms to 6 ms.
fn throttle_plan() -> FaultPlan {
    FaultPlan::new()
        .throttle(SimTime::from_millis(2), 1, 1.3)
        .throttle(SimTime::from_millis(6), 1, 1.0)
}

/// Core 1 stalls for 50 µs at 2 ms — short enough that its queue holds
/// the backlog — and a ×1.3 throttle sets in 20 µs into the window.
fn stall_plan() -> FaultPlan {
    FaultPlan::new()
        .stall(SimTime::from_millis(2), 1, SimTime::from_micros(50))
        .throttle(SimTime::from_micros(2_020), 1, 1.3)
}

/// What both backends must agree on: per-core busy ns, cold starts,
/// processed packets and the latency histogram.
type CoreModel = (Vec<u64>, u64, u64, Histogram);

/// The core model's figures on the detsim engine.
fn detsim(faults: FaultPlan) -> CoreModel {
    let r = Engine::new(cfg(faults), &sources(), StaticHash::new(4)).run();
    assert_eq!(r.dropped, 0, "the comparison holds below saturation only");
    (r.core_busy_ns, r.cold_starts, r.processed, r.latency)
}

/// The same on npexec's threads.
fn npexec(faults: FaultPlan) -> CoreModel {
    let mut backend = ThreadedBackend::new(NpexecConfig {
        workers: 4,
        groups: 4,
        rebalance_every: 0,
        ..NpexecConfig::default()
    });
    let (r, _) = backend.run(
        &cfg(faults),
        &sources(),
        Box::new(StaticHash::new(4)),
        ProbeStack::new(),
    );
    assert_eq!((r.dropped, r.out_of_order), (0, 0));
    assert_eq!(r.migrated_packets, 0, "a static map never moves a flow");
    (r.core_busy_ns, r.cold_starts, r.processed, r.latency)
}

#[test]
fn fault_free_backends_charge_identical_busy_time_per_core() {
    let det = detsim(FaultPlan::new());
    assert!(det.1 > 100, "the trickle causes cold starts: {}", det.1);
    assert_eq!(det.3.count(), det.2, "one latency per departure");
    assert_eq!(npexec(FaultPlan::new()), det);
}

#[test]
fn a_throttle_charges_the_same_packets_the_same_time_on_both_backends() {
    let det = detsim(throttle_plan());
    let plain = detsim(FaultPlan::new());
    assert!(
        det.0[1] > plain.0[1] && det.0[0] == plain.0[0],
        "the throttle slows core 1 only"
    );
    let first = npexec(throttle_plan());
    assert_eq!(first, det);
    // Which packets a throttle covers no longer depends on host timing.
    assert_eq!(npexec(throttle_plan()).0, first.0);
}

#[test]
fn a_stall_holds_the_same_packets_on_both_backends() {
    let det = detsim(stall_plan());
    let throttle_only = detsim(FaultPlan::new().throttle(SimTime::from_micros(2_020), 1, 1.3));
    assert!(
        det.0[1] > throttle_only.0[1] && det.0[0] == throttle_only.0[0],
        "packets that reached core 1 in the window's first 20 µs start \
         at its end, under the throttle"
    );
    let first = npexec(stall_plan());
    assert_eq!(first, det);
    assert_eq!(npexec(stall_plan()).0, first.0);
}
