//! Component-level timing of the hot-path workload: where does the
//! per-packet budget actually go? (Ad-hoc tool; numbers feed DESIGN.md.)

use laps::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn time(name: &str, n: u64, mut f: impl FnMut() -> u64) {
    let start = Instant::now();
    let acc = f();
    let el = start.elapsed();
    println!(
        "{name:>28}: {:>8.1} ns/iter  ({n} iters, acc {acc})",
        el.as_nanos() as f64 / n as f64
    );
}

fn main() {
    let n = 4_000_000u64;

    // RNG draw
    let mut rng = StdRng::seed_from_u64(1);
    time("rng.gen::<f64>", n, || {
        let mut acc = 0u64;
        for _ in 0..n {
            acc = acc.wrapping_add(rng.gen::<f64>().to_bits());
        }
        acc
    });

    // exp gap draw via source
    let src = npsim::TrafficSource::new(&SourceConfig {
        service: ServiceKind::IpForward,
        trace: TracePreset::Caida(1),
        rate: RateSpec::Constant(24.0),
    });
    let mut rng2 = StdRng::seed_from_u64(2);
    time("source.next_gap", n, || {
        let mut acc = 0u64;
        for _ in 0..n {
            acc = acc.wrapping_add(src.draw_gap(1.0, &mut rng2).as_nanos());
        }
        acc
    });

    // trace generator next_packet
    let mut gen = TracePreset::Caida(1).generator(0);
    time("tracegen.next_packet", n, || {
        let mut acc = 0u64;
        for _ in 0..n {
            let p = gen.next_packet();
            acc = acc.wrapping_add(p.flow as u64 + p.size as u64);
        }
        acc
    });

    // interned header via source
    let mut src2 = npsim::TrafficSource::new(&SourceConfig {
        service: ServiceKind::IpForward,
        trace: TracePreset::Caida(1),
        rate: RateSpec::Constant(24.0),
    });
    let mut interner = nphash::FlowInterner::new();
    time("source.next_header_interned", n, || {
        let mut acc = 0u64;
        for _ in 0..n {
            let (_, slot, size) = src2.next_header_interned(&mut interner);
            acc = acc.wrapping_add(slot.raw() as u64 + size as u64);
        }
        acc
    });

    // event queue push/pop at small pending-set size
    let mut q = detsim::EventQueue::<u32>::with_capacity(64);
    for i in 0..4 {
        q.push(detsim::SimTime::from_nanos(i), i as u32);
    }
    let mut t = 4u64;
    time("heap push+pop (4 pending)", n, || {
        let mut acc = 0u64;
        for _ in 0..n {
            let (at, v) = q.pop().unwrap_or((detsim::SimTime::ZERO, 0));
            acc = acc.wrapping_add(v as u64);
            t += 37;
            q.push(detsim::SimTime::from_nanos(t) + at - at, v);
        }
        acc
    });

    // delay model
    let delay = nptraffic::DelayModel::default();
    time("delay.processing_delay_us", n, || {
        let mut acc = 0u64;
        for i in 0..n {
            let d = delay.processing_delay_us(ServiceKind::IpForward, 64, i % 7 == 0, i % 11 == 0);
            acc = acc.wrapping_add(d.to_bits());
        }
        acc
    });

    // full engine run for scale reference
    let cfg = EngineConfig {
        n_cores: 16,
        duration: SimTime::from_millis(10),
        scale: 1.0,
        seed: 7,
        ..EngineConfig::default()
    };
    let sources = vec![SourceConfig {
        service: ServiceKind::IpForward,
        trace: TracePreset::Caida(1),
        rate: RateSpec::Constant(24.0),
    }];
    let engine = Engine::new(cfg, &sources, Fcfs::new());
    let start = Instant::now();
    let report = engine.run();
    let el = start.elapsed();
    println!(
        "{:>28}: {:>8.1} ns/packet ({} packets, {} events, {:.1} ns/event)",
        "full engine (fcfs)",
        el.as_nanos() as f64 / report.offered as f64,
        report.offered,
        report.events,
        el.as_nanos() as f64 / report.events as f64
    );
}
