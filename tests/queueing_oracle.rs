//! An oracle for the arrival process and the core model that shares no
//! code with the simulator: closed-form queueing theory.
//!
//! One core, one service, `static`: every packet joins one FIFO queue in
//! front of one server. A constant-rate source's gaps are exponential,
//! so its arrivals are Poisson at the configured rate, and
//! `MalwareScan` costs 3.53 µs whatever the frame size, so the core is
//! an M/D/1 queue — M/D/1/33 strictly, but at ρ ≤ 0.8 no packet is
//! lost. Pollaczek–Khinchine gives its mean sojourn (arrival to
//! departure, service included) as `D (1 + ρ / (2 (1 − ρ)))`, and the
//! server is busy a fraction ρ of the horizon.
//!
//! Bounds: at seeds 1–3 (2 s, scale 1) the sojourn ratio read
//! 0.9992–1.0009 at ρ = 0.3, 0.9988–1.0035 at 0.6 and 0.9953–1.0002 at
//! 0.8 (widest spread 0.0048), and busy ÷ (ρ × horizon) read
//! 0.9980–1.0030 (widest spread 0.0036 per ρ). Each tolerance is
//! more than 3× the widest spread.
//!
//! It bites: with the offered stream's run loop (`PlanStream::draw`)
//! adding one extra gap to the first arrival of every run, it fails at
//! ρ = 0.8, seed 2 (sojourn ratio 0.983). Such a run is one 256-packet
//! burst here, so the rate falls by about 0.4 %, and only ρ = 0.8, where
//! the sojourn amplifies a rate error about threefold, resolves it;
//! seeds 1 and 3 read 0.988 and 0.987. The run loop is on this path only
//! where the engine hands its arrivals over from a stream thread (a host
//! with a spare hardware thread).

use laps_repro::prelude::*;

/// `MalwareScan`'s service time, µs.
const D_US: f64 = 3.53;
/// Largest allowed |simulated mean sojourn ÷ P–K − 1|.
const SOJOURN_TOL: f64 = 0.015;
/// Largest allowed |busy time ÷ (ρ × horizon) − 1|.
const BUSY_TOL: f64 = 0.012;

#[test]
fn one_core_md1_matches_pollaczek_khinchine_and_utilisation() {
    for rho in [0.3, 0.6, 0.8] {
        for seed in 1..=3 {
            let r = SimBuilder::new()
                .cores(1)
                .duration(SimTime::from_secs(2))
                .scale(1.0)
                .seed(seed)
                .constant_source(ServiceKind::MalwareScan, TracePreset::Caida(1), rho / D_US)
                .run_named("static")
                .expect("builtin policy");
            let cell = format!("ρ = {rho}, seed {seed}");
            assert_eq!(r.dropped, 0, "{cell}: the queue never fills");
            assert_eq!(r.offered, r.processed, "{cell}: conservation");

            let pk_us = D_US * (1.0 + rho / (2.0 * (1.0 - rho)));
            let sojourn = r.latency.mean() / 1e3 / pk_us;
            assert!(
                (sojourn - 1.0).abs() <= SOJOURN_TOL,
                "{cell}: mean sojourn ÷ Pollaczek–Khinchine = {sojourn:.4}"
            );

            let busy = r.core_busy_ns[0] as f64 / r.duration.as_nanos() as f64 / rho;
            assert!(
                (busy - 1.0).abs() <= BUSY_TOL,
                "{cell}: busy time ÷ (ρ × horizon) = {busy:.4}"
            );
        }
    }
}

/// The rate/time scale `F` is exact for a policy without thresholds:
/// gaps, service times and penalties all stretch by `F`, and the
/// horizon with them, so a `static` run's counts do not depend on it
/// (67,297 offered / 8,324 dropped / 58,973 processed / 16 cold at
/// both scales here). A time constant left unscaled breaks the
/// equality.
#[test]
fn static_counts_are_independent_of_the_scale() {
    let run = |scale: f64| {
        let r = SimBuilder::new()
            .cores(16)
            .duration(SimTime::from_micros_f64(2_000.0 * scale))
            .scale(scale)
            .seed(3)
            .configure(|cfg| {
                cfg.queue_capacity = 32;
                cfg.rate_update_interval = SimTime::from_millis(10);
            })
            .constant_source(ServiceKind::IpForward, TracePreset::Caida(1), 33.6)
            .run_named("static")
            .expect("builtin policy");
        (r.offered, r.dropped, r.processed, r.cold_starts)
    };
    let at_10 = run(10.0);
    assert!(at_10.1 > 0, "the cell overloads: {at_10:?}");
    assert_eq!(at_10, run(100.0), "(offered, dropped, processed, cold)");
}
