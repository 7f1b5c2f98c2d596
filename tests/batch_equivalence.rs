//! The batched burst-of-32 run loop is an *execution* optimization, not
//! a semantic one: for every scheduling policy, any burst size, any
//! source mix and any fault plan, its report must be byte-for-byte the
//! scalar loop's report. The batched loop emulates
//! the scalar heap's insertion sequence at exactly the scalar push
//! points, so the `(time, seq)` total order — and with it every reorder
//! count, migration, drop, and latency stat — is identical. This is the
//! contract that lets `ExecutionMode::Batched` be the one production
//! loop.

use laps_repro::npsim::ExecutionMode;
use laps_repro::prelude::*;
use proptest::prelude::*;

/// Every builtin policy, read from the registry's table in its order,
/// so a policy added there joins this grid. The SCR family rides with a
/// non-zero `sync_cost_us` (set in [`run`]), so the byte-identity grid
/// covers the sync-surcharge path too — replica bookkeeping and debt
/// stamping must happen at the same point in both loops.
fn policies() -> Vec<&'static str> {
    SchedulerRegistry::builtin().names().collect()
}

/// The burst sizes under test: degenerate (1), odd (7), full (32).
const BURSTS: [u8; 3] = [1, 7, 32];

fn run(
    policy: &str,
    execution: ExecutionMode,
    preset: u8,
    seed: u64,
    duration_ms: u64,
    scale: f64,
    n_sources: usize,
) -> String {
    let sources: Vec<SourceConfig> = (0..n_sources)
        .map(|i| SourceConfig {
            service: ServiceKind::ALL[i % ServiceKind::ALL.len()],
            trace: TracePreset::Caida(1 + ((preset as usize + i) % 6) as u8),
            rate: RateSpec::Constant(8.0 / n_sources as f64),
        })
        .collect();
    let report = SimBuilder::new()
        .cores(8)
        .duration(SimTime::from_millis(duration_ms))
        .scale(scale)
        .seed(seed)
        .configure(|cfg| {
            cfg.execution = execution;
            // Price the SCR sync model so the scr-* policies exercise it;
            // dormant for every policy without a sync_policy().
            cfg.delay.sync_cost_us = 0.5;
        })
        .sources(sources)
        .run_named(policy)
        .expect("builtin policy");
    serde_json::to_string(&report).expect("report serializes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random policy, preset, seed, horizon, scale, burst size, and
    /// source fan-in: the batched report is byte-identical to scalar.
    #[test]
    fn batched_report_is_byte_identical_to_scalar(
        policy_i in 0usize..policies().len(),
        burst_i in 0usize..BURSTS.len(),
        preset in 1u8..7,
        seed in 0u64..1_000,
        duration_ms in 1u64..6,
        scale_i in 1u32..41,
        n_sources in 1usize..4,
    ) {
        let policy = policies()[policy_i];
        let burst = BURSTS[burst_i];
        let scale = scale_i as f64;
        let scalar = run(policy, ExecutionMode::Scalar, preset, seed, duration_ms, scale, n_sources);
        let batched = run(
            policy,
            ExecutionMode::Batched { burst },
            preset,
            seed,
            duration_ms,
            scale,
            n_sources,
        );
        prop_assert_eq!(scalar, batched, "policy={} burst={}", policy, burst);
    }
}

/// Every builtin policy pinned explicitly at the default burst (the
/// proptest above samples; this leaves no policy uncovered).
#[test]
fn every_policy_matches_at_default_burst() {
    for policy in policies() {
        let scalar = run(policy, ExecutionMode::Scalar, 2, 7, 3, 10.0, 2);
        let batched = run(policy, ExecutionMode::default(), 2, 7, 3, 10.0, 2);
        assert_eq!(scalar, batched, "policy={policy}");
    }
}

/// Source exhaustion: a horizon short enough that every source's stream
/// ends mid-burst forces partial refills and drained-buffer handling
/// (the final refill draws the horizon-crossing gap exactly as the
/// scalar loop does, then never touches the source again).
#[test]
fn partial_bursts_at_source_exhaustion() {
    for burst in BURSTS {
        for n_sources in [1usize, 3] {
            // ~8 packets/ms shared across sources over 1 ms: a handful
            // of arrivals per source, nowhere near a full burst of 32.
            let scalar = run("fcfs", ExecutionMode::Scalar, 1, 99, 1, 40.0, n_sources);
            let batched = run(
                "fcfs",
                ExecutionMode::Batched { burst },
                1,
                99,
                1,
                40.0,
                n_sources,
            );
            assert_eq!(scalar, batched, "burst={burst} n_sources={n_sources}");
        }
    }
}

// ---- faults ride the merge loop ------------------------------------------
//
// Fault plans, stalls and dead-core redirects run under the batched
// loop too. Everything below compares the scalar reference against
// bursts {1, 7, 32} on configurations where that machinery fires — and
// asserts that it did. Fault entries do not bound the arrival
// lookahead (no action touches a source): on the saturated stream a
// 32-packet burst spans ~16 µs, so every pinned crash, heal and stall
// below fires with pre-drawn arrivals on both sides of it.

/// The traffic of one faulted run.
#[derive(Debug, Clone, Copy)]
enum Traffic {
    /// `n` constant-rate sources sharing `mpps` on 8 cores: no rate
    /// noise on the gap RNG streams.
    Constant { n: usize, mpps: f64 },
    /// Table VI T2 (four Holt-Winters sources) on 16 cores with a
    /// 0.7 ms rate tick: refresh noise and gap draws interleave on each
    /// source's RNG stream every few dozen packets.
    HoltWintersT2,
}

#[derive(Debug, Clone)]
struct FaultCase {
    policy: &'static str,
    traffic: Traffic,
    plan: FaultPlan,
    seed: u64,
    duration: SimTime,
    scale: f64,
}

impl Traffic {
    fn n_cores(self) -> usize {
        match self {
            Traffic::Constant { .. } => 8,
            Traffic::HoltWintersT2 => 16,
        }
    }

    fn rate_tick(self) -> SimTime {
        match self {
            Traffic::Constant { .. } => SimTime::from_millis(1),
            Traffic::HoltWintersT2 => SimTime::from_micros(700),
        }
    }
}

impl FaultCase {
    fn run(&self, execution: ExecutionMode) -> SimReport {
        let tick = self.traffic.rate_tick();
        let b = SimBuilder::new()
            .cores(self.traffic.n_cores())
            .duration(self.duration)
            .scale(self.scale)
            .seed(self.seed)
            .faults(self.plan.clone())
            .configure(|cfg| {
                cfg.execution = execution;
                cfg.rate_update_interval = tick;
                cfg.period_compression = 2_000.0;
                cfg.delay.sync_cost_us = 0.5;
            });
        let b = match self.traffic {
            Traffic::Constant { n, mpps } => b.sources((0..n).map(|i| SourceConfig {
                service: ServiceKind::ALL[i % ServiceKind::ALL.len()],
                trace: TracePreset::Caida(1 + ((self.seed as usize + i) % 6) as u8),
                rate: RateSpec::Constant(mpps / n as f64),
            })),
            Traffic::HoltWintersT2 => b.scenario(Scenario::by_id(2).expect("Table VI defines T2")),
        };
        b.run_named(self.policy).expect("builtin policy")
    }

    /// Run the scalar reference and every burst size; assert the
    /// reports are byte-identical; hand back the reference.
    fn assert_loops_agree(&self) -> SimReport {
        let scalar = self.run(ExecutionMode::Scalar);
        let want = serde_json::to_string(&scalar).expect("report serializes");
        for burst in BURSTS {
            let batched = self.run(ExecutionMode::Batched { burst });
            let got = serde_json::to_string(&batched).expect("report serializes");
            assert_eq!(want, got, "burst={burst} {self:?}");
        }
        scalar
    }

    /// Finishes that fired stale — armed, then orphaned by a crash of
    /// their core mid-service — recovered from `SimReport::events`:
    /// every loop event is an arrival, a real finish, a rate tick, a
    /// fault entry, a stall end (`stall_ends`: the caller knows its
    /// plan) or a stale finish.
    fn stale_finishes(&self, r: &SimReport, stall_ends: u64) -> u64 {
        let ticks = self.duration.as_nanos() / self.traffic.rate_tick().as_nanos();
        let known = r.offered + r.processed + ticks + self.plan.len() as u64 + stall_ends;
        r.events - known
    }
}

/// What the fault machinery did across a set of compared runs — the
/// proof that the grid bites.
#[derive(Debug, Default)]
struct Bite {
    crashes: u64,
    redirects: u64,
    fault_drops: u64,
}

impl Bite {
    fn add(&mut self, r: &SimReport) {
        let f = r.faults.as_ref().expect("fault machinery was active");
        self.crashes += f.crashes;
        self.redirects += f.redirects;
        self.fault_drops += f.fault_drops;
    }
}

fn ms(x: f64) -> SimTime {
    SimTime::from_nanos((x * 1e6) as u64)
}

/// One traffic kind's half of the grid: every policy × `random_plan`
/// seeds × bursts {1, 7, 32}. Each half must bite on its own.
fn fault_grid(ti: u64, traffic: Traffic) {
    let mut bite = Bite::default();
    for (pi, policy) in policies().into_iter().enumerate() {
        for k in 0..2u64 {
            let seed = 1 + k + 2 * (ti + 2 * pi as u64);
            let duration = SimTime::from_millis(4);
            let case = FaultCase {
                policy,
                traffic,
                plan: random_plan(seed, traffic.n_cores(), duration),
                seed,
                duration,
                scale: 20.0,
            };
            bite.add(&case.assert_loops_agree());
        }
    }
    assert!(
        bite.crashes > 0 && bite.redirects > 0 && bite.fault_drops > 0,
        "the grid must exercise every fault path at least once: {bite:?}"
    );
}

#[test]
fn fault_plans_are_byte_identical_across_loops_constant_rate() {
    fault_grid(0, Traffic::Constant { n: 3, mpps: 10.0 });
}

#[test]
fn fault_plans_are_byte_identical_across_loops_holt_winters() {
    fault_grid(1, Traffic::HoltWintersT2);
}

/// A saturated single-source stream: 40 Mpps offered to 8 cores whose
/// capacity is a small fraction of that, so every core is in service
/// at every instant and every queue is full.
fn saturated(policy: &'static str, plan: FaultPlan) -> FaultCase {
    FaultCase {
        policy,
        traffic: Traffic::Constant { n: 1, mpps: 40.0 },
        plan,
        seed: 5,
        duration: SimTime::from_millis(4),
        scale: 20.0,
    }
}

/// Faults that tie with a rate tick and with each other: the plan was
/// primed after the ticker, in plan order, so the tick fires first and
/// same-instant entries fire in insertion order — in both loops.
#[test]
fn fault_at_a_rate_tick_and_two_entries_at_one_instant() {
    // Constant traffic ticks every 1 ms; T2 every 0.7 ms.
    for (traffic, tick) in [
        (Traffic::Constant { n: 2, mpps: 12.0 }, ms(1.0)),
        (Traffic::HoltWintersT2, ms(0.7)),
    ] {
        let plan = FaultPlan::new()
            .crash(tick, 1)
            .heal(tick + tick, 1)
            .crash(tick + tick, 2)
            .heal(tick + tick, 2);
        for policy in ["laps", "round-robin"] {
            let case = FaultCase {
                policy,
                traffic,
                plan: plan.clone(),
                seed: 9,
                duration: SimTime::from_millis(4),
                scale: 20.0,
            };
            let r = case.assert_loops_agree();
            let f = r.faults.expect("plan configured");
            assert_eq!((f.injected, f.crashes, f.heals), (4, 2, 2));
        }
    }
}

/// A heal scheduled after the horizon fires during the drain and is
/// the run's last event in both loops.
#[test]
fn heal_past_the_horizon() {
    let case = saturated("fcfs", FaultPlan::new().crash(ms(1.0), 3).heal(ms(20.0), 3));
    let r = case.assert_loops_agree();
    assert_eq!(r.end_time, ms(20.0));
    assert_eq!(r.faults.map(|f| f.heals), Some(1));
}

/// The path a naive port gets wrong. Core 0 is throttled 1000× so its
/// next packet stays in service for milliseconds; the crash orphans
/// that finish; the heal 1 µs later re-arms the core, which serves
/// thousands of packets before the stale finish fires — long after the
/// horizon, as the run's last event. One finish slot per core cannot
/// hold both; and the stale one must still be counted.
#[test]
fn crash_mid_service_healed_and_rearmed_before_the_stale_finish() {
    let plan = FaultPlan::new()
        .throttle(ms(1.0), 0, 1_000.0)
        .crash(ms(1.5), 0)
        .heal(ms(1.501), 0);
    for policy in ["fcfs", "laps", "static"] {
        let case = saturated(policy, plan.clone());
        let r = case.assert_loops_agree();
        assert_eq!(
            case.stale_finishes(&r, 0),
            1,
            "{policy}: the crash must have hit core 0 mid-service"
        );
        assert!(
            r.end_time > ms(20.0),
            "{policy}: the stale finish fires last, at {:?}",
            r.end_time
        );
        let busy = r.core_busy_ns.first().copied().unwrap_or(0);
        assert!(
            busy > 1_000_000,
            "{policy}: healed core 0 served again ({busy} ns busy)"
        );
    }
}

/// Every crash on a saturated stream hits its core mid-service: each
/// leaves one stale finish behind, and both loops count all of them.
#[test]
fn saturated_crashes_all_leave_counted_stale_finishes() {
    let plan = FaultPlan::new()
        .crash(ms(0.8), 1)
        .crash(ms(1.1), 4)
        .heal(ms(1.9), 1)
        .crash(ms(2.5), 1)
        .crash(ms(2.5), 6);
    let case = saturated("fcfs", plan);
    let r = case.assert_loops_agree();
    assert_eq!(case.stale_finishes(&r, 0), 4);
}

/// stall → crash → heal → stall on one core, plus two overlapping
/// stalls on another: the first stall's leftover end must not cut the
/// second short, in either loop.
#[test]
fn stall_crash_heal_stall() {
    let plan = FaultPlan::new()
        .stall(ms(0.5), 2, ms(1.0))
        .crash(ms(0.8), 2)
        .heal(ms(1.0), 2)
        .stall(ms(1.2), 2, ms(1.5))
        .stall(ms(1.0), 5, ms(0.6))
        .stall(ms(1.3), 5, ms(1.2));
    for policy in ["fcfs", "laps", "scr-p2c"] {
        let case = saturated(policy, plan.clone());
        let r = case.assert_loops_agree();
        // All four stalls found their core up, so four ends fired; the
        // crash hit core 2 while stalled but still finishing a packet.
        assert!(case.stale_finishes(&r, 4) <= 1, "{policy}");
    }
}
