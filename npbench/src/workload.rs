//! The four workloads: what each runs, and why it is in the benchmark.
//!
//! All four use 16 simulated cores, queue depth 32, `scale` 1.0
//! (paper-exact timing) and the default `DelayModel`. The seed is the
//! only input that varies between runs; it drives the arrival
//! processes (inter-arrival gaps, Holt-Winters rate noise). Horizons are
//! sized so one repetition takes 0.2–0.6 s on the 2-core reference VM:
//! short enough that a 10 s run holds tens of repetitions to take a
//! median over, long enough that every LAPS mechanism fires many times.

use laps::prelude::*;
use npexec::{FullPolicy, NpexecConfig};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table VI scenario T2 under the paper's scheduler.
    PaperT2Laps,
    /// One constant-rate forwarding stream under FCFS.
    ForwardFcfs,
    /// `PaperT2Laps` with crashes, heals and a throttle.
    FaultT2Laps,
    /// The `ForwardFcfs` stream on real threads.
    ExecForward,
}

/// Every workload, in report order.
pub const ALL: [Workload; 4] = [
    Workload::PaperT2Laps,
    Workload::ForwardFcfs,
    Workload::FaultT2Laps,
    Workload::ExecForward,
];

/// Which machinery executes the workload's repetitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runner {
    /// `npsim::Engine` with the named registry policy.
    Detsim {
        /// Registry name of the scheduling policy.
        policy: &'static str,
    },
    /// `npexec::ThreadedBackend` (dispatcher + worker threads).
    Threads,
}

impl Workload {
    /// The name used on the command line and in every output.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperT2Laps => "paper-t2-laps",
            Workload::ForwardFcfs => "forward-fcfs",
            Workload::FaultT2Laps => "fault-t2-laps",
            Workload::ExecForward => "exec-forward",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line; repeated in BENCHMARK.json).
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperT2Laps => {
                "the paper's own system on its own traffic (Table VI T2, LAPS): every decision-path layer works here, so a LAPS/AFD/hash optimisation must show here"
            }
            Workload::ForwardFcfs => {
                "one 24 Mpps stream under FCFS: the policy does nothing, so trace draw, merge loop, queues and order tracker dominate; the bypass workload for any LAPS/AFD change"
            }
            Workload::FaultT2Laps => {
                "paper-t2-laps plus crashes, heals and a throttle: a fault plan forces the scalar loop and the event heap, so a batched-path gain that costs the scalar path shows only here"
            }
            Workload::ExecForward => {
                "the forward-fcfs stream on npexec's real threads, rings and migration handshake with a rebalancer that fires; the detsim engine does none of the work"
            }
        }
    }

    /// What runs the repetitions.
    pub fn runner(self) -> Runner {
        match self {
            Workload::PaperT2Laps | Workload::FaultT2Laps => Runner::Detsim { policy: "laps" },
            Workload::ForwardFcfs => Runner::Detsim { policy: "fcfs" },
            Workload::ExecForward => Runner::Threads,
        }
    }

    /// Simulated horizon of one repetition, in milliseconds.
    pub fn horizon_ms(self) -> u64 {
        match self {
            // ≈ 0.75 M packets, ten rate updates.
            Workload::PaperT2Laps => 200,
            // ≈ 1.2 M packets: the tracked `hotpath-batch` stream.
            Workload::ForwardFcfs | Workload::ExecForward => 50,
            // Room for two crash/heal episodes and a throttle window.
            Workload::FaultT2Laps => 300,
        }
    }

    /// The engine configuration of one repetition with `horizon_ms`.
    pub fn engine_config_with(self, seed: u64, horizon_ms: u64) -> EngineConfig {
        let base = EngineConfig {
            n_cores: 16,
            queue_capacity: 32,
            duration: SimTime::from_millis(horizon_ms),
            scale: 1.0,
            seed,
            ..EngineConfig::default()
        };
        match self {
            Workload::ForwardFcfs | Workload::ExecForward => base,
            Workload::PaperT2Laps => t2_timing(base),
            Workload::FaultT2Laps => {
                // The issue's 3 s script, scaled to the horizon: two
                // crash → heal episodes on different services' cores,
                // then one core at half speed for a while.
                let at = |sixtieths: u64| SimTime::from_micros(horizon_ms * 1000 * sixtieths / 60);
                let faults = FaultPlan::new()
                    .crash(at(10), 3)
                    .heal(at(20), 3)
                    .crash(at(30), 6)
                    .heal(at(40), 6)
                    .throttle(at(44), 9, 2.0)
                    .throttle(at(52), 9, 1.0);
                EngineConfig {
                    faults,
                    ..t2_timing(base)
                }
            }
        }
    }

    /// The engine configuration of one full-size repetition.
    pub fn engine_config(self, seed: u64) -> EngineConfig {
        self.engine_config_with(seed, self.horizon_ms())
    }

    /// The traffic sources.
    pub fn sources(self) -> Vec<SourceConfig> {
        match self {
            Workload::PaperT2Laps | Workload::FaultT2Laps => match Scenario::by_id(2) {
                Some(t2) => scenario_sources(t2),
                None => unreachable!("Table VI defines T2"),
            },
            Workload::ForwardFcfs | Workload::ExecForward => vec![SourceConfig {
                service: ServiceKind::IpForward,
                trace: TracePreset::Caida(1),
                rate: RateSpec::Constant(24.0),
            }],
        }
    }

    /// Whether the workload's policy is LAPS (so the AFD, the migration
    /// table and `Laps::schedule` are on its packet path).
    pub fn runs_laps(self) -> bool {
        matches!(self.runner(), Runner::Detsim { policy: "laps" })
    }
}

/// Holt-Winters timing of the paper scenarios as the figure binaries run
/// them: seasonal periods compressed 20×, rates re-sampled every 20 ms.
fn t2_timing(base: EngineConfig) -> EngineConfig {
    EngineConfig {
        period_compression: 20.0,
        rate_update_interval: SimTime::from_millis(20),
        ..base
    }
}

/// The thread-per-core runtime configuration of `exec-forward`:
/// dispatcher + 2 workers is the smallest shape in which a flow group
/// can migrate, and ratio 1.1 makes the rebalancer actually fire (the
/// default 2.0 performs no handshake at all on this stream).
pub fn exec_config() -> NpexecConfig {
    NpexecConfig {
        workers: 2,
        imbalance_ratio: 1.1,
        rebalance_every: 4096,
        full_policy: FullPolicy::Backpressure,
        pin_threads: false,
        ..NpexecConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_distinct() {
        for w in ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{} why too long", w.name());
            assert!(!w.why().contains('\n'));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn fault_plan_is_valid_and_only_on_the_fault_workload() {
        for w in ALL {
            let cfg = w.engine_config(7);
            assert_eq!(cfg.faults.is_empty(), w != Workload::FaultT2Laps);
            cfg.faults
                .validate(cfg.n_cores, w.sources().len())
                .expect("plan fits the configuration");
        }
    }
}
