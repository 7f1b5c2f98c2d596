//! Resilience experiment — failure-driven vs load-driven migration.
//!
//! The paper's migration machinery exists for *load*: move aggressive
//! flows off overloaded cores while touching as few flows as possible.
//! This binary stresses the same machinery with *failures*: a core
//! crashes mid-run (its queue is lost), the scheduler must repair by
//! re-homing exactly the failed core's flows (minimum-migration repair
//! via the incremental-hash path), and later the core heals and the
//! mapping is restored.
//!
//! Per caida scenario and policy it compares a steady (fault-free) arm
//! against a crash+heal arm on reorder rate, migrations, drops, and
//! recovery time, and checks the repair bound on every crash:
//! **flows migrated off the dead core ≤ flows resident on it at crash
//! time** — repair must never touch an unaffected flow.
//!
//! The sweep runs on **both backends**: the detsim policies ("laps",
//! "static", "fcfs") and the thread-per-core runtime (policy column
//! "npexec"), whose crash arm executes the same fault plan on real
//! worker threads — the crashed worker drains its own ring and pauses,
//! the map table repairs via `retire_core`, and the heal resumes the
//! worker. Its per-episode ledger ([`npexec::CrashEpisode`]) is checked
//! against the same bound (migrated ≤ resident), plus exact
//! conservation and zero out-of-order deliveries, and its recovery
//! latency (crash → first service on the resumed worker, in virtual
//! arrival time) lands in the same column as detsim's.
//!
//! `--smoke` runs a single short scenario (CI-sized); `--full` runs the
//! longer low-scale configuration. The repair-bound assertion runs
//! inside `run_cell`, so it is enforced on fresh runs (cached cells
//! already passed it when they were produced).

use detsim::SimTime;
use laps::prelude::*;
use laps_experiments::{
    farm, pct, print_table, results_dir, write_csv, Fidelity, KeyFields, Sweep,
};
use npexec::ThreadedBackend;
use npsim::ExecBackend;
use serde::{Deserialize, Serialize};
use std::any::Any;

const SEED: u64 = 4242;

/// One crash→heal span as seen by the [`ResidencyProbe`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Episode {
    core: usize,
    /// Flows whose most recent packet was dispatched to the core when it
    /// crashed — the only flows a minimum-migration repair may move.
    resident: u64,
    /// Distinct flows that migrated off the core after the crash (each
    /// flow can migrate off a dead core at most once: nothing is
    /// dispatched back to it while it is down).
    migrated_off: u64,
    healed: bool,
}

/// Probe proving the minimum-migration bound: for every crash, count the
/// flows resident on the failed core and the flows that subsequently
/// migrate off it.
#[derive(Debug, Default)]
struct ResidencyProbe {
    /// slot → last dispatched core + 1 (0 = never dispatched).
    last_core: Vec<u32>,
    episodes: Vec<Episode>,
    /// core → index of its open (unhealed) episode.
    open: Vec<Option<usize>>,
}

impl Probe for ResidencyProbe {
    fn name(&self) -> &'static str {
        "residency"
    }

    fn on_event(&mut self, _now: SimTime, ev: &SimEvent) {
        match *ev {
            SimEvent::Dispatched { slot, core, .. } => {
                let i = slot.index();
                if i >= self.last_core.len() {
                    self.last_core.resize(i + 1, 0);
                }
                self.last_core[i] = core as u32 + 1;
            }
            SimEvent::CoreCrashed { core } => {
                let mark = core as u32 + 1;
                let resident = self.last_core.iter().filter(|&&c| c == mark).count() as u64;
                if core >= self.open.len() {
                    self.open.resize(core + 1, None);
                }
                self.episodes.push(Episode {
                    core,
                    resident,
                    migrated_off: 0,
                    healed: false,
                });
                self.open[core] = Some(self.episodes.len() - 1);
            }
            SimEvent::Migration { from, .. } => {
                if let Some(idx) = self.open.get(from).copied().flatten() {
                    self.episodes[idx].migrated_off += 1;
                }
            }
            SimEvent::CoreHealed { core } => {
                if let Some(slot) = self.open.get_mut(core) {
                    if let Some(idx) = slot.take() {
                        self.episodes[idx].healed = true;
                    }
                }
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct ArmResult {
    ooo: f64,
    drops: f64,
    migrations: u64,
    fault_drops: u64,
    episodes: Vec<Episode>,
    recovery_us: Option<f64>,
}

struct Resilience {
    fidelity: Fidelity,
    smoke: bool,
    scenarios: Vec<u8>,
    policies: Vec<&'static str>,
    base_cfg: EngineConfig,
    crash_core: usize,
    crash_at: SimTime,
    heal_at: SimTime,
}

impl Sweep for Resilience {
    type Cell = (u8, &'static str, &'static str);
    type Out = ArmResult;

    fn name(&self) -> &'static str {
        "resilience"
    }

    fn cells(&self) -> Vec<Self::Cell> {
        let mut cells: Vec<Self::Cell> = self
            .scenarios
            .iter()
            .flat_map(|&id| {
                self.policies
                    .iter()
                    .flat_map(move |&p| [(id, p, "steady"), (id, p, "crash")])
            })
            .collect();
        // The thread-per-core runtime: dispatch policy is the map-table
        // mechanism itself, so it is its own "policy" column.
        for &id in &self.scenarios {
            cells.push((id, "npexec", "steady"));
            cells.push((id, "npexec", "crash"));
        }
        cells
    }

    fn cell_fields(&self, &(id, policy, arm): &Self::Cell) -> KeyFields {
        KeyFields::new()
            .push("scenario", format!("T{id}"))
            .push("policy", policy)
            .push("arm", arm)
            .push("seed", SEED)
            .push("profile", self.fidelity.name())
            .push("smoke", self.smoke)
    }

    fn run_cell(&self, &(id, policy, arm): &Self::Cell) -> ArmResult {
        if policy == "npexec" {
            return self.run_npexec_cell(id, arm);
        }
        let scenario = Scenario::by_id(id).expect("scenario");
        let mut b = SimBuilder::new()
            .config(self.base_cfg.clone())
            .scenario(scenario)
            .probe(FaultProbe::new())
            .probe(ResidencyProbe::default());
        if arm == "crash" {
            b = b.faults(crash_with_heal(
                self.crash_core,
                self.crash_at,
                self.heal_at,
            ));
        }
        let (report, probes) = b.run_named_full(policy).expect("builtin policy");
        assert_eq!(
            report.offered,
            report.dropped + report.processed,
            "{policy}/T{id}/{arm}: conservation broke"
        );
        let fault_probe = probes
            .first()
            .and_then(|p| p.as_any().downcast_ref::<FaultProbe>())
            .expect("fault probe returns");
        let residency = probes
            .get(1)
            .and_then(|p| p.as_any().downcast_ref::<ResidencyProbe>())
            .expect("residency probe returns");
        for ep in &residency.episodes {
            assert!(
                ep.migrated_off <= ep.resident,
                "{policy}/T{id}/{arm}: repair over-migrated — {} flows moved off core {} \
                 but only {} were resident at crash time",
                ep.migrated_off,
                ep.core,
                ep.resident
            );
        }
        ArmResult {
            ooo: report.ooo_fraction(),
            drops: report.drop_fraction(),
            migrations: report.migration_events,
            fault_drops: report.faults.as_ref().map(|f| f.fault_drops).unwrap_or(0),
            episodes: residency.episodes.clone(),
            recovery_us: fault_probe.mean_recovery_ns().map(|ns| ns / 1_000.0),
        }
    }
}

impl Resilience {
    /// The same episode on the thread-per-core runtime: real worker
    /// threads, a crash that pauses its worker (ring drained as accounted
    /// drops, map-table repair), a resume on heal. Bounds checked here:
    /// exact conservation, zero out-of-order deliveries, and the
    /// minimum-migration repair bound per [`npexec::CrashEpisode`].
    fn run_npexec_cell(&self, id: u8, arm: &str) -> ArmResult {
        let scenario = Scenario::by_id(id).expect("scenario");
        let mut cfg = self.base_cfg.clone();
        if arm == "crash" {
            cfg.faults = crash_with_heal(self.crash_core, self.crash_at, self.heal_at);
        }
        let sources = scenario_sources(scenario);
        let mut backend = ThreadedBackend::with_workers(cfg.n_cores);
        backend
            .validate(&cfg, &sources)
            .expect("crash+heal plans are executable on npexec");
        let probes: ProbeStack = vec![Box::new(FaultProbe::new())];
        let (report, probes) = backend.run(&cfg, &sources, Box::new(Fcfs::new()), probes);
        assert_eq!(
            report.offered,
            report.dropped + report.processed,
            "npexec/T{id}/{arm}: conservation broke"
        );
        assert_eq!(
            report.out_of_order, 0,
            "npexec/T{id}/{arm}: crash repair reordered a flow"
        );
        let stats = backend.last_stats().expect("stats recorded");
        assert_eq!(
            stats.handshakes.begun, stats.handshakes.completed,
            "npexec/T{id}/{arm}: a handshake leaked past run end"
        );
        let episodes: Vec<Episode> = stats
            .episodes
            .iter()
            .map(|e| Episode {
                core: e.core,
                resident: e.resident_flows,
                migrated_off: e.migrated_flows,
                healed: e.heal_at_packet.is_some(),
            })
            .collect();
        for ep in &episodes {
            assert!(
                ep.migrated_off <= ep.resident,
                "npexec/T{id}/{arm}: repair over-migrated — {} flows moved off core {} \
                 but only {} were resident at crash time",
                ep.migrated_off,
                ep.core,
                ep.resident
            );
        }
        let fault_probe = probes
            .first()
            .and_then(|p| p.as_any().downcast_ref::<FaultProbe>())
            .expect("fault probe returns");
        ArmResult {
            ooo: report.ooo_fraction(),
            drops: report.drop_fraction(),
            migrations: report.migration_events,
            fault_drops: report.faults.as_ref().map(|f| f.fault_drops).unwrap_or(0),
            episodes,
            recovery_us: fault_probe.mean_recovery_ns().map(|ns| ns / 1_000.0),
        }
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let fidelity = Fidelity::from_args();
    // Caida-trace scenarios: T1/T5 (G1) and T2/T6 (G2) are the all- or
    // mostly-caida groups of Table VI.
    let base_cfg = {
        let mut cfg = fidelity.engine_config(SEED);
        if smoke {
            cfg.duration = SimTime::from_millis(100);
        }
        cfg
    };
    let spec = Resilience {
        fidelity,
        smoke,
        scenarios: if smoke { vec![1] } else { vec![1, 2, 5, 6] },
        policies: if smoke {
            vec!["laps", "static"]
        } else {
            vec!["laps", "static", "fcfs"]
        },
        crash_core: base_cfg.n_cores / 2,
        crash_at: SimTime::from_nanos(base_cfg.duration.as_nanos() * 2 / 5),
        heal_at: SimTime::from_nanos(base_cfg.duration.as_nanos() * 7 / 10),
        base_cfg,
    };
    let jobs = spec.cells();
    let Some(results) = farm().sweep(&spec).into_complete() else {
        return;
    };

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (j, &(id, policy, arm)) in jobs.iter().enumerate() {
        let r = &results[j];
        let (resident, migrated) = r
            .episodes
            .first()
            .map(|e| (e.resident, e.migrated_off))
            .unwrap_or((0, 0));
        let recovery = r
            .recovery_us
            .map(|us| format!("{us:.1}"))
            .unwrap_or_else(|| "-".to_string());
        rows.push(vec![
            format!("T{id}"),
            policy.to_string(),
            arm.to_string(),
            pct(r.ooo),
            r.migrations.to_string(),
            pct(r.drops),
            r.fault_drops.to_string(),
            resident.to_string(),
            migrated.to_string(),
            recovery.clone(),
        ]);
        csv.push(vec![
            format!("T{id}"),
            policy.to_string(),
            arm.to_string(),
            format!("{:.6}", r.ooo),
            r.migrations.to_string(),
            format!("{:.6}", r.drops),
            r.fault_drops.to_string(),
            resident.to_string(),
            migrated.to_string(),
            r.recovery_us
                .map(|us| format!("{us:.3}"))
                .unwrap_or_default(),
        ]);
    }
    print_table(
        "Resilience: failure-driven vs load-driven migration (crash+heal vs steady)",
        &[
            "scen",
            "policy",
            "arm",
            "ooo",
            "migr",
            "drops",
            "fault drops",
            "resident",
            "moved off",
            "recovery µs",
        ],
        &rows,
    );
    write_csv(
        results_dir().join("resilience.csv"),
        &[
            "scenario",
            "policy",
            "arm",
            "ooo_fraction",
            "migration_events",
            "drop_fraction",
            "fault_drops",
            "resident_at_crash",
            "migrated_off_dead_core",
            "recovery_us",
        ],
        &csv,
    );

    println!(
        "\nEvery crash satisfied the minimum-migration repair bound: flows moved off\n\
         the dead core never exceeded the flows resident on it at crash time — on\n\
         the deterministic engine AND on real threads (the npexec rows, where the\n\
         crashed worker drains its own ring and the map table repairs via retire_core).\n\
         Load-driven migration (steady arm) and failure-driven repair (crash arm)\n\
         differ mainly in reorder rate and the fault-drop burst at crash time."
    );
}
