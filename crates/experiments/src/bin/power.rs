//! Extension experiment — traffic-aware power management.
//!
//! The paper motivates dynamic core allocation partly by power schemes
//! that "power down the underutilized cores when demand varies" (Luo et
//! al. TACO'07; Iqbal & John ANCS'12). LAPS's surplus-core machinery
//! supports exactly that: a core that has been spare long enough is
//! *parked* (leaves its bucket list, draws sleep power) and is woken
//! before any inter-service transfer when demand returns.
//!
//! This binary compares, on the under-load scenarios:
//! * FCFS — load smeared across all 16 cores, nothing can ever park;
//! * LAPS — load consolidated per service, all cores stay powered;
//! * LAPS + parking — spare cores powered down.
//!
//! Energy proxy per core: active = 1.0 × busy time, idle-powered = 0.3 ×
//! idle time, parked = 0.05 × parked time (typical clock/power-gating
//! ratios).

use detsim::SimTime;
use laps::prelude::*;
use laps_experiments::{
    farm, pct, print_table, results_dir, write_csv, Fidelity, KeyFields, Sweep,
};
use serde::{Deserialize, Serialize};

const P_ACTIVE: f64 = 1.0;
const P_IDLE: f64 = 0.3;
const P_PARKED: f64 = 0.05;

const SEED: u64 = 31;
const ARMS: [&str; 3] = ["fcfs", "laps", "laps+park"];

/// Energy proxy in core-duration units (16.0 = all cores active for the
/// whole run).
fn energy(report: &SimReport, parked_ns: u64) -> f64 {
    let dur = report.duration.as_nanos() as f64;
    let busy: u64 = report.core_busy_ns.iter().sum();
    let busy = busy as f64;
    let total = dur * report.core_busy_ns.len() as f64;
    let parked = parked_ns as f64;
    let idle = (total - busy - parked).max(0.0);
    (busy * P_ACTIVE + idle * P_IDLE + parked * P_PARKED) / dur
}

/// One arm's result: the simulation report plus the parking counters
/// read off the scheduler (zero for the non-parking arms).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PowerResult {
    report: SimReport,
    parked_ns: u64,
    parks: u64,
    wakes: u64,
}

struct Power {
    fidelity: Fidelity,
    scenarios: Vec<u8>,
}

impl Sweep for Power {
    type Cell = (u8, &'static str);
    type Out = PowerResult;

    fn name(&self) -> &'static str {
        "power"
    }

    fn cells(&self) -> Vec<Self::Cell> {
        self.scenarios
            .iter()
            .flat_map(|&id| ARMS.iter().map(move |&arm| (id, arm)))
            .collect()
    }

    fn cell_fields(&self, &(id, arm): &Self::Cell) -> KeyFields {
        KeyFields::new()
            .push("scenario", format!("T{id}"))
            .push("arm", arm)
            .push("seed", SEED)
            .push("profile", self.fidelity.name())
    }

    fn run_cell(&self, &(id, arm): &Self::Cell) -> PowerResult {
        let scenario = Scenario::by_id(id).expect("scenario");
        let cfg = self.fidelity.engine_config(SEED);
        let builder = SimBuilder::new().config(cfg).scenario(scenario);
        let plain = |report: SimReport| PowerResult {
            report,
            parked_ns: 0,
            parks: 0,
            wakes: 0,
        };
        match arm {
            "fcfs" => plain(builder.run_named("fcfs").expect("builtin")),
            "laps" => plain(builder.run_named("laps").expect("builtin")),
            _ => {
                let cfg = builder.engine_config();
                let duration = cfg.duration;
                let lc = laps_park_config_for(cfg);
                run_with_parking(builder, Laps::new(lc), duration)
            }
        }
    }

    fn throughput(&self, out: &PowerResult) -> Option<f64> {
        Some(out.report.throughput_mpps() * 1e6)
    }
}

fn main() {
    let spec = Power {
        fidelity: Fidelity::from_args(),
        scenarios: vec![1, 2, 3, 4],
    };
    let Some(results) = farm().sweep(&spec).into_complete() else {
        return;
    };

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (j, (id, arm)) in spec.cells().into_iter().enumerate() {
        let PowerResult {
            report: r,
            parked_ns,
            parks,
            wakes,
        } = &results[j];
        let e = energy(r, *parked_ns);
        rows.push(vec![
            format!("T{id}"),
            arm.to_string(),
            pct(r.drop_fraction()),
            format!("{:.2}", 100.0 * r.mean_utilization()),
            format!("{:.2}", e),
            format!("{:.1}", *parked_ns as f64 / r.duration.as_nanos() as f64),
            format!("{parks}/{wakes}"),
        ]);
        csv.push(vec![
            format!("T{id}"),
            arm.to_string(),
            format!("{:.6}", r.drop_fraction()),
            format!("{:.6}", r.mean_utilization()),
            format!("{e:.4}"),
            format!("{}", parked_ns),
            parks.to_string(),
            wakes.to_string(),
        ]);
    }
    print_table(
        "Extension: power-aware core parking (energy in core-units; 16 = all cores max power)",
        &[
            "scen",
            "arm",
            "drops",
            "util %",
            "energy",
            "parked cores (avg)",
            "parks/wakes",
        ],
        &rows,
    );
    write_csv(
        results_dir().join("power_parking.csv"),
        &[
            "scenario",
            "arm",
            "drop_fraction",
            "mean_utilization",
            "energy_core_units",
            "parked_core_ns",
            "parks",
            "wakes",
        ],
        &csv,
    );
}

/// Run the simulation, then read the power counters off the scheduler.
fn run_with_parking(builder: SimBuilder, laps: Laps, duration: SimTime) -> PowerResult {
    let (report, laps) = builder.run_with_returning(laps);
    let parked_ns = laps.parked_time_ns(duration);
    let (parks, wakes) = laps.park_events();
    PowerResult {
        report,
        parked_ns,
        parks,
        wakes,
    }
}
