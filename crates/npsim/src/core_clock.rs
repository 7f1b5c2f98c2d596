//! One core's cost model, shared by both execution backends.
//!
//! [`CoreClock`] is the one place a packet's service time is charged
//! (§IV-C, Eq. 3–5): detsim's service stage keeps one per core, and
//! each npexec worker one for its core. It owns the cold-start rule,
//! the Eq. 3 call (scale applied here), the throttle in force at a
//! start time, the stall windows, the SCR sync surcharge (added after
//! the throttle), busy time with the crash refund, and a virtual clock:
//! a service asked to start at `at` starts at `max(vt, at)`, moved to
//! the end of the stall window holding it if one does, and moves `vt`
//! to its end.
//!
//! Throttles and stalls are read off the static
//! [`FaultPlan`](crate::FaultPlan), in plan order: a throttle of a live
//! core sets the factor, a stall of a live core adds the window
//! `[at, at + duration)` (overlapping windows merge up to the latest
//! end), and either is ignored on a down core; a crash marks the core
//! down and cuts its open window at the crash instant; a heal of a down
//! core restores ×1.0 (and revives no cut window). A factor set at `T`
//! applies to every start at or after `T`; a window ending at `E`
//! holds every start before `E`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use crate::engine::EngineConfig;
use crate::fault::FaultAction;
use detsim::SimTime;
use nptraffic::{DelayModel, ServiceKind};

/// `cfg`'s delay model with its time scale applied.
pub(crate) fn scaled_delay(cfg: &EngineConfig) -> DelayModel {
    DelayModel {
        scale: cfg.scale,
        ..cfg.delay
    }
}

/// What one service start charged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Charge {
    /// Eq. 3 × the throttle in force, plus the sync debt.
    pub duration: SimTime,
    /// Whether the instruction cache was cold.
    pub cold: bool,
}

/// One core's cost model and virtual clock (see the module docs).
#[derive(Debug, Clone)]
pub struct CoreClock {
    delay: DelayModel,
    last_service: Option<ServiceKind>,
    busy_ns: u64,
    /// End of the last service started.
    vt: SimTime,
    /// `(instant, factor)` speed changes; the cursor is the first not
    /// yet in force (start times per core never decrease).
    speeds: Vec<(SimTime, f64)>,
    next_speed: usize,
    factor: f64,
    /// Disjoint `[start, end)` stall windows in time order; the cursor
    /// is the first not yet over (queries per core never go back).
    stalls: Vec<(SimTime, SimTime)>,
    next_stall: usize,
}

impl CoreClock {
    /// The clock of `core` under `cfg`, idle at time zero.
    pub fn new(cfg: &EngineConfig, core: usize) -> Self {
        let mut up = true;
        let mut speeds = Vec::new();
        let mut stalls: Vec<(SimTime, SimTime)> = Vec::new();
        for &(at, action) in cfg.faults.entries() {
            match action {
                _ if action.core() != core => {}
                FaultAction::Throttle { factor, .. } if up => speeds.push((at, factor)),
                FaultAction::Stall { duration, .. } if up => {
                    // `FaultPlan::validate` rejects an end past `SimTime::MAX`.
                    let end = at.checked_add(duration).unwrap_or(SimTime::MAX);
                    match stalls.last_mut() {
                        Some(w) if at <= w.1 => w.1 = w.1.max(end),
                        _ if at < end => stalls.push((at, end)),
                        _ => {}
                    }
                }
                FaultAction::Crash { .. } => {
                    if let Some(w) = stalls.last_mut().filter(|w| at < w.1) {
                        w.1 = at;
                        if w.0 == at {
                            stalls.pop();
                        }
                    }
                    up = false;
                }
                FaultAction::Heal { .. } if !up => {
                    up = true;
                    speeds.push((at, 1.0));
                }
                _ => {}
            }
        }
        CoreClock {
            delay: scaled_delay(cfg),
            last_service: None,
            busy_ns: 0,
            vt: SimTime::ZERO,
            speeds,
            next_speed: 0,
            factor: 1.0,
            stalls,
            next_stall: 0,
        }
    }

    /// The end of the stall window holding `t`, if one does. `t` must
    /// not precede an earlier query's (a fault-free clock pays one
    /// length check).
    fn stall_end(&mut self, t: SimTime) -> Option<SimTime> {
        while let Some(&(from, end)) = self.stalls.get(self.next_stall) {
            if t < from {
                return None;
            }
            if t < end {
                return Some(end);
            }
            self.next_stall += 1;
        }
        None
    }

    /// Whether a stall window holds `t` (no service may start then).
    pub fn stalled(&mut self, t: SimTime) -> bool {
        self.stall_end(t).is_some()
    }

    /// Start a packet that reached the core at `at`; `sync_debt_ns` is
    /// its SCR surcharge.
    pub fn start(
        &mut self,
        at: SimTime,
        service: ServiceKind,
        size: u16,
        migrated: bool,
        sync_debt_ns: u32,
    ) -> Charge {
        let mut start = self.vt.max(at);
        if let Some(end) = self.stall_end(start) {
            start = end;
        }
        while let Some(&(_, f)) = self.speeds.get(self.next_speed).filter(|s| s.0 <= start) {
            self.factor = f;
            self.next_speed += 1;
        }
        let cold = self.last_service != Some(service);
        self.last_service = Some(service);
        let d_us = self
            .delay
            .processing_delay_us(service, size, migrated, cold);
        let duration = SimTime::from_micros_f64(d_us * self.factor)
            + SimTime::from_nanos(u64::from(sync_debt_ns));
        self.busy_ns += duration.as_nanos();
        self.vt = start + duration;
        Charge { duration, cold }
    }

    /// The core dies at `now`: busy time drops the unperformed `vt − now`,
    /// the clock stops at `now`, and the next service starts cold.
    pub fn crash(&mut self, now: SimTime) {
        let refund = self.vt.saturating_sub(now).as_nanos();
        self.busy_ns = self.busy_ns.saturating_sub(refund);
        self.vt = self.vt.min(now);
        self.last_service = None;
    }

    /// End of the last service started.
    pub fn vt(&self) -> SimTime {
        self.vt
    }

    /// Busy nanoseconds charged, net of crash refunds.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    fn us(n: u64) -> SimTime {
        SimTime::from_micros(n)
    }

    fn clock(plan: FaultPlan) -> CoreClock {
        let cfg = EngineConfig {
            scale: 1.0,
            faults: plan,
            ..EngineConfig::default()
        };
        CoreClock::new(&cfg, 0)
    }

    /// A warm 64 B IpForward service at scale 1, throttled by `factor`.
    fn warm(factor: f64) -> SimTime {
        let d_us =
            DelayModel::default().processing_delay_us(ServiceKind::IpForward, 64, false, false);
        SimTime::from_micros_f64(d_us * factor)
    }

    /// Warm the cache at time zero, then start one packet at each of
    /// `at` (µs, far enough apart that each starts on arrival) and
    /// return the durations charged.
    fn durations(plan: FaultPlan, at: &[u64]) -> Vec<SimTime> {
        let mut c = clock(plan);
        c.start(SimTime::ZERO, ServiceKind::IpForward, 64, false, 0);
        at.iter()
            .map(|&t| {
                let ch = c.start(us(t), ServiceKind::IpForward, 64, false, 0);
                assert_eq!(c.vt(), us(t) + ch.duration, "starts on arrival");
                ch.duration
            })
            .collect()
    }

    #[test]
    fn the_virtual_clock_starts_at_the_later_of_vt_and_arrival() {
        let mut c = clock(FaultPlan::new());
        let first = c.start(us(5), ServiceKind::IpForward, 64, false, 0);
        assert!(first.cold);
        assert_eq!(c.vt(), us(5) + first.duration);
        // Arrives while the first is in service: waits for it.
        let second = c.start(us(5), ServiceKind::IpForward, 64, false, 0);
        assert!(!second.cold);
        assert_eq!(second.duration, warm(1.0));
        assert_eq!(c.vt(), us(5) + first.duration + second.duration);
        assert_eq!(
            c.busy_ns(),
            (first.duration + second.duration).as_nanos(),
            "busy time sums the charged durations"
        );
        // The SCR surcharge is added whole.
        let third = c.start(us(1_000), ServiceKind::IpForward, 64, false, 700);
        assert_eq!(third.duration, warm(1.0) + SimTime::from_nanos(700));
    }

    #[test]
    fn a_throttle_exactly_at_a_start_applies_to_that_start() {
        let plan = FaultPlan::new().throttle(us(100), 0, 1.3);
        assert_eq!(
            durations(plan, &[50, 100, 200]),
            [warm(1.0), warm(1.3), warm(1.3)]
        );
    }

    #[test]
    fn a_throttle_of_a_down_core_is_ignored() {
        let plan = FaultPlan::new()
            .crash(us(20), 0)
            .throttle(us(30), 0, 3.0)
            .heal(us(40), 0);
        assert_eq!(durations(plan, &[50]), [warm(1.0)]);
    }

    #[test]
    fn a_heal_of_a_live_core_keeps_the_factor() {
        let plan = FaultPlan::new().throttle(us(20), 0, 2.0).heal(us(30), 0);
        assert_eq!(durations(plan, &[40]), [warm(2.0)]);
    }

    #[test]
    fn crash_then_heal_restores_full_speed() {
        let plan = FaultPlan::new()
            .throttle(us(20), 0, 2.0)
            .crash(us(30), 0)
            .heal(us(40), 0);
        assert_eq!(durations(plan, &[25, 50]), [warm(2.0), warm(1.0)]);
    }

    #[test]
    fn equal_time_entries_apply_in_plan_order() {
        let later_wins = FaultPlan::new()
            .throttle(us(20), 0, 2.0)
            .throttle(us(20), 0, 3.0);
        assert_eq!(durations(later_wins, &[20]), [warm(3.0)]);
        // Down first: the throttle at the same instant is ignored.
        let crash_first = FaultPlan::new()
            .crash(us(20), 0)
            .throttle(us(20), 0, 2.0)
            .heal(us(30), 0);
        assert_eq!(durations(crash_first, &[30]), [warm(1.0)]);
        // Throttle first, then a crash and a heal at the same instant.
        let throttle_first = FaultPlan::new()
            .throttle(us(20), 0, 2.0)
            .crash(us(20), 0)
            .heal(us(20), 0);
        assert_eq!(durations(throttle_first, &[20]), [warm(1.0)]);
    }

    #[test]
    fn other_cores_entries_do_not_touch_this_clock() {
        let plan = FaultPlan::new().throttle(us(20), 1, 2.0).crash(us(20), 2);
        assert_eq!(durations(plan, &[30]), [warm(1.0)]);
    }

    #[test]
    fn a_post_horizon_entry_still_applies_during_the_drain() {
        let cfg = EngineConfig {
            scale: 1.0,
            duration: us(100),
            faults: FaultPlan::new().throttle(us(500), 0, 2.0),
            ..EngineConfig::default()
        };
        let mut c = CoreClock::new(&cfg, 0);
        c.start(SimTime::ZERO, ServiceKind::IpForward, 64, false, 0);
        let ch = c.start(us(600), ServiceKind::IpForward, 64, false, 0);
        assert_eq!(ch.duration, warm(2.0));
    }

    /// Start one packet at each of `at` (µs, far enough apart that no
    /// packet waits for the one before) and return the instants they
    /// started at.
    fn starts(plan: FaultPlan, at: &[u64]) -> Vec<SimTime> {
        let mut c = clock(plan);
        at.iter()
            .map(|&t| {
                let ch = c.start(us(t), ServiceKind::IpForward, 64, false, 0);
                c.vt() - ch.duration
            })
            .collect()
    }

    #[test]
    fn a_start_inside_a_stall_moves_to_its_end() {
        let plan = FaultPlan::new().stall(us(100), 0, us(50));
        // Inside, exactly at its start, exactly at its end, after.
        assert_eq!(starts(plan.clone(), &[120]), [us(150)], "inside the window");
        assert_eq!(starts(plan.clone(), &[100]), [us(150)], "at its start");
        assert_eq!(starts(plan.clone(), &[150]), [us(150)], "at its end");
        assert_eq!(starts(plan, &[50, 200]), [us(50), us(200)], "outside");
    }

    #[test]
    fn stalled_answers_per_window_and_the_end_is_open() {
        let mut c = clock(
            FaultPlan::new()
                .stall(us(10), 0, us(5))
                .stall(us(30), 0, us(5)),
        );
        let seen: Vec<bool> = [0, 10, 14, 15, 20, 30, 35]
            .iter()
            .map(|&t| c.stalled(us(t)))
            .collect();
        assert_eq!(seen, [false, true, true, false, false, true, false]);
    }

    #[test]
    fn overlapping_stalls_hold_until_the_latest_end() {
        // [100, 200) and [150, 180): the later, shorter one ends first.
        let plan = FaultPlan::new()
            .stall(us(100), 0, us(100))
            .stall(us(150), 0, us(30));
        assert_eq!(starts(plan, &[185]), [us(200)]);
        // [100, 150) and [150, 300) touch: one window.
        let touching = FaultPlan::new()
            .stall(us(100), 0, us(50))
            .stall(us(150), 0, us(150));
        assert_eq!(starts(touching, &[150]), [us(300)]);
    }

    #[test]
    fn a_crash_cuts_the_open_stall() {
        let plan = FaultPlan::new()
            .stall(us(100), 0, us(100))
            .crash(us(130), 0)
            .heal(us(140), 0);
        // Inside the old window, after the cut: not held.
        assert_eq!(starts(plan, &[120, 150]), [us(130), us(150)]);
        // A crash at the window's own start leaves nothing of it.
        let same_instant = FaultPlan::new()
            .stall(us(100), 0, us(100))
            .crash(us(100), 0)
            .heal(us(110), 0);
        assert_eq!(starts(same_instant, &[120]), [us(120)]);
    }

    #[test]
    fn a_heal_does_not_revive_a_cut_stall() {
        let plan = FaultPlan::new()
            .stall(us(100), 0, us(100))
            .crash(us(120), 0)
            .heal(us(140), 0);
        let mut c = clock(plan);
        assert!(c.stalled(us(110)));
        assert!(!c.stalled(us(150)), "the heal leaves the core free");
    }

    #[test]
    fn a_stall_of_a_down_core_is_ignored() {
        let plan = FaultPlan::new()
            .crash(us(50), 0)
            .stall(us(60), 0, us(100))
            .heal(us(70), 0);
        assert_eq!(starts(plan, &[80]), [us(80)]);
        // Nor do other cores' stalls touch this clock, nor a zero one.
        let other = FaultPlan::new()
            .stall(us(60), 1, us(100))
            .stall(us(60), 0, SimTime::ZERO);
        assert_eq!(starts(other, &[60]), [us(60)]);
    }

    #[test]
    fn a_throttle_inside_a_stall_charges_the_moved_start() {
        let plan = FaultPlan::new()
            .stall(us(100), 0, us(50))
            .throttle(us(120), 0, 1.3);
        let mut c = clock(plan);
        c.start(SimTime::ZERO, ServiceKind::IpForward, 64, false, 0);
        let ch = c.start(us(110), ServiceKind::IpForward, 64, false, 0);
        assert_eq!((c.vt(), ch.duration), (us(150) + warm(1.3), warm(1.3)));
    }

    #[test]
    fn the_crash_refund_is_vt_minus_now() {
        let mut c = clock(FaultPlan::new());
        let ch = c.start(us(10), ServiceKind::IpForward, 64, false, 0);
        let busy = c.busy_ns();
        let now = us(10) + SimTime::from_nanos(ch.duration.as_nanos() / 3);
        let refund = (c.vt() - now).as_nanos();
        c.crash(now);
        assert_eq!(c.busy_ns(), busy - refund);
        assert_eq!(c.vt(), now);
        // Nothing in service: nothing to refund. A healed core is cold.
        c.crash(us(1_000));
        assert_eq!((c.busy_ns(), c.vt()), (busy - refund, now));
        assert!(
            c.start(us(2_000), ServiceKind::IpForward, 64, false, 0)
                .cold
        );
    }
}
