//! LAPS — the Locality Aware Packet Scheduler (§III).
//!
//! Combines every mechanism of the paper:
//!
//! * **Service partitioning** (§III-B): one map table per service; a core
//!   serves exactly one service at a time, preserving I-cache locality.
//! * **Dynamic core allocation** (§III-C/D): a core whose input queue has
//!   not congested for `idle_th` is *surplus* — it has demonstrably spare
//!   capacity ("the deallocated core has the least utility for the victim
//!   service"). When another service overloads on all of its cores
//!   (`request_core()` in Listing 1), the longest-spare core is
//!   transferred: removed from the victim's bucket list (incremental
//!   shrink) and appended to the requester's (incremental grow), so only
//!   one bucket's worth of flows migrates on either side.
//! * **Aggressive-flow migration** (§III-A, Listing 1): when a packet's
//!   target core is overloaded but some core of the same service is not,
//!   the packet's flow is migrated **only if it hits in the AFC**; the
//!   flow is entered into the service's migration table (which has
//!   priority over the hash) and invalidated in the AFC so it is not
//!   immediately re-migrated.
//!
//! Surplus interpretation: the paper starts a timer "when the input queue
//! to a core becomes empty" and marks the core surplus at `idle_th`. Read
//! literally (reset on every packet) a lightly-loaded core would never
//! qualify even at 5 % utilization, and the under-load scenarios of Fig. 7
//! could never rebalance. We therefore time *queue congestion* rather than
//! queue emptiness: a core is surplus-eligible when its queue is currently
//! empty **and** has not built beyond a small watermark for `idle_th` —
//! the same hardware (comparator + timer), robust to single in-flight
//! packets. DESIGN.md records this calibration.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use crate::config::LapsConfig;
use crate::hashmemo::FlowHashMemo;
use crate::migration::MigrationTable;
use detsim::SimTime;
use npafd::Afd;
use nphash::{FlowSlot, MapTable};
use npsim::{PacketDesc, RepairOutcome, Scheduler, SystemView};
use nptraffic::ServiceKind;

#[derive(Debug)]
struct ServiceState {
    map: MapTable<usize>,
    migration: MigrationTable<FlowSlot>,
    /// Drops since this service last gained a core; reaching
    /// `drop_request_threshold` escalates to `request_core()`.
    drops_since_gain: u64,
    /// When the service last gained a core (claim-rate damping).
    last_gain: Option<SimTime>,
    /// When the service last lost a core (loss-rate damping).
    last_loss: Option<SimTime>,
}

/// Per-core scheduler state: ownership plus the power extension.
#[derive(Debug, Clone, Copy)]
struct CoreState {
    /// Service index currently owning the core.
    owner: usize,
    /// `Some(t)` while the core is powered down (parked at `t`).
    parked_since: Option<SimTime>,
    /// When the core was last woken (re-park hysteresis).
    last_wake: Option<SimTime>,
    /// The core crashed (engine fault injection) and has not healed:
    /// excluded from surplus claims, wakes, parking, and migration
    /// overrides until `on_core_up`.
    dead: bool,
}

/// The LAPS scheduler over the four router services.
#[derive(Debug)]
pub struct Laps {
    cfg: LapsConfig,
    services: Vec<ServiceState>,
    cores: Vec<CoreState>,
    afd: Afd<FlowSlot>,
    /// Raw CRC16 per flow, shared by the four services' map tables.
    hashes: FlowHashMemo,
    migrations: u64,
    reallocs: u64,
    parked_time_ns: u64,
    parks: u64,
    wakes: u64,
}

impl Laps {
    /// Build LAPS with cores divided equally among the four services
    /// ("At initialization, cores are equally divided among services",
    /// §III-C).
    ///
    /// # Panics
    /// Panics if `cfg.n_cores < 4` (each service needs a core).
    pub fn new(cfg: LapsConfig) -> Self {
        let n_services = ServiceKind::ALL.len();
        assert!(
            cfg.n_cores >= n_services,
            "need at least one core per service"
        );
        let services = (0..n_services)
            .map(|svc| {
                // Service `svc` initially owns cores svc, svc+4, svc+8, …
                // (round-robin keeps the split even for any core count).
                let cores: Vec<usize> =
                    (0..cfg.n_cores).filter(|c| c % n_services == svc).collect();
                ServiceState {
                    map: MapTable::new(cores),
                    migration: MigrationTable::new(cfg.migration_cap),
                    drops_since_gain: 0,
                    last_gain: None,
                    last_loss: None,
                }
            })
            .collect();
        let cores = (0..cfg.n_cores)
            .map(|c| CoreState {
                owner: c % n_services,
                parked_since: None,
                last_wake: None,
                dead: false,
            })
            .collect();
        Laps {
            services,
            cores,
            afd: Afd::new(cfg.afd),
            hashes: FlowHashMemo::new(),
            migrations: 0,
            reallocs: 0,
            parked_time_ns: 0,
            parks: 0,
            wakes: 0,
            cfg,
        }
    }

    /// The state of service `i`.
    ///
    /// `i` is always `ServiceKind::index()` and `services` is built with
    /// exactly one entry per kind, so the lookup is total.
    #[allow(clippy::indexing_slicing, reason = "one entry per ServiceKind")]
    fn svc(&self, i: usize) -> &ServiceState {
        &self.services[i]
    }

    /// Mutable counterpart of [`Laps::svc`] (same totality argument).
    #[allow(clippy::indexing_slicing, reason = "one entry per ServiceKind")]
    fn svc_mut(&mut self, i: usize) -> &mut ServiceState {
        &mut self.services[i]
    }

    /// Flow-migration decisions taken (Fig. 9c numerator).
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Cores transferred between services.
    pub fn reallocations(&self) -> u64 {
        self.reallocs
    }

    /// The cores currently allocated to `service`.
    pub fn cores_of(&self, service: ServiceKind) -> &[usize] {
        self.svc(service.index()).map.cores()
    }

    /// Read access to the AFD (experiments inspect detector state).
    pub fn afd(&self) -> &Afd<FlowSlot> {
        &self.afd
    }

    /// Whether core `c` is currently surplus-eligible: empty queue and no
    /// congestion for at least `idle_release`.
    fn is_surplus(&self, view: &SystemView<'_>, c: usize) -> bool {
        view.queues.get(c).is_some_and(|q| {
            q.len == 0 && view.now.saturating_sub(q.last_congested) >= self.cfg.idle_release
        })
    }

    /// Park/wake event counts `(parks, wakes)`.
    pub fn park_events(&self) -> (u64, u64) {
        (self.parks, self.wakes)
    }

    /// Total core-nanoseconds spent parked up to `now` (energy model
    /// input).
    pub fn parked_time_ns(&self, now: SimTime) -> u64 {
        let open: u64 = self
            .cores
            .iter()
            .filter_map(|cs| cs.parked_since)
            .map(|t| now.saturating_sub(t).as_nanos())
            .sum();
        self.parked_time_ns + open
    }

    /// Power down any core that has been surplus for `park_after`
    /// (extension; no-op unless parking is configured).
    fn park_idle_cores(&mut self, view: &SystemView<'_>) {
        let Some(park) = self.cfg.parking else { return };
        for c in 0..self.cores.len() {
            let Some(cs) = self.cores.get(c).copied() else {
                continue;
            };
            if cs.parked_since.is_some() || cs.dead {
                continue;
            }
            let owner = cs.owner;
            // Re-park hysteresis: a recently woken core was woken for a
            // reason; give demand a few park periods to come back before
            // powering it down again.
            if let Some(w) = cs.last_wake {
                if view.now.saturating_sub(w) < park.park_after.scaled(4) {
                    continue;
                }
            }
            let Some(q) = view.queues.get(c) else {
                continue;
            };
            let spare_for = view.now.saturating_sub(q.last_congested);
            if q.len == 0
                && spare_for >= park.park_after
                && self.core_count(owner) > park.min_cores
                && self.svc_mut(owner).map.remove_core(c)
            {
                self.svc_mut(owner).migration.remove_core(c);
                if let Some(cs) = self.cores.get_mut(c) {
                    cs.parked_since = Some(view.now);
                }
                self.parks += 1;
            }
        }
    }

    /// Wake the longest-parked core for `svc`, if any.
    fn wake_core(&mut self, svc: usize, now: SimTime) -> Option<usize> {
        let core = self
            .cores
            .iter()
            .enumerate()
            .filter(|(_, cs)| !cs.dead)
            .filter_map(|(c, cs)| cs.parked_since.map(|t| (t, c)))
            .min()
            .map(|(_, c)| c)?;
        let cs = self.cores.get_mut(core)?;
        let since = cs.parked_since.take()?;
        cs.last_wake = Some(now);
        cs.owner = svc;
        self.parked_time_ns += now.saturating_sub(since).as_nanos();
        self.wakes += 1;
        let s = self.svc_mut(svc);
        s.map.add_core(core);
        s.drops_since_gain = 0;
        s.last_gain = Some(now);
        self.reallocs += 1;
        Some(core)
    }

    /// The surplus cores another service could claim from `svc`'s point
    /// of view, longest-spare first (observability + claim order).
    pub fn surplus_candidates(&self, view: &SystemView<'_>, svc: ServiceKind) -> Vec<usize> {
        let svc = svc.index();
        let mut v: Vec<usize> = self
            .cores
            .iter()
            .enumerate()
            .filter(|&(c, cs)| {
                let victim = cs.owner;
                cs.parked_since.is_none()
                    && !cs.dead
                    && victim != svc
                    && self.cooled(self.svc(victim).last_loss, view.now)
                    && self.is_surplus(view, c)
                    && self.core_count(victim) > 1
            })
            .map(|(c, _)| c)
            // npcheck: allow(blocking-hot-path) — candidate scan runs on rebalance epochs, not per packet
            .collect();
        v.sort_by_key(|&c| (view.queues.get(c).map(|q| q.last_congested), c));
        v
    }

    /// How many distinct cores serve service `svc`: after a crash repair
    /// a survivor holds several of its table's buckets.
    fn core_count(&self, svc: usize) -> usize {
        let map = &self.svc(svc).map;
        (0..self.cores.len()).filter(|&c| map.contains(c)).count()
    }

    fn cooled(&self, stamp: Option<SimTime>, now: SimTime) -> bool {
        stamp.is_none_or(|t| now.saturating_sub(t) >= self.cfg.realloc_cooldown)
    }

    /// `request_core()` of Listing 1: claim the longest-spare surplus core
    /// of another service for `svc`. Returns the claimed core.
    fn request_core(&mut self, svc: usize, view: &SystemView<'_>) -> Option<usize> {
        // A parked core is free capacity: wake it before robbing a peer —
        // and without the claim damping, since waking harms no victim.
        if let Some(core) = self.wake_core(svc, view.now) {
            return Some(core);
        }
        if !self.cooled(self.svc(svc).last_gain, view.now) {
            return None;
        }
        let core = *self
            .surplus_candidates(view, ServiceKind::from_index(svc))
            .first()?;
        let victim = self.cores.get(core)?.owner;
        let removed = self.svc_mut(victim).map.remove_core(core);
        debug_assert!(removed, "victim must own the surplus core");
        self.svc_mut(victim).migration.remove_core(core);
        if let Some(cs) = self.cores.get_mut(core) {
            cs.owner = svc;
        }
        let s = self.svc_mut(svc);
        s.map.add_core(core);
        s.drops_since_gain = 0;
        s.last_gain = Some(view.now);
        self.svc_mut(victim).last_loss = Some(view.now);
        self.reallocs += 1;
        Some(core)
    }

    /// The packet's core: its migration-table override `over` (the
    /// caller's one probe of the table) if still valid, else the hash.
    fn resolve_target(&mut self, svc: usize, pkt: &PacketDesc, over: Option<usize>) -> usize {
        if let Some(c) = over {
            // A stale override (core since transferred away, or dead) is
            // dropped.
            if self
                .cores
                .get(c)
                .is_some_and(|cs| cs.owner == svc && !cs.dead)
            {
                return c;
            }
            self.svc_mut(svc).migration.remove(pkt.slot);
        }
        let raw = self.hashes.raw_hash(pkt);
        self.svc(svc).map.lookup_hash(raw)
    }

    /// The distinct live cores of `owner`'s map table, excluding `core`
    /// (the crash-repair replacement set, in bucket order).
    fn live_peers(&self, owner: usize, core: usize) -> Vec<usize> {
        let mut peers = Vec::new();
        for &c in self.svc(owner).map.cores() {
            if c != core && !peers.contains(&c) && self.cores.get(c).is_some_and(|cs| !cs.dead) {
                peers.push(c);
            }
        }
        peers
    }
}

impl Scheduler for Laps {
    fn name(&self) -> &str {
        "laps"
    }

    fn schedule(&mut self, pkt: &PacketDesc, view: &SystemView<'_>) -> usize {
        let svc = pkt.service.index();
        // The AFD observes every (sampled) packet in the background
        // (keyed by the packet's arena slot: no hashing on this probe).
        self.afd.access(pkt.slot);
        self.park_idle_cores(view);

        let over = self.svc(svc).migration.get(pkt.slot);
        let has_override = over.is_some();
        let mut target = self.resolve_target(svc, pkt, over);
        let qlen = |c: usize| view.queues.get(c).map_or(0, |q| q.len);

        // Listing 1: load-imbalance handling.
        if qlen(target) >= self.cfg.high_thresh {
            // A service always owns ≥ 1 core, so min_queue_core is Some;
            // degrade to the hashed target if that ever breaks.
            let minq = view
                .min_queue_core(self.svc(svc).map.cores())
                .unwrap_or(target);
            if qlen(minq) < self.cfg.high_thresh
                && self.svc(svc).drops_since_gain < self.cfg.drop_request_threshold
            {
                // A flow that already sits in the migration table is not
                // migrated again — re-shuffling it would reorder it a
                // second time for no balancing gain.
                if minq != target && !has_override && self.afd.is_aggressive(pkt.slot) {
                    self.svc_mut(svc).migration.insert(pkt.slot, minq);
                    self.afd.invalidate(pkt.slot);
                    self.migrations += 1;
                    target = minq;
                }
            } else if let Some(new_core) = self.request_core(svc, view) {
                // All our cores are overloaded: the freshly granted core
                // is idle — re-resolve (the packet may hash to the new
                // bucket) and steer this packet there if its own core is
                // still the bottleneck.
                let over = self.svc(svc).migration.get(pkt.slot);
                let rehashed = self.resolve_target(svc, pkt, over);
                target = if qlen(rehashed) >= self.cfg.high_thresh {
                    new_core
                } else {
                    rehashed
                };
            }
        }
        target
    }

    fn on_drop(&mut self, pkt: &PacketDesc, _core: usize) {
        // Sustained drops mean the allocation is insufficient regardless
        // of instantaneous queue lengths.
        self.svc_mut(pkt.service.index()).drops_since_gain += 1;
    }

    fn core_reallocations(&self) -> u64 {
        self.reallocs
    }

    /// Minimum-migration crash repair: retire exactly the dead core's
    /// buckets to its service's surviving cores (no table shrink, so
    /// *only* the flows resident on the failed core migrate); the table
    /// records the retirement for an exact undo on heal. A single-core service
    /// cannot shrink and honestly reports `Unrepaired` — the engine's
    /// redirect path carries the degradation for it.
    fn on_core_down(&mut self, core: usize) -> RepairOutcome {
        let Some(cs) = self.cores.get(core).copied() else {
            return RepairOutcome::Unrepaired;
        };
        if cs.dead {
            return RepairOutcome::Repaired; // already retired
        }
        if cs.parked_since.is_some() {
            // A parked core is in no map table: nothing dispatches to
            // it, so marking it un-wakeable completes the repair.
            if let Some(c) = self.cores.get_mut(core) {
                c.dead = true;
            }
            return RepairOutcome::Repaired;
        }
        let owner = cs.owner;
        let peers = self.live_peers(owner, core);
        if let Some(c) = self.cores.get_mut(core) {
            c.dead = true;
        }
        if peers.is_empty() {
            return RepairOutcome::Unrepaired;
        }
        let s = self.svc_mut(owner);
        s.map.retire_core(core, &peers);
        s.migration.remove_core(core);
        RepairOutcome::Repaired
    }

    /// Heal: give the core its retired buckets back verbatim when the
    /// owning service's table kept its shape (exactly the flows that
    /// left at crash time migrate back); fall back to an incremental
    /// grow when the table's bucket count changed since. A dead core's
    /// owner never changes, so that table holds the record.
    fn on_core_up(&mut self, core: usize) -> RepairOutcome {
        let Some(cs) = self.cores.get(core).copied() else {
            return RepairOutcome::Unrepaired;
        };
        if !cs.dead {
            return RepairOutcome::Repaired; // never crashed: nothing to do
        }
        if let Some(c) = self.cores.get_mut(core) {
            c.dead = false;
        }
        let map = &mut self.svc_mut(cs.owner).map;
        if let Some(exact) = map.restore_core(core, |_, _| true) {
            if !exact {
                map.add_core(core);
            }
            return RepairOutcome::Repaired;
        }
        if cs.parked_since.is_some() {
            // Crashed while parked: it simply becomes wakeable again.
            return RepairOutcome::Repaired;
        }
        // Unrepaired crash (single-core service): the mapping still
        // points at the core, so healing restores service by itself.
        if self.svc(cs.owner).map.contains(core) {
            return RepairOutcome::Repaired;
        }
        RepairOutcome::Unrepaired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nphash::FlowId;
    use npsim::QueueInfo;

    fn cfg(n_cores: usize) -> LapsConfig {
        LapsConfig {
            n_cores,
            high_thresh: 8,
            idle_release: SimTime::from_micros(100),
            ..LapsConfig::default()
        }
    }

    fn pkt(i: u64, service: ServiceKind) -> PacketDesc {
        PacketDesc {
            id: i,
            flow: FlowId::from_index(i),
            slot: FlowSlot::new(i as u32),
            service,
            size: 64,
            arrival: SimTime::ZERO,
            flow_seq: 0,
            migrated: false,
            sync_debt_ns: 0,
        }
    }

    /// The cores `l` has powered down.
    fn parked(l: &Laps) -> Vec<usize> {
        let cores = l.cores.iter().enumerate();
        cores
            .filter(|(_, cs)| cs.parked_since.is_some())
            .map(|(c, _)| c)
            .collect()
    }

    struct ViewSpec {
        lens: Vec<usize>,
        congested: Vec<SimTime>,
        now: SimTime,
    }

    impl ViewSpec {
        /// All cores empty; nothing ever congested; t = 0.
        fn calm(n: usize) -> Self {
            ViewSpec {
                lens: vec![0; n],
                congested: vec![SimTime::ZERO; n],
                now: SimTime::ZERO,
            }
        }
        fn infos(&self) -> Vec<QueueInfo> {
            self.lens
                .iter()
                .zip(self.congested.iter())
                .map(|(&len, &last_congested)| QueueInfo {
                    len,
                    capacity: 32,
                    busy: len > 0,
                    idle_since: if len == 0 { Some(SimTime::ZERO) } else { None },
                    last_congested,
                    up: true,
                })
                .collect()
        }
    }

    #[test]
    fn initial_partition_is_even_and_disjoint() {
        let l = Laps::new(cfg(16));
        let mut seen = [false; 16];
        for s in ServiceKind::ALL {
            let cores = l.cores_of(s);
            assert_eq!(cores.len(), 4);
            for &c in cores {
                assert!(!seen[c], "core {c} owned twice");
                seen[c] = true;
            }
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn packets_stay_within_their_service_partition() {
        let mut l = Laps::new(cfg(16));
        let spec = ViewSpec::calm(16);
        let infos = spec.infos();
        let v = SystemView {
            now: spec.now,
            queues: &infos,
        };
        for s in ServiceKind::ALL {
            let owned: Vec<usize> = l.cores_of(s).to_vec();
            for i in 0..200 {
                let c = l.schedule(&pkt(i, s), &v);
                assert!(
                    owned.contains(&c),
                    "service {s:?} packet went to foreign core {c}"
                );
            }
        }
    }

    #[test]
    fn same_flow_same_core_absent_overload() {
        let mut l = Laps::new(cfg(16));
        let spec = ViewSpec::calm(16);
        let infos = spec.infos();
        let v = SystemView {
            now: spec.now,
            queues: &infos,
        };
        for i in 0..100 {
            let p = pkt(i, ServiceKind::IpForward);
            let a = l.schedule(&p, &v);
            let b = l.schedule(&p, &v);
            assert_eq!(a, b);
        }
        assert_eq!(l.migrations(), 0);
        assert_eq!(l.reallocations(), 0);
    }

    #[test]
    fn aggressive_flow_migrates_within_service_on_overload() {
        let mut l = Laps::new(cfg(16));
        let svc = ServiceKind::IpForward;
        let elephant = pkt(7, svc);
        // Make the flow aggressive in the AFD.
        let spec = ViewSpec::calm(16);
        let infos = spec.infos();
        let calm = SystemView {
            now: spec.now,
            queues: &infos,
        };
        let mut home = 0;
        for _ in 0..20 {
            home = l.schedule(&elephant, &calm);
        }
        assert!(l.afd().is_aggressive(elephant.slot));
        // Overload the home core only; everything recently congested so
        // no reallocation interferes.
        let mut spec = ViewSpec::calm(16);
        spec.lens[home] = 10;
        let infos = spec.infos();
        let hot = SystemView {
            now: spec.now,
            queues: &infos,
        };
        let new_core = l.schedule(&elephant, &hot);
        assert_ne!(new_core, home);
        assert!(
            l.cores_of(svc).contains(&new_core),
            "migration stays in-service"
        );
        assert_eq!(l.migrations(), 1);
        assert!(
            !l.afd().is_aggressive(elephant.slot),
            "invalidated after migration"
        );
        // Override persists.
        assert_eq!(l.schedule(&elephant, &calm), new_core);
    }

    #[test]
    fn mouse_never_migrates() {
        let mut l = Laps::new(cfg(16));
        let svc = ServiceKind::IpForward;
        let mouse = pkt(3, svc);
        let spec = ViewSpec::calm(16);
        let infos = spec.infos();
        let calm = SystemView {
            now: spec.now,
            queues: &infos,
        };
        let home = l.schedule(&mouse, &calm);
        let mut spec = ViewSpec::calm(16);
        spec.lens[home] = 10;
        let infos = spec.infos();
        let hot = SystemView {
            now: spec.now,
            queues: &infos,
        };
        assert_eq!(l.schedule(&mouse, &hot), home);
        assert_eq!(l.migrations(), 0);
    }

    #[test]
    fn overloaded_service_claims_longest_spare_core() {
        let mut l = Laps::new(cfg(8)); // 2 cores per service
        let svc = ServiceKind::IpForward;
        let owned_before: Vec<usize> = l.cores_of(svc).to_vec();

        // Our two cores slammed (recently congested); foreign cores
        // spare, with distinct spare ages.
        let mut spec = ViewSpec::calm(8);
        spec.now = SimTime::from_millis(10);
        for &c in &owned_before {
            spec.lens[c] = 10;
            spec.congested[c] = spec.now;
        }
        let foreign: Vec<usize> = (0..8).filter(|c| !owned_before.contains(c)).collect();
        for (i, &c) in foreign.iter().enumerate() {
            spec.congested[c] = SimTime::from_micros(i as u64 * 10);
        }
        let infos = spec.infos();
        let v = SystemView {
            now: spec.now,
            queues: &infos,
        };
        // The claim order must start at the longest-spare core.
        let cands = l.surplus_candidates(&v, svc);
        assert_eq!(cands.first(), Some(&foreign[0]));

        let target = l.schedule(&pkt(1, svc), &v);
        assert_eq!(l.reallocations(), 1);
        let owned_after = l.cores_of(svc);
        assert_eq!(owned_after.len(), 3, "one core claimed");
        assert!(
            owned_after.contains(&foreign[0]),
            "longest-spare core claimed"
        );
        // The packet was steered onto an un-overloaded core.
        assert!(v.queues[target].len < 8);
        // Ownership stays disjoint.
        let mut count = [0; 8];
        for s in ServiceKind::ALL {
            for &c in l.cores_of(s) {
                count[c] += 1;
            }
        }
        assert!(count.iter().all(|&k| k == 1));
    }

    #[test]
    fn no_reallocation_without_spare_cores() {
        let mut l = Laps::new(cfg(8));
        // Everything congested recently: nothing to claim; no panic.
        let mut spec = ViewSpec::calm(8);
        spec.now = SimTime::from_millis(10);
        for c in 0..8 {
            spec.lens[c] = 12;
            spec.congested[c] = spec.now;
        }
        let infos = spec.infos();
        let v = SystemView {
            now: spec.now,
            queues: &infos,
        };
        let t = l.schedule(&pkt(1, ServiceKind::VpnOut), &v);
        assert!(t < 8);
        assert_eq!(l.reallocations(), 0);
    }

    #[test]
    fn victim_never_loses_last_core() {
        // 4 cores, 4 services: every service has exactly one core; no
        // transfer may ever happen even with everyone long-spare.
        let mut l = Laps::new(cfg(4));
        let mut spec = ViewSpec::calm(4);
        spec.now = SimTime::from_millis(100);
        let my_core = l.cores_of(ServiceKind::IpForward)[0];
        spec.lens[my_core] = 31;
        spec.congested[my_core] = spec.now;
        let infos = spec.infos();
        let v = SystemView {
            now: spec.now,
            queues: &infos,
        };
        for i in 0..100 {
            l.schedule(&pkt(i, ServiceKind::IpForward), &v);
        }
        assert_eq!(l.reallocations(), 0);
        for s in ServiceKind::ALL {
            assert_eq!(l.cores_of(s).len(), 1);
        }
    }

    #[test]
    fn surplus_requires_spare_duration() {
        let l = Laps::new(cfg(8));
        // Congested 50µs ago with idle_release = 100µs → not eligible.
        let mut spec = ViewSpec::calm(8);
        spec.now = SimTime::from_micros(60);
        for c in 0..8 {
            spec.congested[c] = SimTime::from_micros(10);
        }
        let infos = spec.infos();
        let v = SystemView {
            now: spec.now,
            queues: &infos,
        };
        assert!(l.surplus_candidates(&v, ServiceKind::IpForward).is_empty());
        // 150µs later → all foreign cores eligible.
        let mut spec2 = ViewSpec::calm(8);
        spec2.now = SimTime::from_micros(200);
        for c in 0..8 {
            spec2.congested[c] = SimTime::from_micros(10);
        }
        let infos2 = spec2.infos();
        let v2 = SystemView {
            now: spec2.now,
            queues: &infos2,
        };
        assert_eq!(l.surplus_candidates(&v2, ServiceKind::IpForward).len(), 6);
    }

    #[test]
    fn parking_powers_down_long_spare_cores() {
        let mut l = Laps::new(LapsConfig {
            parking: Some(crate::ParkConfig {
                park_after: SimTime::from_millis(1),
                min_cores: 1,
            }),
            ..cfg(8)
        });
        // Everything spare for a long time.
        let mut spec = ViewSpec::calm(8);
        spec.now = SimTime::from_millis(10);
        let infos = spec.infos();
        let v = SystemView {
            now: spec.now,
            queues: &infos,
        };
        l.schedule(&pkt(1, ServiceKind::IpForward), &v);
        // Each service kept min_cores = 1: four cores parked.
        assert_eq!(parked(&l).len(), 4);
        assert_eq!(l.park_events(), (4, 0));
        // Packets never land on a parked core.
        for s in ServiceKind::ALL {
            assert_eq!(l.cores_of(s).len(), 1);
            for i in 0..50 {
                let c = l.schedule(&pkt(i, s), &v);
                assert!(!parked(&l).contains(&c));
            }
        }
        // Parked time accrues.
        assert!(l.parked_time_ns(SimTime::from_millis(20)) > 0);
    }

    #[test]
    fn overload_wakes_parked_cores_first() {
        let mut l = Laps::new(LapsConfig {
            parking: Some(crate::ParkConfig {
                park_after: SimTime::from_millis(1),
                min_cores: 1,
            }),
            ..cfg(8)
        });
        let svc = ServiceKind::IpForward;
        // Phase 1: park the spares.
        let mut spec = ViewSpec::calm(8);
        spec.now = SimTime::from_millis(10);
        let infos = spec.infos();
        let v = SystemView {
            now: spec.now,
            queues: &infos,
        };
        l.schedule(&pkt(1, svc), &v);
        assert_eq!(parked(&l).len(), 4);
        // Phase 2: slam the service's single core — it must wake a parked
        // core rather than rob a peer.
        let my_core = l.cores_of(svc)[0];
        let mut spec = ViewSpec::calm(8);
        spec.now = SimTime::from_millis(50);
        spec.lens[my_core] = 12;
        spec.congested = vec![spec.now; 8];
        let infos = spec.infos();
        let v = SystemView {
            now: spec.now,
            queues: &infos,
        };
        l.schedule(&pkt(2, svc), &v);
        assert_eq!(parked(&l).len(), 3, "one core woken");
        assert_eq!(l.park_events().1, 1);
        assert_eq!(l.cores_of(svc).len(), 2);
        for s in ServiceKind::ALL {
            assert!(!l.cores_of(s).is_empty());
        }
    }

    #[test]
    fn stale_migration_override_is_dropped_after_transfer() {
        let mut l = Laps::new(cfg(8));
        let svc = ServiceKind::IpForward;
        let elephant = pkt(7, svc);
        let spec = ViewSpec::calm(8);
        let infos = spec.infos();
        let calm = SystemView {
            now: spec.now,
            queues: &infos,
        };
        for _ in 0..20 {
            l.schedule(&elephant, &calm);
        }
        let home = l.schedule(&elephant, &calm);
        // Migrate the elephant to the service's other core.
        let mut spec = ViewSpec::calm(8);
        spec.lens[home] = 10;
        spec.congested = vec![spec.now; 8];
        let infos = spec.infos();
        let hot = SystemView {
            now: spec.now,
            queues: &infos,
        };
        let new_core = l.schedule(&elephant, &hot);
        assert_ne!(new_core, home);
        // Force that core to be claimed by another service: make VpnOut
        // overloaded everywhere and the elephant's new core long-spare.
        let vpn_cores: Vec<usize> = l.cores_of(ServiceKind::VpnOut).to_vec();
        let mut spec = ViewSpec::calm(8);
        spec.now = SimTime::from_millis(50);
        for c in 0..8 {
            spec.lens[c] = 10;
            spec.congested[c] = spec.now;
        }
        spec.lens[new_core] = 0;
        spec.congested[new_core] = SimTime::ZERO;
        let infos = spec.infos();
        let v = SystemView {
            now: spec.now,
            queues: &infos,
        };
        l.schedule(&pkt(1000, ServiceKind::VpnOut), &v);
        assert_eq!(l.reallocations(), 1);
        assert!(l.cores_of(ServiceKind::VpnOut).contains(&new_core));
        assert!(!vpn_cores.contains(&new_core));
        // The elephant's override is now stale; it must fall back to its
        // own service's cores, never the transferred core.
        let spec = ViewSpec::calm(8);
        let infos = spec.infos();
        let calm = SystemView {
            now: spec.now,
            queues: &infos,
        };
        let back = l.schedule(&elephant, &calm);
        assert_ne!(back, new_core);
        assert!(l.cores_of(svc).contains(&back));
    }

    #[test]
    fn crash_repair_migrates_only_failed_cores_flows() {
        let mut l = Laps::new(cfg(8)); // two cores per service
        let svc = ServiceKind::IpForward;
        let dead = l.cores_of(svc)[0];
        let packets: Vec<PacketDesc> = (0..4_000).map(|i| pkt(i, svc)).collect();
        let spec = ViewSpec::calm(8);
        let infos = spec.infos();
        let v = SystemView {
            now: spec.now,
            queues: &infos,
        };
        let before: Vec<usize> = packets.iter().map(|p| l.schedule(p, &v)).collect();
        assert_eq!(l.on_core_down(dead), RepairOutcome::Repaired);
        for (p, &old) in packets.iter().zip(before.iter()) {
            let new = l.schedule(p, &v);
            assert_ne!(new, dead, "no flow may target the dead core");
            if old != dead {
                assert_eq!(new, old, "only the dead core's flows migrate");
            }
        }
        assert_eq!(l.on_core_up(dead), RepairOutcome::Repaired);
        let after: Vec<usize> = packets.iter().map(|p| l.schedule(p, &v)).collect();
        assert_eq!(before, after, "heal restores the exact pre-crash mapping");
    }

    #[test]
    fn heal_after_the_service_resized_falls_back_to_add_core() {
        let mut l = Laps::new(cfg(12)); // three cores per service
        let svc = ServiceKind::IpForward;
        let dead = l.cores_of(svc)[1];
        assert_eq!(l.on_core_down(dead), RepairOutcome::Repaired);
        let repaired = l.cores_of(svc).to_vec();
        assert_eq!(repaired.len(), 3, "retirement keeps the table's shape");
        // Every core overloaded but one long-spare core of another
        // service: the crashed core's service claims it.
        let spare = l.cores_of(ServiceKind::VpnOut)[0];
        let mut spec = ViewSpec::calm(12);
        spec.now = SimTime::from_millis(50);
        spec.lens = vec![10; 12];
        spec.congested = vec![spec.now; 12];
        spec.lens[spare] = 0;
        spec.congested[spare] = SimTime::ZERO;
        let infos = spec.infos();
        let v = SystemView {
            now: spec.now,
            queues: &infos,
        };
        l.schedule(&pkt(1, svc), &v);
        assert_eq!(l.reallocations(), 1);
        assert_eq!(l.cores_of(svc), [repaired.as_slice(), &[spare]].concat());
        // The grow changed the bucket count, so the heal cannot restore
        // the recorded buckets: it grows the table by one bucket instead.
        assert_eq!(l.on_core_up(dead), RepairOutcome::Repaired);
        let healed = [repaired.as_slice(), &[spare, dead]].concat();
        assert_eq!(l.cores_of(svc), healed.as_slice());
    }

    /// A core claimed after a crash repair made it hold two buckets
    /// leaves its old service whole: no core is in two services' tables.
    #[test]
    fn a_claimed_core_leaves_every_bucket_of_its_old_service() {
        let mut l = Laps::new(cfg(12)); // three cores per service
        let svc = ServiceKind::IpForward;
        assert_eq!(l.cores_of(svc), [1, 5, 9]);
        assert_eq!(l.on_core_down(5), RepairOutcome::Repaired);
        assert_eq!(l.cores_of(svc), [1, 1, 9], "core 1 took core 5's bucket");
        // VpnOut overloaded on every core; core 1 long-spare, so VpnOut
        // claims it.
        let mut spec = ViewSpec::calm(12);
        spec.now = SimTime::from_millis(50);
        spec.lens = vec![10; 12];
        spec.congested = vec![spec.now; 12];
        spec.lens[1] = 0;
        spec.congested[1] = SimTime::ZERO;
        let infos = spec.infos();
        let v = SystemView {
            now: spec.now,
            queues: &infos,
        };
        l.schedule(&pkt(1, ServiceKind::VpnOut), &v);
        assert_eq!(l.reallocations(), 1);
        assert_eq!(l.cores_of(ServiceKind::VpnOut), [0, 4, 8, 1]);
        assert_eq!(l.cores_of(svc), [9]);
        let mut owners = [0; 12];
        for s in ServiceKind::ALL {
            let mut cores = l.cores_of(s).to_vec();
            cores.sort_unstable();
            cores.dedup();
            for c in cores {
                owners[c] += 1;
            }
        }
        assert!(
            owners.iter().all(|&n| n <= 1),
            "a core in two services: {owners:?}"
        );
    }

    /// A survivor that holds every bucket of its service is the
    /// service's last core, however many buckets it holds: not surplus.
    #[test]
    fn a_last_core_holding_two_buckets_is_not_surplus() {
        let mut l = Laps::new(cfg(8)); // two cores per service
        let svc = ServiceKind::IpForward;
        assert_eq!(l.cores_of(svc), [1, 5]);
        assert_eq!(l.on_core_down(5), RepairOutcome::Repaired);
        assert_eq!(l.cores_of(svc), [1, 1]);
        let mut spec = ViewSpec::calm(8);
        spec.now = SimTime::from_millis(50);
        spec.lens = vec![10; 8];
        spec.congested = vec![spec.now; 8];
        spec.lens[1] = 0;
        spec.congested[1] = SimTime::ZERO;
        let infos = spec.infos();
        let v = SystemView {
            now: spec.now,
            queues: &infos,
        };
        assert!(l.surplus_candidates(&v, ServiceKind::VpnOut).is_empty());
        l.schedule(&pkt(1, ServiceKind::VpnOut), &v);
        assert_eq!(l.reallocations(), 0);
        assert_eq!(l.cores_of(svc), [1, 1]);
    }

    #[test]
    fn single_core_service_crash_is_honestly_unrepaired() {
        let mut l = Laps::new(cfg(4)); // one core per service
        let svc = ServiceKind::IpForward;
        let only = l.cores_of(svc)[0];
        assert_eq!(l.on_core_down(only), RepairOutcome::Unrepaired);
        // Healing restores service with no table change needed.
        assert_eq!(l.on_core_up(only), RepairOutcome::Repaired);
        assert!(l.cores_of(svc).contains(&only));
    }

    #[test]
    fn dead_core_is_never_claimed_or_woken() {
        let mut l = Laps::new(cfg(8));
        let svc = ServiceKind::IpForward;
        let victim_core = l.cores_of(ServiceKind::VpnOut)[0];
        assert_eq!(l.on_core_down(victim_core), RepairOutcome::Repaired);
        // Everything long-spare: the dead core must not look claimable.
        let mut spec = ViewSpec::calm(8);
        spec.now = SimTime::from_millis(10);
        let infos = spec.infos();
        let v = SystemView {
            now: spec.now,
            queues: &infos,
        };
        assert!(!l.surplus_candidates(&v, svc).contains(&victim_core));
        for s in ServiceKind::ALL {
            assert!(!l.cores_of(s).contains(&victim_core));
        }
    }

    #[test]
    fn migration_override_to_dead_core_is_dropped() {
        let mut l = Laps::new(cfg(8));
        let svc = ServiceKind::IpForward;
        let elephant = pkt(7, svc);
        let spec = ViewSpec::calm(8);
        let infos = spec.infos();
        let calm = SystemView {
            now: spec.now,
            queues: &infos,
        };
        let mut home = 0;
        for _ in 0..20 {
            home = l.schedule(&elephant, &calm);
        }
        let mut spec = ViewSpec::calm(8);
        spec.lens[home] = 10;
        spec.congested = vec![spec.now; 8];
        let infos = spec.infos();
        let hot = SystemView {
            now: spec.now,
            queues: &infos,
        };
        let new_core = l.schedule(&elephant, &hot);
        assert_ne!(new_core, home);
        // The override's target crashes: the flow must fall back to a
        // live core of its own service.
        assert_eq!(l.on_core_down(new_core), RepairOutcome::Repaired);
        let back = l.schedule(&elephant, &calm);
        assert_ne!(back, new_core);
        assert!(l.cores_of(svc).contains(&back));
    }
}
