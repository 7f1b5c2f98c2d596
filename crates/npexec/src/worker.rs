//! The per-core worker loop: pop descriptors off the SPSC ring, keep
//! per-flow order across migrations, account service work.
//!
//! A worker is the execution-side mirror of the engine's service stage:
//! it owns one ring, services packets in ring order, and participates
//! in the flow-group migration handshake. Every ring slot carries the
//! packet's whole descriptor ([`ExecDesc`]), so the worker reads
//! nothing of the offered stream but its own ring:
//!
//! The hold rule is `laps::Holdback`, the one the loom models run:
//!
//! * `Desc::Packet` → [`Holdback::park`]: a packet of a group migrating
//!   **to** this worker ([`GroupBoard::inbound`]), or of a group that
//!   already has parked packets here, waits in the holdback, since the
//!   old owner may still have pre-mark packets of the group in flight;
//!   any other packet is serviced at once (ring order == dispatch order
//!   == arrival order).
//! * `Desc::Mark(g)` → [`Holdback::ack`]: this worker is the **old**
//!   owner of `g`, and every pre-redirect packet of `g` popped before
//!   the mark. Packets it parked during an *earlier* inbound handshake
//!   of `g` are serviced first, then [`GroupBoard::release`] publishes
//!   the first-packet-ack and the new owner may drain.
//! * At the top of every loop turn [`Holdback::drain_released`] services
//!   every parked group whose handshake has released, in FIFO order.
//!
//! Every packet is charged by the worker's [`CoreClock`], the core
//! model detsim charges each core with: a packet starts at the later of
//! its arrival and the end of the previous service, moved past any
//! stall window of the fault plan, and pays the throttle the plan has
//! in force then, whatever the host timing. The worker charges a packet
//! as it pops it, in ring order — arrival order, as detsim's queue — and
//! observes its `ServiceStart` into the worker's [`EventSink`]; a held
//! packet keeps the start and finish it popped with. Its service
//! observes a `Departure` (latency: the charged finish minus the
//! arrival) and, if it was late for its flow, a `ReorderDetected`; a
//! crash drop observes a `Dropped`. The thread itself never stalls.
//!
//! ## Control plane: a crash pauses its worker
//!
//! When a fault plan is active each worker has a command word
//! ([`CMD_CRASH`] | [`CMD_PAUSED`]) that the dispatcher and the worker
//! write and the worker reads each iteration. The dispatcher fires
//! `Crash` and `Heal` at their plan positions; the worker carries them
//! out itself, so a fault run spawns no thread beyond the workers. Throttles and stalls
//! never reach a thread: the worker's `CoreClock` reads them off the
//! plan.
//!
//! 1. The dispatcher (at the crash's plan position) sets [`CMD_CRASH`]
//!    and waits for [`CMD_PAUSED`].
//! 2. The worker sees [`CMD_CRASH`] at the top of its loop and does the
//!    crash step: [`Holdback::crash`] turns its parked packets and its
//!    ring's packets into crash drops (a stranded mark is acked), then
//!    it sets [`CMD_PAUSED`] and waits.
//! 3. Only then does the dispatcher point each of the dead worker's
//!    buckets at its new owner ([`GroupBoard::point`]) and re-home them
//!    (`MapTable::retire_core`). It routes nothing to the dead ring.
//! 4. A heal stores a zero command word and migrates the retired
//!    buckets home behind ordinary marked handshakes. The worker resumes
//!    cold. A worker still paused when the run ends exits.
//!
//! A crash begins no handshake. The pause is a Release, the
//! dispatcher's wait an Acquire, and every push to a replacement's ring
//! follows the wait, so the dead worker's last service happens-before
//! any replacement service of its buckets. A marked handshake towards
//! the dead worker still in flight keeps its own mark ack: the
//! replacement reads itself as the target and holds, as any new owner
//! does. See DESIGN.md, "Fault tolerance on real threads".
//!
//! An idle worker spins briefly, then sleeps [`IDLE_NAP`]: the
//! dispatcher draws the whole stream as well as routing it, so it is the
//! bottleneck, and on a 2-thread host a spinning worker would slow the
//! dispatcher running on its SMT sibling. Drawing in 256-packet bursts
//! does not change that: routing a burst still pushes one descriptor at
//! a time, and a ring (1024 slots by default) holds several bursts'
//! worth while its worker naps.
//!
//! This file is hot path (the attribute below): no panicking indexing,
//! no allocation-amplifying calls inside the pop loop.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use detsim::SimTime;
use laps::spsc::{Consumer, Desc};
use laps::{GroupBoard, Holdback};
use npsim::{CoreClock, SimEvent};

use crate::plan::{ExecDesc, SeqWatch, WatchView};
use crate::{affinity, EventSink};

/// How long an idle worker sleeps after 64 empty polls.
const IDLE_NAP: std::time::Duration = std::time::Duration::from_micros(20);

/// Command bit: the worker must crash — drop its holds, drain its ring,
/// then pause.
pub(crate) const CMD_CRASH: u64 = 1 << 0;
/// Command bit, set by the worker: its crash step is done and it waits
/// for a heal to clear the word.
pub(crate) const CMD_PAUSED: u64 = 1 << 1;

/// Everything a worker thread needs, borrowed from the backend's run
/// scope (the atomics outlive the thread scope).
pub(crate) struct WorkerCtx<'a> {
    /// This worker's index (== its ring, == its simulated core).
    pub id: usize,
    /// Consume side of this worker's ring.
    pub consumer: Consumer<ExecDesc>,
    /// The migration handshake scoreboard.
    pub board: GroupBoard,
    /// Per-flow order witness: highest serviced `flow_seq + 1`.
    pub seq_watch: &'a SeqWatch,
    /// Set by the dispatcher after its last push.
    pub done: &'a AtomicBool,
    /// This worker's core model: cold starts, Eq. 3, throttles, stalls.
    pub clock: CoreClock,
    /// CPU to pin to, if pinning was requested.
    pub pin_to: Option<usize>,
    /// The fault-run control plane, one command word per worker; `None`
    /// in fault-free runs (the loop then skips every command-word check).
    pub ctrl: Option<&'a [AtomicU64]>,
    /// Where the worker's events go.
    pub events: EventSink,
}

/// What one worker hands back when it joins.
#[derive(Debug, Default)]
pub(crate) struct WorkerOutcome {
    /// The worker's events: a `ServiceStart` per packet charged, a
    /// `Departure` per service (and a `ReorderDetected` if it was late),
    /// a `Dropped` per crash drop.
    pub events: EventSink,
    /// Simulated busy time (the clock's sum of charged services),
    /// nanoseconds.
    pub busy_ns: u64,
    /// Deepest the holdback buffer ever got, in packets.
    pub max_hold_depth: usize,
    /// Whether the pin request was honored by the kernel.
    pub pinned: bool,
    /// Packets this worker held or still had in its ring when it
    /// crashed — accounted as fault drops.
    pub crash_drops: u64,
}

impl WorkerOutcome {
    /// Account `d` as a crash drop on `core`.
    fn crash_drop(&mut self, d: ExecDesc, core: usize) {
        self.crash_drops += 1;
        let dropped = SimEvent::Dropped {
            id: u64::from(d.pos),
            slot: d.slot,
            service: d.service,
            core,
        };
        self.events.observe(d.pos, d.at, dropped);
    }
}

/// A popped packet and its virtual finish, the departure instant.
struct Charged(ExecDesc, SimTime);

impl From<Charged> for ExecDesc {
    fn from(Charged(d, _): Charged) -> Self {
        d
    }
}

/// Service-side state split out so the pop loop can borrow the
/// holdback and the servicing machinery independently.
struct Svc<'a> {
    id: usize,
    seq_watch: WatchView<'a>,
    clock: CoreClock,
    out: WorkerOutcome,
}

impl Svc<'_> {
    /// Charge a packet on the core's clock as it pops, and observe its
    /// service start. Ring order is arrival order, so the clock sees the
    /// core's packets in the order detsim's queue would, held or not.
    fn charge(&mut self, d: ExecDesc) -> Charged {
        let charge = self.clock.start(d.at, d.service, d.size, d.migrated, 0);
        let done = self.clock.vt();
        let start = SimEvent::ServiceStart {
            core: self.id,
            service: d.service,
            cold: charge.cold,
            migrated: d.migrated,
            duration: charge.duration,
        };
        self.out
            .events
            .observe(d.pos, done - charge.duration, start);
        Charged(d, done)
    }

    /// Service a charged packet: advance the per-flow order witness and
    /// observe its departure. The latency is the virtual finish minus the
    /// arrival, so a handshake hold, which takes host time, adds none.
    fn service(&mut self, Charged(p, done): Charged) {
        let flow_seq = u64::from(p.flow_seq);
        // The highest `flow_seq + 1` serviced before this packet.
        let prev = self.seq_watch.get(p.slot.index()).map_or(0, |w| {
            // The witness is shared with whichever worker serviced the
            // flow's previous packet and whichever services the next.
            // npcheck: ordering(AcqRel RMW — Acquire sees the previous owner's update, Release publishes ours to the next)
            w.fetch_max(flow_seq + 1, Ordering::AcqRel)
        });
        let out_of_order = prev > flow_seq;
        let departure = SimEvent::Departure {
            id: u64::from(p.pos),
            slot: p.slot,
            service: p.service,
            latency_ns: (done - p.at).as_nanos(),
            out_of_order,
        };
        self.out.events.observe(p.pos, done, departure);
        if out_of_order {
            // `npsim::OrderTracker`'s extent: how far behind the flow's
            // highest departed sequence number.
            let ev = SimEvent::ReorderDetected {
                slot: p.slot,
                flow_seq,
                extent: prev - 1 - flow_seq,
            };
            self.out.events.observe(p.pos, done, ev);
        }
    }
}

/// Wait, silent, until a heal clears [`CMD_PAUSED`] (`true`) or the run
/// ends with the worker still down (`false`).
fn paused_until_heal(cmd: &AtomicU64, done: &AtomicBool) -> bool {
    loop {
        // `done` first: the dispatcher's last heal happens-before its
        // `done` store, so a pause still visible after `done` is final.
        // npcheck: ordering(Acquire pairs with the dispatcher's Release store of done after its last fault action)
        let fin = done.load(Ordering::Acquire);
        // npcheck: ordering(Acquire pairs with the heal's Release store of the cleared command word)
        if cmd.load(Ordering::Acquire) & CMD_PAUSED == 0 {
            return true;
        }
        if fin {
            return false;
        }
        std::thread::yield_now();
    }
}

/// Run one worker to completion; returns when the dispatcher is done,
/// the ring is drained, and no held packets remain — or, for a worker a
/// crash paused and no heal resumed, when the dispatcher is done.
pub(crate) fn run(ctx: WorkerCtx<'_>) -> WorkerOutcome {
    let WorkerCtx {
        id,
        mut consumer,
        board,
        seq_watch,
        done,
        clock,
        pin_to,
        ctrl,
        events,
    } = ctx;
    let mut svc = Svc {
        id,
        seq_watch: seq_watch.view(),
        clock,
        out: WorkerOutcome {
            events,
            ..WorkerOutcome::default()
        },
    };
    if let Some(cpu) = pin_to {
        svc.out.pinned = affinity::pin_to_cpu(cpu);
    }
    let cmd = ctrl.and_then(|cp| cp.get(id));
    let mut holds = Holdback::new(board, id);
    let mut idle_polls = 0u32;
    loop {
        if let Some(cmd) = cmd {
            // npcheck: ordering(Acquire pairs with the dispatcher's Release writes of the command word)
            if cmd.load(Ordering::Acquire) & CMD_CRASH != 0 {
                // The crash step. Cold path: runs once per crash.
                holds.crash(&mut consumer, |d| svc.out.crash_drop(d, id));
                // npcheck: ordering(AcqRel RMW — Release publishes the crash step to the dispatcher's Acquire wait for the pause)
                cmd.fetch_or(CMD_PAUSED, Ordering::AcqRel);
                // The crash step runs between two services: nothing is
                // in service, so the clock stops where it is and
                // refunds nothing: a held packet it dropped keeps the
                // charge and the start it took when it popped. The next
                // service starts cold.
                svc.clock.crash(svc.clock.vt());
                if !paused_until_heal(cmd, done) {
                    break;
                }
                continue;
            }
        }
        holds.drain_released(|c| svc.service(c));
        match consumer.try_pop() {
            Some(Desc::Mark(g)) => {
                idle_polls = 0;
                holds.ack(g as usize, |c| svc.service(c));
            }
            Some(Desc::Packet(d)) => {
                idle_polls = 0;
                let c = svc.charge(d);
                if let Some(c) = holds.park(d.group as usize, c) {
                    svc.service(c);
                }
            }
            None => {
                // `is_empty` reads the producer's published tail, not the
                // pop cache: a push between the empty pop above and the
                // dispatcher's `done` store must not be stranded.
                // npcheck: ordering(Acquire pairs with the dispatcher's Release store after its final push — seeing done implies seeing every published slot)
                if done.load(Ordering::Acquire) && holds.is_empty() && consumer.is_empty() {
                    break;
                }
                idle_polls += 1;
                if idle_polls >= 64 {
                    // Block rather than yield (module docs); a ring of
                    // the default 1024 slots takes longer than the nap
                    // to fill.
                    // npcheck: allow(blocking-hot-path) — idle back-off, taken only on an empty ring
                    std::thread::sleep(IDLE_NAP);
                    idle_polls = 0;
                } else {
                    std::hint::spin_loop();
                }
            }
        }
    }
    svc.out.busy_ns = svc.clock.busy_ns();
    svc.out.max_hold_depth = holds.max_depth();
    svc.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nphash::FlowSlot;
    use npsim::EngineConfig;
    use nptraffic::ServiceKind;

    /// A departure behind a higher sequence of its flow observes a
    /// `ReorderDetected` whose extent is `OrderTracker`'s: how far
    /// behind the highest departed sequence number it is.
    #[test]
    fn a_late_departure_observes_its_reorder_extent() {
        let watch = SeqWatch::default();
        watch.publish_through(0);
        let mut svc = Svc {
            id: 0,
            seq_watch: watch.view(),
            clock: CoreClock::new(&EngineConfig::default(), 0),
            out: WorkerOutcome {
                events: EventSink::new(true),
                ..WorkerOutcome::default()
            },
        };
        for (pos, flow_seq) in [(0, 3), (1, 0), (2, 4)] {
            let d = ExecDesc {
                pos,
                slot: FlowSlot::new(0),
                flow_seq,
                group: 0,
                size: 64,
                service: ServiceKind::IpForward,
                migrated: false,
                at: SimTime::ZERO,
            };
            let charged = svc.charge(d);
            svc.service(charged);
        }
        let reorders: Vec<_> = svc
            .out
            .events
            .log
            .iter()
            .flatten()
            .filter_map(|&(pos, _, ev)| match ev {
                SimEvent::ReorderDetected {
                    flow_seq, extent, ..
                } => Some((pos, flow_seq, extent)),
                _ => None,
            })
            .collect();
        assert_eq!(reorders, [(1, 0, 3)]);
        let report = svc.out.events.fold.into_report();
        assert_eq!((report.processed, report.out_of_order), (3, 1));
    }
}
