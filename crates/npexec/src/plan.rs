//! The compact arrival plan: what npexec's threads read of the offered
//! stream, and nothing else.
//!
//! The paper's frame manager hands the scheduler a *descriptor*, not
//! the packet, and hashes a flow to its group once. [`ExecPlan::build`]
//! does the same to [`npsim::PlanStream`]: each 56-byte
//! `ScheduledPacket` is narrowed to a 24-byte [`ExecPkt`] as it is
//! drawn, and a flow's group is one CRC16 on the flow's first packet,
//! carried in every later descriptor of that flow. The 5-tuple, the
//! source index and the packet id are dropped — no thread reads the
//! first two, and the id *is* the plan index (pinned by
//! `packet_ids_unique_and_ordered_per_flow` in `npsim`).

use detsim::SimTime;
use nphash::{FlowSlot, MapTable};
use npsim::{EngineConfig, PlanStream, SourceConfig};
use nptraffic::ServiceKind;

/// One planned packet as the threads see it. Its index in
/// [`ExecPlan::packets`] is its packet id and its ring payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ExecPkt {
    /// Arrival instant: orders fault actions against packets before the
    /// run and timestamps the probe replay after it (no thread reads it).
    pub at: SimTime,
    /// Dense arena slot of the flow.
    pub slot: FlowSlot,
    /// Per-flow arrival sequence number (0-based), the reorder witness.
    pub flow_seq: u32,
    /// Flow group (map-table bucket) of the packet's flow.
    pub group: u32,
    /// Frame size in bytes.
    pub size: u16,
    /// Service the packet requests.
    pub service: ServiceKind,
}

// Eight records per three cache lines, and every thread walks them: a
// field added here is paid per packet, so growing the record has to be
// a decision.
const _: () = assert!(std::mem::size_of::<ExecPkt>() <= 24);

/// The offered stream of one run, narrowed to [`ExecPkt`]s.
#[derive(Debug)]
pub(crate) struct ExecPlan {
    /// Fast-path packets in arrival order.
    pub packets: Vec<ExecPkt>,
    /// Packets the frame-manager classifier diverted to the slow path.
    pub slow_path: u64,
    /// Number of distinct flows interned by the stream.
    pub flow_count: usize,
    /// Offered packets per [`ServiceKind::index`].
    pub offered: [u64; 4],
}

/// The plan has more packets than a `u32` per-flow sequence number can
/// witness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PlanTooLarge;

impl std::fmt::Display for PlanTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "the arrival plan exceeds {} packets: npexec keeps per-flow sequence numbers \
             (the reorder witness) in 32 bits; shorten the horizon or lower the rates",
            u32::MAX
        )
    }
}

impl ExecPlan {
    /// Drain the offered stream of `cfg` + `sources`, hashing each flow
    /// to its group in `table` once, on the flow's first packet.
    pub(crate) fn build(
        cfg: &EngineConfig,
        sources: &[SourceConfig],
        table: &MapTable<usize>,
    ) -> Result<Self, PlanTooLarge> {
        let mut stream = PlanStream::new(cfg, sources);
        let mut packets = Vec::with_capacity(stream.expected_packets());
        let mut group_of_flow: Vec<u32> = Vec::new();
        let mut offered = [0u64; 4];
        for p in &mut stream {
            debug_assert_eq!(p.id, packets.len() as u64, "packet id is the plan index");
            let flow = p.slot.index();
            let group = if p.flow_seq == 0 {
                let g = table.bucket_of(p.flow);
                if group_of_flow.len() <= flow {
                    group_of_flow.resize(flow + 1, 0);
                }
                if let Some(slot) = group_of_flow.get_mut(flow) {
                    *slot = g;
                }
                g
            } else {
                group_of_flow.get(flow).copied().unwrap_or(0)
            };
            if let Some(n) = offered.get_mut(p.service.index()) {
                *n += 1;
            }
            packets.push(ExecPkt {
                at: p.at,
                slot: p.slot,
                // A flow's sequence numbers are below the packet count,
                // so this fails only on a plan `check_len` rejects.
                flow_seq: u32::try_from(p.flow_seq).map_err(|_| PlanTooLarge)?,
                group,
                size: p.size,
                service: p.service,
            });
        }
        check_len(packets.len())?;
        Ok(ExecPlan {
            packets,
            slow_path: stream.slow_path(),
            flow_count: stream.flow_count(),
            offered,
        })
    }
}

/// Reject a plan whose per-flow sequence numbers could overflow `u32`.
fn check_len(packets: usize) -> Result<(), PlanTooLarge> {
    u32::try_from(packets).map(drop).map_err(|_| PlanTooLarge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use npsim::{ArrivalPlan, RateSpec};
    use nptrace::TracePreset;

    fn cfg() -> EngineConfig {
        EngineConfig {
            duration: SimTime::from_millis(5),
            scale: 1.0,
            seed: 77,
            control_plane_fraction: 0.02,
            ..EngineConfig::default()
        }
    }

    fn sources() -> Vec<SourceConfig> {
        vec![
            SourceConfig {
                service: ServiceKind::IpForward,
                trace: TracePreset::Caida(1),
                rate: RateSpec::Constant(4.0),
            },
            SourceConfig {
                service: ServiceKind::VpnOut,
                trace: TracePreset::Auckland(2),
                rate: RateSpec::Constant(2.0),
            },
        ]
    }

    #[test]
    fn compact_plan_is_the_arrival_plan_narrowed() {
        let table = MapTable::new((0..32).map(|g| g % 4).collect());
        let full = ArrivalPlan::from_config(&cfg(), &sources());
        let plan = ExecPlan::build(&cfg(), &sources(), &table).expect("plan fits");
        assert!(full.packets.len() > 10_000, "non-trivial plan");
        assert_eq!(plan.packets.len(), full.packets.len());
        assert_eq!(plan.slow_path, full.slow_path);
        assert!(
            plan.slow_path > 0,
            "flows first seen on the slow path exist"
        );
        assert_eq!(plan.flow_count, full.flow_count);
        let mut offered = [0u64; 4];
        for (c, p) in plan.packets.iter().zip(&full.packets) {
            assert_eq!(
                c.group,
                table.bucket_of(p.flow),
                "group-per-flow equals the per-packet hash (packet {})",
                p.id
            );
            assert_eq!(
                (c.at, c.slot, u64::from(c.flow_seq), c.size, c.service),
                (p.at, p.slot, p.flow_seq, p.size, p.service)
            );
            offered[p.service.index()] += 1;
        }
        assert_eq!(plan.offered, offered);
    }

    #[test]
    fn oversized_plans_are_rejected_with_a_message() {
        assert_eq!(check_len(u32::MAX as usize), Ok(()));
        assert_eq!(check_len(u32::MAX as usize + 1), Err(PlanTooLarge));
        assert!(PlanTooLarge.to_string().contains("32 bits"));
    }
}
