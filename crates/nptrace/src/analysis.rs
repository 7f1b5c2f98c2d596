//! Offline trace analysis: exact per-flow statistics, top-k ground truth,
//! and the rank-size distribution of Fig. 2.
//!
//! The paper evaluates the Aggressive Flow Detector against "top 16 flows
//! identified by off-line analysis" — this module is that offline
//! analysis, both over whole traces and over sliding measurement windows
//! (Fig. 8b).

use crate::packet::Trace;
use nphash::det::{det_map, DetHashMap};
use nphash::FlowId;
use serde::{Deserialize, Serialize};

/// Exact whole-trace statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceStats {
    counts: Vec<u64>,
    total_packets: u64,
}

impl TraceStats {
    /// Count every packet of `trace`.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut counts = vec![0u64; trace.n_flows as usize];
        for p in &trace.packets {
            counts[p.flow as usize] += 1;
        }
        TraceStats {
            counts,
            total_packets: trace.packets.len() as u64,
        }
    }

    /// Per-flow packet counts, indexed by dense flow index.
    pub fn counts_by_flow(&self) -> &[u64] {
        &self.counts
    }

    /// Number of flows that actually appear (count > 0).
    pub fn active_flows(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// Flow sizes sorted descending — the y-axis of Fig. 2 (`rank 1 is the
    /// flow with the largest flow size`).
    pub fn rank_size(&self) -> Vec<u64> {
        let mut sizes: Vec<u64> = self.counts.iter().copied().filter(|&c| c > 0).collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        sizes
    }

    /// The dense flow indices of the `k` largest flows (by packet count),
    /// largest first. Ties break toward the lower flow index,
    /// deterministically.
    pub fn top_k(&self, k: usize) -> Vec<u32> {
        let mut idx: Vec<u32> = (0..self.counts.len() as u32).collect();
        idx.sort_unstable_by(|&a, &b| {
            self.counts[b as usize]
                .cmp(&self.counts[a as usize])
                .then(a.cmp(&b))
        });
        idx.truncate(k);
        idx.retain(|&i| self.counts[i as usize] > 0);
        idx
    }

    /// Fraction of all packets carried by the top `frac` (0..1] of active
    /// flows — the heavy-tail summary quoted in DESIGN.md's lib example.
    pub fn top_fraction(&self, frac: f64) -> f64 {
        if self.total_packets == 0 {
            return 0.0;
        }
        let ranked = self.rank_size();
        let k = ((ranked.len() as f64 * frac).ceil() as usize)
            .max(1)
            .min(ranked.len());
        let top: u64 = ranked[..k].iter().sum();
        top as f64 / self.total_packets as f64
    }
}

/// Exact top-k over sliding measurement windows of `window` packets —
/// the ground truth for Fig. 8(b).
///
/// Window `w` covers packets `[w*window, (w+1)*window)`.
pub fn windowed_top_k(trace: &Trace, window: usize, k: usize) -> Vec<Vec<u32>> {
    assert!(window > 0, "window must be positive");
    let mut out = Vec::new();
    let mut counts: DetHashMap<u32, u64> = det_map();
    for (i, p) in trace.packets.iter().enumerate() {
        *counts.entry(p.flow).or_insert(0) += 1;
        if (i + 1) % window == 0 {
            out.push(top_of_map(&counts, k));
            counts.clear();
        }
    }
    if !counts.is_empty() {
        out.push(top_of_map(&counts, k));
    }
    out
}

/// Exact **cumulative** top-k checked at every `interval` packets — the
/// "accuracy checked at every fixed interval" protocol of Fig. 8(b).
pub fn cumulative_top_k_checkpoints(trace: &Trace, interval: usize, k: usize) -> Vec<Vec<u32>> {
    assert!(interval > 0, "interval must be positive");
    let mut out = Vec::new();
    let mut counts: DetHashMap<u32, u64> = det_map();
    for (i, p) in trace.packets.iter().enumerate() {
        *counts.entry(p.flow).or_insert(0) += 1;
        if (i + 1) % interval == 0 {
            out.push(top_of_map(&counts, k));
        }
    }
    out
}

fn top_of_map(counts: &DetHashMap<u32, u64>, k: usize) -> Vec<u32> {
    let mut v: Vec<(u32, u64)> = counts.iter().map(|(&f, &c)| (f, c)).collect();
    v.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v.truncate(k);
    v.into_iter().map(|(f, _)| f).collect()
}

/// False-positive ratio of a candidate heavy-hitter set against ground
/// truth: `|candidates ∉ truth| / |candidates|` (the paper's
/// "false positives / total entries", Fig. 8a). Zero for an empty
/// candidate set.
pub fn false_positive_ratio(candidates: &[FlowId], truth: &[FlowId]) -> f64 {
    if candidates.is_empty() {
        return 0.0;
    }
    let fp = candidates.iter().filter(|c| !truth.contains(c)).count();
    fp as f64 / candidates.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketRecord;

    fn trace_of(flows: &[u32]) -> Trace {
        Trace {
            name: "t".into(),
            flow_space: 1,
            n_flows: flows.iter().copied().max().unwrap_or(0) + 1,
            packets: flows
                .iter()
                .map(|&f| PacketRecord { flow: f, size: 64 })
                .collect(),
        }
    }

    #[test]
    fn counts_and_rank_size() {
        let t = trace_of(&[0, 0, 0, 1, 1, 2]);
        let s = t.analyze();
        assert_eq!(s.counts_by_flow(), &[3, 2, 1]);
        assert_eq!(s.rank_size(), vec![3, 2, 1]);
        assert_eq!(s.total_packets, 6);
        assert_eq!(s.active_flows(), 3);
    }

    #[test]
    fn top_k_orders_and_truncates() {
        let t = trace_of(&[2, 2, 2, 0, 0, 1]);
        let s = t.analyze();
        assert_eq!(s.top_k(2), vec![2, 0]);
        assert_eq!(s.top_k(10), vec![2, 0, 1]); // zero-count flows excluded
    }

    #[test]
    fn top_k_tie_break_is_deterministic() {
        let t = trace_of(&[0, 1, 2, 3]);
        let s = t.analyze();
        assert_eq!(s.top_k(2), vec![0, 1]);
    }

    #[test]
    fn top_fraction_heavy_tail() {
        // One elephant with 90 packets, 10 mice with 1 each.
        let mut flows = vec![0u32; 90];
        flows.extend(1..=10);
        let s = trace_of(&flows).analyze();
        // Top 10% of 11 active flows = 2 flows = 91 packets of 100.
        assert!((s.top_fraction(0.10) - 0.91).abs() < 1e-9);
    }

    #[test]
    fn windowed_top_k_windows() {
        let t = trace_of(&[0, 0, 1, /* window 1 */ 2, 2, 1 /* window 2 */]);
        let w = windowed_top_k(&t, 3, 1);
        assert_eq!(w, vec![vec![0], vec![2]]);
    }

    #[test]
    fn windowed_handles_partial_tail() {
        let t = trace_of(&[0, 0, 1, 2]);
        let w = windowed_top_k(&t, 3, 2);
        assert_eq!(w.len(), 2);
        assert_eq!(w[1], vec![2]);
    }

    #[test]
    fn cumulative_checkpoints_accumulate() {
        let t = trace_of(&[1, 1, 0, 0, 0, 0]);
        let cps = cumulative_top_k_checkpoints(&t, 2, 1);
        // After 2 pkts flow 1 leads; after 4 it's a 2-2 tie (lower flow
        // index wins); after 6 flow 0 leads outright.
        assert_eq!(cps, vec![vec![1], vec![0], vec![0]]);
    }

    #[test]
    fn fpr_definition() {
        let a = FlowId::from_index(1);
        let b = FlowId::from_index(2);
        let c = FlowId::from_index(3);
        assert_eq!(false_positive_ratio(&[], &[a]), 0.0);
        assert_eq!(false_positive_ratio(&[a, b], &[a, b, c]), 0.0);
        assert!((false_positive_ratio(&[a, c], &[a]) - 0.5).abs() < 1e-12);
        assert_eq!(false_positive_ratio(&[b, c], &[a]), 1.0);
    }
}
