//! Processing-delay model (Eq. 3) and the Table III core configuration.
//!
//! `PD_i = T_proc,i + FM_penalty + CC_penalty`
//!
//! * `FM_penalty` — four cache misses ≈ **0.8 µs** charged when a packet's
//!   flow last ran on a different core (two misses for routing data, two
//!   for per-flow data — the paper calls this conservative).
//! * `CC_penalty` — **10 µs** cold-I-cache penalty charged when the core's
//!   previous packet belonged to a different service (the 16 KB I-cache
//!   only holds one service's fast-path program).

use crate::service::ServiceKind;
use serde::{Deserialize, Serialize};

/// The data-plane core configuration of Table III, recorded for
/// documentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Core frequency in MHz.
    pub frequency_mhz: u32,
    /// Pipeline depth (stages).
    pub pipeline_stages: u32,
    /// Issue width.
    pub issue_width: u32,
    /// Instruction cache size in KiB.
    pub icache_kib: u32,
    /// Instruction cache associativity.
    pub icache_ways: u32,
    /// Data cache size in KiB.
    pub dcache_kib: u32,
    /// Data cache associativity.
    pub dcache_ways: u32,
}

impl Default for CoreConfig {
    /// Table III: 1 GHz, 7-stage 2-issue in-order, 16 KB 2-way I-cache,
    /// 32 KB 4-way D-cache.
    fn default() -> Self {
        CoreConfig {
            frequency_mhz: 1000,
            pipeline_stages: 7,
            issue_width: 2,
            icache_kib: 16,
            icache_ways: 2,
            dcache_kib: 32,
            dcache_ways: 4,
        }
    }
}

/// The delay model with its penalties and the DESIGN.md time-scaling knob.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DelayModel {
    /// Flow-migration penalty in µs (paper: 0.8).
    pub fm_penalty_us: f64,
    /// Cold-I-cache penalty in µs (paper: 10.0).
    pub cc_penalty_us: f64,
    /// State-Compute Replication sync cost in µs **per stale replica**
    /// (arXiv 2309.14647): under an SCR-style policy a packet pays this
    /// once for every *other* core that touched its flow since the
    /// flow's last state consolidation. `0` (the default) prices state
    /// sync at nothing and keeps the SCR machinery entirely off the
    /// packet path — LAPS-family policies never pay it regardless.
    pub sync_cost_us: f64,
    /// Rate/time scale factor `F`: processing times and penalties are
    /// multiplied by `F` while arrival rates are divided by `F`, leaving
    /// offered load invariant (see DESIGN.md). `1` = paper-exact.
    pub scale: f64,
}

impl Default for DelayModel {
    fn default() -> Self {
        DelayModel {
            fm_penalty_us: 0.8,
            cc_penalty_us: 10.0,
            sync_cost_us: 0.0,
            scale: 1.0,
        }
    }
}

impl DelayModel {
    /// A paper-exact model scaled by `scale`.
    pub fn scaled(scale: f64) -> Self {
        DelayModel {
            scale,
            ..DelayModel::default()
        }
    }

    /// Total processing delay in µs for a packet of `service` and
    /// `size_bytes`, given whether the flow migrated and whether the core
    /// is cold for this service.
    pub fn processing_delay_us(
        &self,
        service: ServiceKind,
        size_bytes: u16,
        flow_migrated: bool,
        cold_cache: bool,
    ) -> f64 {
        let mut t = service.proc_time_us(size_bytes);
        if flow_migrated {
            t += self.fm_penalty_us;
        }
        if cold_cache {
            t += self.cc_penalty_us;
        }
        t * self.scale
    }

    /// SCR sync surcharge in µs for a packet whose flow has
    /// `stale_replicas` other cores holding its state since the last
    /// consolidation, scaled like every other penalty.
    pub fn sync_delay_us(&self, stale_replicas: u32) -> f64 {
        self.sync_cost_us * stale_replicas as f64 * self.scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn penalties_add() {
        let m = DelayModel::default();
        let s = ServiceKind::IpForward;
        assert!((m.processing_delay_us(s, 64, false, false) - 0.5).abs() < 1e-9);
        assert!((m.processing_delay_us(s, 64, true, false) - 1.3).abs() < 1e-9);
        assert!((m.processing_delay_us(s, 64, false, true) - 10.5).abs() < 1e-9);
        assert!((m.processing_delay_us(s, 64, true, true) - 11.3).abs() < 1e-9);
    }

    #[test]
    fn scale_multiplies_everything() {
        let m = DelayModel::scaled(50.0);
        let unscaled = DelayModel::default();
        for migrated in [false, true] {
            for cold in [false, true] {
                let a = m.processing_delay_us(ServiceKind::VpnOut, 576, migrated, cold);
                let b = unscaled.processing_delay_us(ServiceKind::VpnOut, 576, migrated, cold);
                assert!((a - 50.0 * b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn sync_delay_scales_per_stale_replica() {
        let m = DelayModel {
            sync_cost_us: 0.4,
            ..DelayModel::scaled(50.0)
        };
        assert!((m.sync_delay_us(0)).abs() < 1e-9);
        assert!((m.sync_delay_us(3) - 0.4 * 3.0 * 50.0).abs() < 1e-9);
        let off = DelayModel::default();
        assert_eq!(off.sync_cost_us, 0.0, "sync pricing is off by default");
        assert!((off.sync_delay_us(7)).abs() < 1e-9);
    }

    #[test]
    fn table_iii_constants() {
        let c = CoreConfig::default();
        assert_eq!(c.frequency_mhz, 1000);
        assert_eq!(c.pipeline_stages, 7);
        assert_eq!(c.issue_width, 2);
        assert_eq!(c.icache_kib, 16);
        assert_eq!(c.dcache_kib, 32);
    }
}
