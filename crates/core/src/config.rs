//! LAPS configuration.

use detsim::SimTime;
use npafd::AfdConfig;

/// Power-aware core parking (extension; models the traffic-aware power
/// management the paper cites as motivation — Luo et al. TACO'07, Iqbal &
/// John ANCS'12). A core with no work for `park_after` is powered down:
/// it leaves its service's bucket list entirely and draws (near) zero
/// power until some service's `request_core()` wakes it.
#[derive(Debug, Clone, Copy)]
pub struct ParkConfig {
    /// How long a core must be surplus before it is parked (should be
    /// well above `idle_release` — parking has a wake latency in real
    /// hardware).
    pub park_after: SimTime,
    /// Minimum cores each service keeps powered.
    pub min_cores: usize,
}

impl Default for ParkConfig {
    fn default() -> Self {
        ParkConfig {
            park_after: SimTime::from_millis(50),
            min_cores: 1,
        }
    }
}

/// Tunables of the LAPS scheduler (and of the top-k baselines that share
/// its machinery).
#[derive(Debug, Clone, Copy)]
pub struct LapsConfig {
    /// Total data-plane cores (paper: 16).
    pub n_cores: usize,
    /// Queue-length threshold above which a core counts as overloaded
    /// (`high_thresh` in Listing 1). Default 24 of the 32-descriptor
    /// queue.
    pub high_thresh: usize,
    /// How long a core must stay completely idle before its service marks
    /// it surplus (`idle_th`, §III-D). Expressed at simulation scale.
    pub idle_release: SimTime,
    /// Capacity of each service's migration table.
    pub migration_cap: usize,
    /// Packet drops a service tolerates before it escalates to
    /// `request_core()` even though its least-loaded core is below
    /// `high_thresh` (persistent skew that one-shot migration cannot
    /// repair signals that "the current allocation of cores to this
    /// service is not enough", §III-A).
    pub drop_request_threshold: u64,
    /// Minimum time between core gains for one service, and between core
    /// losses for one victim — damping so that transient spikes do not
    /// slosh cores back and forth (each transfer migrates a bucket's
    /// worth of flows on both sides).
    pub realloc_cooldown: SimTime,
    /// Aggressive-flow-detector configuration.
    pub afd: AfdConfig,
    /// Power-aware core parking; `None` (default) keeps all cores
    /// powered, as in the paper's evaluation.
    pub parking: Option<ParkConfig>,
}

impl Default for LapsConfig {
    fn default() -> Self {
        LapsConfig {
            n_cores: 16,
            high_thresh: 24,
            idle_release: SimTime::from_millis(5),
            migration_cap: 1024,
            drop_request_threshold: 24,
            realloc_cooldown: SimTime::from_millis(20),
            afd: AfdConfig::default(),
            parking: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = LapsConfig::default();
        assert_eq!(c.n_cores, 16);
        assert!(c.high_thresh <= 32);
        assert_eq!(c.afd.afc_entries, 16);
    }
}
