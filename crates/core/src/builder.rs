//! `SimBuilder` — one front door for wiring simulations.
//!
//! Replaces the hand-rolled `EngineConfig { .. }` + scheduler `match` +
//! `Engine::new` boilerplate that every binary, example, and test used
//! to repeat:
//!
//! ```
//! use laps::SimBuilder;
//!
//! let report = SimBuilder::new()
//!     .cores(4)
//!     .duration_ms(5)
//!     .scale(1.0)
//!     .constant_source(
//!         nptraffic::ServiceKind::IpForward,
//!         nptrace::TracePreset::Auckland(1),
//!         2.0,
//!     )
//!     .run_named("fcfs")
//!     .expect("fcfs is a builtin policy");
//! assert_eq!(report.offered, report.dropped + report.processed);
//! ```
//!
//! Policies resolve by name through the [`SchedulerRegistry`]
//! (builtins plus anything the caller [`register`](SimBuilder::register)s),
//! or pass a concrete scheduler to [`run_with`](SimBuilder::run_with) to
//! keep static dispatch. Attach [`Probe`]s with
//! [`probe`](SimBuilder::probe); with none attached the runs take the
//! engine's zero-probe fast path.

use crate::registry::{BoxedScheduler, SchedulerRegistry};
use detsim::SimTime;
use npsim::{
    Engine, EngineConfig, Probe, ProbeStack, RateSpec, Scheduler, SimReport, SourceConfig,
};
use nptrace::TracePreset;
use nptraffic::{Scenario, ServiceKind};

/// Build the four Fig. 7 traffic sources for a Table VI scenario: one
/// per service, traces from the scenario's group, Holt-Winters rates
/// from its parameter set.
pub fn scenario_sources(scenario: Scenario) -> Vec<SourceConfig> {
    let traces = scenario.group.traces();
    ServiceKind::ALL
        .iter()
        .zip(traces.iter())
        .map(|(&service, &trace)| SourceConfig {
            service,
            trace,
            rate: RateSpec::HoltWinters(scenario.params.rate_model(service)),
        })
        .collect()
}

/// The error returned when a policy name is not in the registry.
#[derive(Debug)]
pub struct UnknownScheduler {
    /// The name that failed to resolve.
    pub name: String,
    /// Every name the registry knows, registration order.
    pub known: Vec<&'static str>,
}

impl std::fmt::Display for UnknownScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown scheduler {:?}; known: {}",
            self.name,
            self.known.join(", ")
        )
    }
}

impl std::error::Error for UnknownScheduler {}

/// Builder for a simulation run: engine configuration, traffic sources,
/// probes, and the policy registry.
#[derive(Default)]
pub struct SimBuilder {
    cfg: EngineConfig,
    sources: Vec<SourceConfig>,
    probes: ProbeStack,
    registry: SchedulerRegistry,
}

impl std::fmt::Debug for SimBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimBuilder")
            .field("cfg", &self.cfg)
            .field("sources", &self.sources)
            .field("probes", &self.probes.len())
            .field("registry", &self.registry)
            .finish()
    }
}

impl SimBuilder {
    /// Start from the default [`EngineConfig`], no sources, no probes,
    /// and the builtin policy registry.
    pub fn new() -> Self {
        SimBuilder::default()
    }

    /// Replace the whole engine configuration.
    pub fn config(mut self, cfg: EngineConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Edit the engine configuration in place (for the fields without a
    /// dedicated setter).
    pub fn configure(mut self, f: impl FnOnce(&mut EngineConfig)) -> Self {
        f(&mut self.cfg);
        self
    }

    /// Set the data-plane core count.
    pub fn cores(mut self, n: usize) -> Self {
        self.cfg.n_cores = n;
        self
    }

    /// Set the simulated horizon.
    pub fn duration(mut self, d: SimTime) -> Self {
        self.cfg.duration = d;
        self
    }

    /// Set the simulated horizon in milliseconds.
    pub fn duration_ms(self, ms: u64) -> Self {
        self.duration(SimTime::from_millis(ms))
    }

    /// Set the rate/time scale factor `F`.
    pub fn scale(mut self, scale: f64) -> Self {
        self.cfg.scale = scale;
        self
    }

    /// Set the root seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Attach a deterministic fault plan (see `npsim::FaultPlan`).
    pub fn faults(mut self, plan: npsim::FaultPlan) -> Self {
        self.cfg.faults = plan;
        self
    }

    /// Append one traffic source.
    pub fn source(mut self, source: SourceConfig) -> Self {
        self.sources.push(source);
        self
    }

    /// Append a constant-rate source (`rate` in Mpps at paper scale).
    pub fn constant_source(self, service: ServiceKind, trace: TracePreset, rate: f64) -> Self {
        self.source(SourceConfig {
            service,
            trace,
            rate: RateSpec::Constant(rate),
        })
    }

    /// Append the four sources of a Table VI scenario
    /// ([`scenario_sources`]).
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.sources.extend(scenario_sources(scenario));
        self
    }

    /// Replace the full source list.
    pub fn sources(mut self, sources: impl IntoIterator<Item = SourceConfig>) -> Self {
        self.sources = sources.into_iter().collect();
        self
    }

    /// Attach a probe to the observability bus (delivery order =
    /// attachment order).
    pub fn probe(mut self, probe: impl Probe + 'static) -> Self {
        self.probes.push(Box::new(probe));
        self
    }

    /// Register (or replace) a policy constructor in this builder's
    /// registry.
    pub fn register<F>(mut self, name: &'static str, ctor: F) -> Self
    where
        F: Fn(&EngineConfig) -> BoxedScheduler + Send + Sync + 'static,
    {
        self.registry.register(name, ctor);
        self
    }

    /// Replace the policy registry wholesale.
    pub fn registry(mut self, registry: SchedulerRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// The engine configuration as currently built (read access for
    /// callers that derive policy parameters from it).
    pub fn engine_config(&self) -> &EngineConfig {
        &self.cfg
    }

    fn resolve(&self, name: &str) -> Result<BoxedScheduler, UnknownScheduler> {
        self.registry
            .build(name, &self.cfg)
            .ok_or_else(|| UnknownScheduler {
                name: name.to_string(),
                known: self.registry.names().collect(),
            })
    }

    /// Run under the policy registered as `name` and return the report.
    ///
    /// With no probes attached this takes the engine's zero-probe fast
    /// path; with probes it publishes the full event stream (the report
    /// is byte-identical either way).
    pub fn run_named(self, name: &str) -> Result<SimReport, UnknownScheduler> {
        let scheduler = self.resolve(name)?;
        if self.probes.is_empty() {
            Ok(Engine::new(self.cfg, &self.sources, scheduler).run())
        } else {
            let (report, _sched, _probes) =
                Engine::with_probe_stack(self.cfg, &self.sources, scheduler, self.probes)
                    .run_full();
            Ok(report)
        }
    }

    /// Like [`SimBuilder::run_named`], but also hands back the probes
    /// with everything they accumulated.
    pub fn run_named_full(self, name: &str) -> Result<(SimReport, ProbeStack), UnknownScheduler> {
        let scheduler = self.resolve(name)?;
        let (report, _sched, probes) =
            Engine::with_probe_stack(self.cfg, &self.sources, scheduler, self.probes).run_full();
        Ok((report, probes))
    }

    /// Run under a concrete scheduler (static dispatch) and return the
    /// report.
    pub fn run_with<S: Scheduler>(self, scheduler: S) -> SimReport {
        if self.probes.is_empty() {
            Engine::new(self.cfg, &self.sources, scheduler).run()
        } else {
            Engine::with_probe_stack(self.cfg, &self.sources, scheduler, self.probes)
                .run_full()
                .0
        }
    }

    /// Like [`SimBuilder::run_with`], but hands back the scheduler (for
    /// policy-internal statistics). Takes the zero-probe fast path when
    /// no probes are attached.
    pub fn run_with_returning<S: Scheduler>(self, scheduler: S) -> (SimReport, S) {
        if self.probes.is_empty() {
            Engine::new(self.cfg, &self.sources, scheduler).run_returning_scheduler()
        } else {
            let (report, sched, _probes) =
                Engine::with_probe_stack(self.cfg, &self.sources, scheduler, self.probes)
                    .run_full();
            (report, sched)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npsim::MetricsProbe;

    fn base() -> SimBuilder {
        SimBuilder::new()
            .cores(4)
            .duration_ms(5)
            .scale(1.0)
            .seed(11)
            .constant_source(ServiceKind::IpForward, TracePreset::Auckland(1), 2.0)
    }

    #[test]
    fn named_and_typed_runs_agree() {
        let by_name = base().run_named("fcfs").expect("builtin");
        let typed = base().run_with(crate::Fcfs::new());
        assert_eq!(
            serde_json::to_string(&by_name).expect("serialize"),
            serde_json::to_string(&typed).expect("serialize"),
            "registry wiring must match hand wiring"
        );
    }

    #[test]
    fn unknown_name_lists_known_policies() {
        let err = base().run_named("bogus").expect_err("must fail");
        assert_eq!(err.name, "bogus");
        assert!(err.known.contains(&"laps"));
        assert!(err.to_string().contains("bogus"));
    }

    #[test]
    fn probes_ride_along_and_come_back() {
        let (report, probes) = base()
            .probe(MetricsProbe::new())
            .run_named_full("laps")
            .expect("builtin");
        let metrics = probes
            .first()
            .and_then(|p| p.as_any().downcast_ref::<MetricsProbe>())
            .expect("metrics probe returned");
        let arrivals = metrics
            .counters()
            .iter()
            .find(|(n, _)| *n == "arrivals")
            .map(|(_, v)| *v)
            .unwrap_or(0);
        assert_eq!(arrivals, report.offered);
    }

    #[test]
    fn scenario_sources_wire_services_to_group_traces() {
        let t3 = Scenario::by_id(3).expect("T3 exists");
        let sources = scenario_sources(t3);
        assert_eq!(sources.len(), 4);
        assert_eq!(
            sources.first().map(|s| s.service),
            Some(ServiceKind::VpnOut)
        );
        assert_eq!(
            sources.first().map(|s| s.trace.name()),
            Some("auck1".to_string())
        );
        assert_eq!(
            sources.last().map(|s| s.trace.name()),
            Some("auck4".to_string())
        );
    }
}
