//! Bad fixture: a worker that keeps its own copy of the core model.
//!
//! `single-cost-site` exists to catch this: the cold-start rule and the
//! Eq. 3 call written a second time, next to the shared `CoreClock`,
//! where a throttle or a rounding step can drift from the engine's.

use nptraffic::{DelayModel, ServiceKind};

pub struct Svc {
    delay: DelayModel,
    last_service: Option<ServiceKind>,
    busy_ns: u64,
}

impl Svc {
    pub fn service(&mut self, service: ServiceKind, size: u16, migrated: bool) {
        let cold = self.last_service != Some(service);
        self.last_service = Some(service);
        // A second cost site: the backends now charge two models.
        let d_us = self
            .delay
            .processing_delay_us(service, size, migrated, cold);
        self.busy_ns += (d_us * 1_000.0) as u64;
    }
}
