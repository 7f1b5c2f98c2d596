//! Good fixture: the one module allowed to call the delay model — the
//! core model both backends share.

use detsim::SimTime;
use nptraffic::{DelayModel, ServiceKind};

pub struct CoreClock {
    delay: DelayModel,
    last_service: Option<ServiceKind>,
    vt: SimTime,
}

impl CoreClock {
    pub fn start(&mut self, at: SimTime, service: ServiceKind, size: u16, migrated: bool) -> SimTime {
        let cold = self.last_service != Some(service);
        self.last_service = Some(service);
        let d_us = self
            .delay
            .processing_delay_us(service, size, migrated, cold);
        let d = SimTime::from_micros_f64(d_us);
        self.vt = self.vt.max(at) + d;
        d
    }
}
