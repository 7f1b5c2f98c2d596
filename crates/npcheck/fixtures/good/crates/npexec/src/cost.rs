//! Good fixture: the worker charges through the shared core model, and
//! only its tests call the delay model (as an oracle).

use detsim::SimTime;
use npsim::CoreClock;
use nptraffic::ServiceKind;

pub struct Svc {
    clock: CoreClock,
    cold_starts: u64,
}

impl Svc {
    pub fn service(&mut self, at: SimTime, service: ServiceKind, size: u16, migrated: bool) {
        if self.clock.start(at, service, size, migrated, 0).cold {
            self.cold_starts += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use nptraffic::{DelayModel, ServiceKind};

    #[test]
    fn oracle() {
        let d = DelayModel::default().processing_delay_us(ServiceKind::IpForward, 64, false, true);
        assert!(d > 10.0);
    }
}
