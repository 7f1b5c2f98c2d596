//! Good fixture: the worker charges through the shared core model, and
//! only its tests call the delay model (as an oracle).

use detsim::SimTime;
use npsim::{CoreClock, ReportProbe, SimEvent};
use nptraffic::ServiceKind;

pub struct Svc {
    clock: CoreClock,
    report: ReportProbe,
}

impl Svc {
    pub fn service(&mut self, at: SimTime, service: ServiceKind, size: u16, migrated: bool) {
        let charge = self.clock.start(at, service, size, migrated, 0);
        self.report.observe(
            at,
            &SimEvent::ServiceStart {
                core: 0,
                service,
                cold: charge.cold,
                migrated,
                duration: charge.duration,
            },
        );
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
