//! Bad fixture: a backend that builds its report by hand.
//!
//! `single-report-fold` exists to catch this: the run's counters copied
//! onto `SimReport` field by field, a second definition of a drop or a
//! migrated packet next to `ReportProbe`'s, free to drift from it.

use npsim::SimReport;

pub struct Ledger {
    pub offered: u64,
    pub ring_drops: u64,
    pub crash_drops: u64,
    pub serviced: u64,
    pub moved_at_dispatch: u64,
}

pub fn assemble(report: &mut SimReport, ledger: &Ledger) {
    report.offered = ledger.offered;
    report.dropped = ledger.ring_drops + ledger.crash_drops;
    report.processed = ledger.serviced;
    // Counted at dispatch, where detsim counts at service start.
    report.migrated_packets += ledger.moved_at_dispatch;
}
