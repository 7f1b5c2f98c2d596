//! Good fixture: each thread folds the events it sees into its own
//! `ReportProbe`, and the parts merge at join; only what no event
//! carries is set by hand.

use npsim::{ReportProbe, SimReport};

pub fn assemble(dispatcher: &ReportProbe, workers: &[ReportProbe], busy: Vec<u64>) -> SimReport {
    let mut fold = ReportProbe::default();
    fold.merge(dispatcher);
    for w in workers {
        fold.merge(w);
    }
    let mut report = fold.into_report();
    report.core_busy_ns = busy;
    if report.offered == report.processed + report.dropped {
        report.events = report.offered + report.processed;
    }
    report
}
