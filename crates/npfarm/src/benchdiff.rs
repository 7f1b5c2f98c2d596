//! The host fingerprint `npbench --all` stamps on its documents.
//!
//! The module path is historical: `npbench` imports
//! `npfarm::benchdiff::HostFingerprint` and is edited only by
//! benchmark-only PRs (ROADMAP item 2 owes the rename).

/// The machine a benchmark document was measured on, so a reader can
/// tell "the code got slower" apart from "a different machine ran the
/// bench": a number measured elsewhere cannot convict the code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostFingerprint {
    /// CPU model string (`model name` from `/proc/cpuinfo`).
    pub cpu_model: String,
    /// Logical core count visible to the process.
    pub cores: u64,
    /// `rustc --version` of the toolchain on the path.
    pub rustc: String,
}

impl HostFingerprint {
    /// Best-effort detection on the current machine. Each field falls
    /// back to `"unknown"` / `0` rather than erroring — a document with
    /// a partial fingerprint beats no fingerprint.
    pub fn detect() -> HostFingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let cores = std::thread::available_parallelism()
            .map(|n| n.get() as u64)
            .unwrap_or(0);
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        HostFingerprint {
            cpu_model,
            cores,
            rustc,
        }
    }

    /// One-line human rendering.
    pub fn describe(&self) -> String {
        format!("{} / {} cores / {}", self.cpu_model, self.cores, self.rustc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_fills_every_field() {
        let h = HostFingerprint::detect();
        assert!(!h.cpu_model.is_empty());
        assert!(!h.rustc.is_empty());
        assert!(!h.describe().contains('\n'));
    }
}
