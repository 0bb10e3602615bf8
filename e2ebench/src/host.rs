//! Host and build stamp, and the process's peak resident set.

use std::path::Path;

/// Where and how a result was produced.
#[derive(Debug, Clone)]
pub struct Stamp {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// CPU model from `/proc/cpuinfo` (`unknown` elsewhere).
    pub cpu: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: String,
    /// Cargo profile of the benchmark binary.
    pub profile: String,
    /// Git revision of the checkout (`unknown` outside a git clone).
    pub git_rev: String,
}

impl Stamp {
    /// Stamp for the current process, run from the checkout root `root`.
    pub fn collect(root: &Path) -> Stamp {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Stamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            rustc: env!("E2E_RUSTC_VERSION").to_string(),
            profile: env!("E2E_PROFILE").to_string(),
            git_rev: git_rev(root).unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

/// Resolve `HEAD` by reading `.git` directly (no subprocess).
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, name)| *name == reference)
        .map(|(rev, _)| rev.to_string())
}

/// Peak resident set of this process in MiB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
