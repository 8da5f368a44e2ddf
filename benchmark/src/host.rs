//! What the numbers were taken on: cores, pool workers, compiler, commit,
//! and the process's own peak resident set.

use serde::{Deserialize, Serialize};
use std::path::Path;

/// The recorded host and build of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostInfo {
    /// `std::thread::available_parallelism`.
    pub host_cores: usize,
    /// Workers of the default rayon pool (the harness never sets
    /// `MSR_THREADS`).
    pub pool_workers: usize,
    /// `rustc --version` of the compiler that built the harness.
    pub rustc: String,
    /// Commit of the checkout, or `"unknown"` outside a git repository.
    pub git_rev: String,
}

impl HostInfo {
    /// Probe the running process. `repo_root` is where `.git` is looked up.
    pub fn probe(repo_root: &Path) -> HostInfo {
        HostInfo {
            host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            pool_workers: rayon::current_num_threads(),
            rustc: env!("MSR_BENCHMARK_RUSTC").to_owned(),
            git_rev: git_rev(repo_root).unwrap_or_else(|| "unknown".to_owned()),
        }
    }
}

/// HEAD's commit, read from `.git` directly: the benchmark starts no
/// process it would have to wait for.
fn git_rev(repo_root: &Path) -> Option<String> {
    let git = repo_root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (rev, name) = line.split_once(' ')?;
        (name == reference).then(|| rev.to_owned())
    })
}

/// `VmHWM` of a `/proc/<pid>/status` text, in MB (kB ÷ 1024).
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value: f64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(value / 1024.0),
        _ => None,
    }
}

/// This process's peak resident set so far, MB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_parsed_from_status_text() {
        let status =
            "Name:\tmsr-benchmark\nVmPeak:\t  999999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(200.0));
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t 1024 kB\n"), None, "field absent");
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t lots kB\n"), None, "not a number");
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t 12 MB\n"), None, "unknown unit");
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0), "live process");
    }
}
