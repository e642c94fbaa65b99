//! Host and provenance lines printed with every result, and the
//! process's peak memory.
#![forbid(unsafe_code)]

use std::path::Path;
use std::process::Command;

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

fn rustc_version() -> Option<String> {
    let out = Command::new("rustc").arg("-V").output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The commit of the checkout in the working directory, read from
/// `.git` without running git; a benchmark checkout often has none.
fn git_commit() -> Option<String> {
    let head = read_trimmed(".git/HEAD")?;
    match head.strip_prefix("ref: ") {
        Some(reference) => read_trimmed(&format!(".git/{reference}")),
        None => Some(head),
    }
}

/// The filesystem type of the mount holding `path`.
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, kind) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount).then_some((mount.len(), kind))
        })
        .max_by_key(|&(len, _)| len)
        .map_or("unknown".to_string(), |(_, kind)| kind.to_string())
}

/// `VmHWM` of this process in megabytes; zero where `/proc` has none.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user + system, every thread) this process has used, from
/// `/proc/self/stat`, whose clock ticks are hundredths of a second.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after ")".
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|field| field.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// One line per fact about where and from what the result was measured.
pub fn provenance(scratch: &Path) -> Vec<String> {
    let unknown = || "unknown".to_string();
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    vec![
        format!(
            "host: nproc {nproc}, cpu {}",
            cpu_model().unwrap_or_else(unknown)
        ),
        format!(
            "host: kernel {}",
            read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(unknown)
        ),
        format!(
            "host: scratch {} on {}",
            scratch.display(),
            filesystem_of(scratch)
        ),
        format!("build: {}", rustc_version().unwrap_or_else(unknown)),
        format!("build: git commit {}", git_commit().unwrap_or_else(unknown)),
        "flush policy: epoch-cut marker and seal record fsynced, batch records not".to_string(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_root_filesystem_has_a_type_and_memory_is_measured() {
        assert_ne!(filesystem_of(Path::new("/")), "unknown");
        assert_eq!(filesystem_of(Path::new("/no/such/path")), "unknown");
        assert!(peak_rss_mb() > 0.0);
        let before = cpu_seconds();
        let started = std::time::Instant::now();
        while started.elapsed().as_millis() < 60 {
            std::hint::black_box(started.elapsed());
        }
        assert!(cpu_seconds() > before, "a 60 ms spin is at least one tick");
    }
}
