//! The host: memory high-water mark, core count, CPU model, scratch
//! directories.

use std::path::{Path, PathBuf};

use crate::json::Value;

/// The package directory: results and scratch directories live under
/// it, so the benchmark writes only inside its checkout.
pub const PACKAGE_DIR: &str = env!("CARGO_MANIFEST_DIR");

/// `benchmark/results`.
pub fn results_dir() -> PathBuf {
    Path::new(PACKAGE_DIR).join("results")
}

fn proc_field(file: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(file).ok()?;
    text.lines()
        .find_map(|line| line.strip_prefix(key))
        .map(|rest| rest.trim_start_matches(':').trim().to_string())
}

/// The process's peak resident set in MB (`VmHWM`); `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let field = proc_field("/proc/self/status", "VmHWM")?;
    let kb: f64 = field.split_whitespace().next()?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Worker lanes handed to `admit_mc_batch`: every available core, at
/// most 4 (the harness is sized for a 2-core host).
pub fn workers() -> usize {
    nproc().min(4)
}

/// What a result must say about where it was measured.
pub fn describe() -> Value {
    let cpu = proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into());
    // The checkout the driver runs in is not a git repository.
    let rev = std::process::Command::new("git")
        .args(["-C", PACKAGE_DIR, "rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |rev| rev.trim().to_string());
    Value::object([
        ("nproc", Value::Num(nproc() as f64)),
        ("workers", Value::Num(workers() as f64)),
        ("cpu", Value::Str(cpu)),
        ("git_rev", Value::Str(rev)),
    ])
}

/// A scratch directory under `results/`, removed when dropped — also
/// when a check fails, because failures return instead of exiting.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `results/tmp-<pid>-<tag>`, emptied first.
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let path = results_dir().join(format!("tmp-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_dir_is_removed_on_drop() {
        let path = {
            let dir = ScratchDir::new("unit").unwrap();
            std::fs::write(dir.path().join("file"), b"x").unwrap();
            dir.path().to_path_buf()
        };
        assert!(!path.exists());
    }

    #[test]
    fn host_is_described() {
        assert!(nproc() >= 1 && workers() <= 4);
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().unwrap() > 0.0);
        }
        assert!(describe().get("cpu").is_some());
    }
}
