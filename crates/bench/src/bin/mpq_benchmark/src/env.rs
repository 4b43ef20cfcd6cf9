//! What the numbers were measured on, and the process-level counters
//! (`/proc`) behind `cpu_ms_per_op` and `peak_rss_mb`.

use crate::json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Everything under here is the benchmark's to create and delete. It is
/// relative: the benchmark is run from the root of a checkout, whose
/// `target/` is not tracked.
pub const OUT_DIR: &str = "target/mpq_benchmark";

pub fn work_dir() -> PathBuf {
    Path::new(OUT_DIR).join("work")
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Filesystem type of the mount holding `path`, from
/// `/proc/self/mountinfo` (longest mount-point prefix wins).
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    mounts
        .lines()
        .filter_map(|line| {
            // "... <mount point> <options> [tags] - <fstype> <source> ..."
            let (pre, post) = line.split_once(" - ")?;
            let mount_point = pre.split(' ').nth(4)?;
            let fstype = post.split(' ').next()?;
            path.starts_with(mount_point)
                .then_some((mount_point.len(), fstype))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs.to_string())
}

/// The environment block of a result file. `git` and `rustc` are asked
/// at run time; a checkout that is not a repository reports "unknown".
pub fn record() -> Value {
    Value::obj([
        ("nproc", Value::Num(nproc() as f64)),
        ("cpu_model", Value::str(cpu_model())),
        (
            "git_revision",
            Value::str(
                // Only when the working directory is itself a
                // repository: git would otherwise search its parents,
                // outside the checkout, and report someone else's HEAD.
                Path::new(".git")
                    .exists()
                    .then(|| command_line("git", &["rev-parse", "HEAD"]))
                    .flatten()
                    .unwrap_or_else(|| "unknown".into()),
            ),
        ),
        (
            "rustc",
            Value::str(command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
        ("os", Value::str(std::env::consts::OS)),
        ("arch", Value::str(std::env::consts::ARCH)),
    ])
}

/// User + system CPU time this process has used, in milliseconds.
pub fn process_cpu_ms() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, counted after the last ')'
    // because the command name may itself contain spaces.
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let ticks: f64 = [fields.next(), fields.next()]
        .into_iter()
        .map(|f| f.and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0))
        .sum();
    ticks * 1000.0 / clock_ticks_per_second()
}

fn clock_ticks_per_second() -> f64 {
    use std::sync::OnceLock;
    static TICKS: OnceLock<f64> = OnceLock::new();
    *TICKS.get_or_init(|| {
        // USER_HZ; 100 on every Linux this runs on, but ask anyway.
        command_line("getconf", &["CLK_TCK"])
            .and_then(|s| s.parse().ok())
            .unwrap_or(100.0)
    })
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Copies the regular files of `from` into a fresh `to` (data
/// directories are flat).
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.metadata()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_counters_read_something() {
        let before = process_cpu_ms();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_ms() >= before);
        assert!(peak_rss_mb() > 0.0);
        assert_ne!(filesystem_of(Path::new(".")), "");
    }
}
