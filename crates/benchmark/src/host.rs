//! Where and how a result was produced: the host block of every report,
//! and the process CPU clock behind `cpu_us_per_round` / `bench.cpu_util`.

use std::process::Command;

use serde::{Deserialize, Serialize};

/// The machine and toolchain a result came from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Host {
    /// CPU model string from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Widest SIMD level the tensor kernels can dispatch to here.
    pub simd: String,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_revision: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.trim().to_string()).filter(|s| !s.is_empty())
}

fn simd_level() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512f";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
        "sse2"
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "scalar"
    }
}

/// Number of hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

impl Host {
    /// Inspects the current machine.
    pub fn detect() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            cpu_model,
            nproc: nproc(),
            simd: simd_level().into(),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            git_revision: command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// Kernel clock ticks per second for `/proc/self/stat` (`USER_HZ`, 100 on
/// every Linux the toolchain targets).
const TICKS_PER_SECOND: f64 = 100.0;

/// CPU seconds (user + system) this process has consumed, all threads
/// included, live or joined. `None` where `/proc` is unavailable.
pub fn process_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis. utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SECOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let Some(before) = process_cpu_seconds() else {
            return; // no /proc on this platform
        };
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let after = process_cpu_seconds().unwrap();
        assert!(after > before, "{before} -> {after}");
    }

    #[test]
    fn host_block_is_filled() {
        let h = Host::detect();
        assert!(h.nproc >= 1);
        assert!(!h.simd.is_empty() && !h.cpu_model.is_empty());
    }
}
