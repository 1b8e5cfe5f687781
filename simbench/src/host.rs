//! The host side of a run: who measured (manifest), what the process cost
//! (`/proc/self`), and which CPUs it was allowed to use.

use crate::json::escape;
use std::fs;
use std::process::Command;

/// Everything needed to tell whether two result files are comparable. A
/// number without its host is not comparable, so this goes into every
/// output (stdout summary and trace file).
#[derive(Clone, Debug)]
pub struct Manifest {
    /// Commit the checkout is at, read from `.git/HEAD` (`"unknown"`
    /// outside a git repository).
    pub git_rev: String,
    /// `rustc -V` of the toolchain on the path.
    pub rustc: String,
    /// `std::thread::available_parallelism` *before* any confinement.
    pub host_cpus: usize,
    /// `Cpus_allowed_list` of this process when the timed cells ran.
    pub cpus_allowed: String,
    /// The `--seed` the inputs were derived from.
    pub seed: u64,
    /// Simulated processors per cell.
    pub nprocs: usize,
    /// `"default"` or `"test"`.
    pub scale: &'static str,
    /// Passes over the cell list that were timed.
    pub passes: usize,
}

impl Manifest {
    /// The manifest as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"git_rev\": \"{}\", \"rustc\": \"{}\", \"host_cpus\": {}, \
             \"cpus_allowed_list\": \"{}\", \"seed\": {}, \"nprocs\": {}, \
             \"scale\": \"{}\", \"passes\": {}}}",
            escape(&self.git_rev),
            escape(&self.rustc),
            self.host_cpus,
            escape(&self.cpus_allowed),
            self.seed,
            self.nprocs,
            self.scale,
            self.passes
        )
    }
}

/// The commit `.git/HEAD` in the current directory points at.
pub fn git_rev() -> String {
    let Ok(head) = fs::read_to_string(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        // A branch: the loose ref file holds the commit; a packed ref
        // leaves only the branch name to report.
        Some(r) => fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| r.to_string()),
        None => head.to_string(),
    }
}

/// `rustc -V`, or `"unknown"` when no compiler is on the path.
pub fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// CPUs the OS reports for this process right now.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// One `Key:\tvalue` field of `/proc/self/status`.
fn status_field(key: &str) -> Option<String> {
    let s = fs::read_to_string("/proc/self/status").ok()?;
    s.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .map(|v| v.trim().to_string())
}

/// `Cpus_allowed_list` of this process (`"unknown"` off Linux).
pub fn cpus_allowed_list() -> String {
    status_field("Cpus_allowed_list").unwrap_or_else(|| "unknown".into())
}

/// Peak resident set (`VmHWM`) of this process in MiB; NaN off Linux.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// User + system CPU seconds of this process (all threads, including the
/// ones already joined), from `/proc/self/stat`; NaN off Linux.
pub fn cpu_s() -> f64 {
    // Linux exports these in clock ticks of USER_HZ, which is 100 on every
    // architecture this builds for.
    const USER_HZ: f64 = 100.0;
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // Field 2 (comm) may contain spaces; everything after its closing
    // parenthesis is space-separated, starting at field 3.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return f64::NAN;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    match (f.get(11), f.get(12)) {
        (Some(u), Some(s)) => match (u.parse::<f64>(), s.parse::<f64>()) {
            (Ok(u), Ok(s)) => (u + s) / USER_HZ,
            _ => f64::NAN,
        },
        _ => f64::NAN,
    }
}

/// The CPUs this process may run on, parsed from `Cpus_allowed_list`
/// (`"0-1,4"`); empty off Linux.
pub fn allowed_cpus() -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in cpus_allowed_list().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// Restrict the calling thread — and every thread it spawns from now on —
/// to `cpus`. Returns whether it worked (never off Linux).
///
/// Why the benchmark does this at all: the sequential engine runs exactly
/// one simulated processor at a time and hands the turn between OS threads
/// with a condvar. With two CPUs the OS is free to place those threads
/// apart, and every hand-off then pays a cross-CPU wake-up: the same cell
/// runs 3-4x slower, and flips between the two regimes within one process
/// (measured on the 2-CPU builder host, see README.md). No median over a
/// few seconds of work is steady across that, so sequential-engine work is
/// confined to one CPU; the fused engine, whose generation threads really
/// overlap, gets every CPU.
pub fn set_affinity(cpus: &[usize]) -> bool {
    // The C library std already links; no crate declares it for us.
    #[cfg(target_os = "linux")]
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // One bit per CPU, as the kernel's cpu_set_t: room for 1024 CPUs.
    let mut mask = [0u64; 16];
    for &cpu in cpus {
        let Some(word) = mask.get_mut(cpu / 64) else {
            return false;
        };
        *word |= 1 << (cpu % 64);
    }
    if mask == [0; 16] {
        return false;
    }
    #[cfg(target_os = "linux")]
    {
        // SAFETY: `mask` is a live, initialised buffer of exactly the size
        // passed, and the kernel only reads it. Pid 0 names the calling
        // thread; threads spawned later inherit its mask.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    false
}

/// Iterations of the calibration loop: about a millisecond.
const CALIBRATION_ITERS: u32 = 400_000;

/// What one calibration loop takes on the builder's host in its fast
/// regime. Only an anchor: it makes a speed factor of 1.0 mean "that host,
/// undisturbed", and cancels out of every comparison between two runs.
const CALIBRATION_NOMINAL_S: f64 = 0.001;

/// How slow this CPU is right now: the time of a fixed, cache-resident,
/// dependent chain of integer operations over its nominal time (1.0 =
/// nominal, 1.3 = 30% slower).
///
/// The builder's host (a 2-vCPU microVM) changes speed by 20-30% for tens
/// of seconds at a time, for every kind of code alike: a plain Python loop
/// and a simulator cell slow down by the same factor at the same moment.
/// Left in, that is a spread of 15-20% between otherwise identical runs,
/// wider than any bound worth setting. The timed regions are therefore
/// divided by the factor measured right around them.
pub fn speed_factor() -> f64 {
    // Best of three: a preemption makes one loop slow, never fast.
    let best = (0..3)
        .map(|_| {
            let t = std::time::Instant::now();
            let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15_u64);
            for _ in 0..CALIBRATION_ITERS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
            }
            std::hint::black_box(x);
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    best / CALIBRATION_NOMINAL_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(host_cpus() >= 1);
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb() > 0.0);
            assert!(cpu_s() >= 0.0);
            assert_ne!(cpus_allowed_list(), "unknown");
            assert!(!allowed_cpus().is_empty());
        }
    }

    #[test]
    fn manifest_json_parses_back() {
        let m = Manifest {
            git_rev: "abc".into(),
            rustc: "rustc 1.0 (\"quoted\")".into(),
            host_cpus: 2,
            cpus_allowed: "0-1".into(),
            seed: 7,
            nprocs: 16,
            scale: "test",
            passes: 3,
        };
        let v = crate::json::parse(&m.to_json()).expect("manifest is valid JSON");
        assert_eq!(v.get("seed").and_then(|s| s.as_f64()), Some(7.0));
        assert_eq!(
            v.get("rustc").and_then(|s| s.as_str()),
            Some("rustc 1.0 (\"quoted\")")
        );
    }
}
