//! metrics — virtual-time interval metrics of one application cell.
//!
//! Runs one application cell with the interval-metrics engine on
//! ([`sim_core::RunConfig::with_metrics`]) and renders the time-series the
//! whole-run diagnostics only total: per-processor cycle-breakdown
//! sparklines over virtual time, the hottest pages with their sharing
//! *trajectory* (read-shared / single-writer / migratory / steady-false /
//! steady-true / phase-shifting), per-lock hand-off rates, and named
//! application event counters (e.g. KV requests served). Metrics are
//! invisible: the run's `RunStats` is bit-identical to the metrics-off run
//! apart from the report itself (asserted in `tests/metrics.rs`).
//!
//! ```text
//! cargo run --release -p figures -- metrics [--scale test|default|paper \
//!     --procs N --app ocean --class orig|pa|ds|alg --platform svm|tmk|dsm|smp \
//!     --interval CYCLES --cap N --pages N --width W --json PATH]
//! ```

use super::{phase_overflows, warn_phase_overflows};
use crate::cli::{Flags, Parsed};
use crate::experiments::Experiment;
use sim_core::metrics::{sparkline, DEFAULT_INTERVAL, DEFAULT_SERIES_CAP};
use sim_core::{MetricsReport, ProcSample};

pub const FLAGS: Flags = Flags {
    cell: true,
    values: &["--interval", "--cap", "--pages", "--width", "--json"],
    switches: &[],
};

/// Per-interval deltas of one cumulative field across consecutive samples.
fn deltas(samples: &[ProcSample], f: impl Fn(&ProcSample) -> u64) -> Vec<u64> {
    samples
        .windows(2)
        .map(|w| f(&w[1]).saturating_sub(f(&w[0])))
        .collect()
}

/// Scatter `(interval, value)` points onto the dense 0..=max_iv grid.
fn dense(max_iv: u64, pts: impl IntoIterator<Item = (u64, u64)>) -> Vec<u64> {
    let mut v = vec![0u64; (max_iv + 1) as usize];
    for (iv, n) in pts {
        v[iv as usize] += n;
    }
    v
}

fn print_report(m: &MetricsReport, npages: usize, width: usize) {
    let max_iv = m.max_interval();
    println!(
        "sampling interval {} cycles, {} intervals, {} samples/bins dropped",
        m.interval,
        max_iv + 1,
        m.total_dropped()
    );
    println!();

    println!("per-processor cycles per interval (deltas of cumulative samples):");
    for (pid, p) in m.procs.iter().enumerate() {
        let compute = deltas(&p.samples, |s| s.compute);
        let wait = deltas(&p.samples, |s| s.data_wait + s.lock_wait + s.barrier_wait);
        let last = p.samples.last().copied().unwrap_or_default();
        let total = (last.compute + last.data_wait + last.lock_wait + last.barrier_wait).max(1);
        println!(
            "  proc {pid:>2}  compute {}  wait {}  \
             (compute {:.0}%, data {:.0}%, lock {:.0}%, barrier {:.0}%, {} fetches)",
            sparkline(&compute, width),
            sparkline(&wait, width),
            100.0 * last.compute as f64 / total as f64,
            100.0 * last.data_wait as f64 / total as f64,
            100.0 * last.lock_wait as f64 / total as f64,
            100.0 * last.barrier_wait as f64 / total as f64,
            last.remote_fetches,
        );
    }

    if !m.pages.is_empty() {
        let mut hot: Vec<&sim_core::PageSeries> = m.pages.iter().collect();
        hot.sort_by_key(|p| {
            (
                std::cmp::Reverse(p.total_diff_words() + p.total_fetches()),
                p.page_base,
            )
        });
        println!();
        println!(
            "hottest pages/lines by protocol activity ({} of {}, {} more dropped at the cap):",
            hot.len().min(npages),
            m.pages.len(),
            m.pages_dropped
        );
        println!(
            "  {:<12} {:<14} {:<14} {:>7} {:>8} {:>8} {:>6}  activity",
            "page", "label", "trajectory", "writers", "fetches", "diffw", "inval"
        );
        for p in hot.into_iter().take(npages) {
            let act = dense(
                max_iv,
                p.intervals
                    .iter()
                    .map(|i| (i.interval, i.fetches + i.diff_words)),
            );
            println!(
                "  {:<#12x} {:<14} {:<14} {:>7} {:>8} {:>8} {:>6}  {}",
                p.page_base,
                if p.label.is_empty() { "-" } else { p.label },
                p.trajectory.label(),
                p.writers.len(),
                p.total_fetches(),
                p.total_diff_words(),
                p.intervals.iter().map(|i| i.invalidations).sum::<u64>(),
                sparkline(&act, width),
            );
        }
    }

    if !m.locks.is_empty() {
        let mut locks: Vec<&sim_core::LockSeries> = m.locks.iter().collect();
        locks.sort_by_key(|l| (std::cmp::Reverse(l.total()), l.lock));
        println!();
        println!(
            "busiest locks by hand-offs ({} of {}, {} more dropped at the cap):",
            locks.len().min(npages),
            m.locks.len(),
            m.locks_dropped
        );
        for l in locks.into_iter().take(npages) {
            let v = dense(max_iv, l.intervals.iter().copied());
            println!(
                "  lock {:>6}  total {:>8}  {}",
                l.lock,
                l.total(),
                sparkline(&v, width)
            );
        }
    }

    for e in &m.events {
        let v = dense(max_iv, e.procs.iter().flat_map(|p| p.iter().copied()));
        println!();
        println!(
            "event {:<16} total {:>10}  {}  (summed across processors)",
            e.name,
            e.total(),
            sparkline(&v, width)
        );
    }
}

pub fn run(e: &Experiment, p: &Parsed) -> Result<(), String> {
    let interval = p.period("--interval", DEFAULT_INTERVAL)?;
    let cap: usize = p.num("--cap", DEFAULT_SERIES_CAP)?;
    let npages: usize = p.num("--pages", 12)?;
    let width: usize = p.num("--width", 60)?;
    e.begin(p, &[p.app], &[p.class], &[p.platform])?;

    let stats = p.run(p.app, p.class, p.platform, |c| {
        c.with_metrics(interval).with_metrics_cap(cap)
    });
    let m = stats.metrics.as_ref().expect("metrics were requested");

    let overflows = phase_overflows(&stats);
    warn_phase_overflows(overflows);
    if overflows > 0 {
        println!();
    }

    print_report(m, npages, width);

    if let Some(path) = p.extra("--json") {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"app\": \"{}\",\n", p.app.name()));
        s.push_str(&format!("  \"class\": \"{}\",\n", p.class.label()));
        s.push_str(&format!("  \"platform\": \"{}\",\n", p.platform.name()));
        s.push_str(&format!("  \"nprocs\": {},\n", p.nprocs));
        s.push_str(&format!("  \"phase_overflows\": {overflows},\n"));
        s.push_str("  \"metrics\": ");
        s.push_str(m.to_json().trim_end());
        s.push_str("\n}\n");
        std::fs::write(path, s).expect("write metrics json");
        eprintln!("[metrics] wrote {path}");
    }
    Ok(())
}
