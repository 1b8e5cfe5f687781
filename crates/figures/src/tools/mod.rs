//! The diagnostic tools — `sharing`, `trace`, `critpath`, `metrics`,
//! `advisor` — as rows of [`crate::experiments::TABLE`], and what more
//! than one of them prints.

use sim_core::{RunStats, RunTrace};

pub mod advisor;
pub mod critpath;
pub mod metrics;
pub mod sharing;
pub mod trace;

/// Wait-latency histograms of a traced run as JSON: merged and per-proc
/// fetch/lock/barrier [`sim_core::WaitHist`] buckets. Shared by
/// `trace --json` and `critpath --json`.
fn wait_hists_json(tr: &RunTrace) -> String {
    fn triple(f: &sim_core::WaitHist, l: &sim_core::WaitHist, b: &sim_core::WaitHist) -> String {
        format!(
            "\"fetch\": {}, \"lock\": {}, \"barrier\": {}",
            f.to_json(),
            l.to_json(),
            b.to_json()
        )
    }
    let (f, l, b) = tr.merged_hists();
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"merged\": {{{}}},\n", triple(&f, &l, &b)));
    s.push_str("  \"procs\": [\n");
    for (pid, p) in tr.procs.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"pid\": {}, {}}}{}\n",
            pid,
            triple(&p.fetch_wait, &p.lock_wait, &p.barrier_wait),
            if pid + 1 < tr.procs.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}");
    s
}

/// Phase-attributed cycle updates that overflowed the phase table in this
/// run (the totals stay exact; only the per-phase split undercounts).
fn phase_overflows(stats: &RunStats) -> u64 {
    stats.procs.iter().map(|q| q.phase_overflows()).sum()
}

/// Print the phase-table-overflow warning of `metrics`, `trace` and
/// `advisor`, if there is anything to warn about.
fn warn_phase_overflows(overflows: u64) {
    if overflows > 0 {
        println!(
            "warning: {overflows} phase-attributed cycle updates overflowed the \
             phase table; per-phase breakdowns undercount (raise the phase cap \
             or set fewer phases)"
        );
    }
}
