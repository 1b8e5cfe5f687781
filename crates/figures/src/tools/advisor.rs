//! advisor — ranked restructuring recommendations from fused diagnostics.
//!
//! Runs one application cell with all three diagnostic layers enabled
//! (sharing profile, event trace, interval metrics), fuses them through
//! [`sim_core::advisor`] into a label/phase-keyed model, and prints the
//! ranked recommendation report: which allocation to pad, which pages to
//! re-home, which lock to split or batch, which phase needs its traversal
//! restructured — each with the evidence it rests on and a critpath-derived
//! upper-bound speedup. This is the closed loop the paper's §6 asks for:
//! the diagnostics that guided the hand-written P/A → DS → Alg classes,
//! read by the runtime itself.
//!
//! Output:
//!  * a sweep over every application × platform at the selected `--class`
//!    (recommendation counts per tier and the top recommendation);
//!  * the full ranked report for the selected `--app`/`--platform` cell;
//!  * with `--json PATH`, the sweep (host seconds + per-tier counts per
//!    cell) and the selected cell's full report, machine-readable;
//!  * with `--strict`, every rule invariant is asserted in every cell:
//!    bounds `>= 1.0`, family bounds dominating their members, evidence
//!    non-empty, nothing dropped — and invisibility: each cell is re-run
//!    without the layers and the timed `RunStats` must be bit-identical.
//!
//! ```text
//! cargo run --release -p figures -- advisor [--scale test|default|paper \
//!     --procs N --app ocean --class orig|pa|ds|alg --platform svm|tmk|dsm|smp \
//!     --metrics INTERVAL_CYCLES --json BENCH_advisor.json --strict]
//! ```

use super::{phase_overflows, warn_phase_overflows};
use crate::cli::{Flags, Parsed};
use crate::experiments::Experiment;
use crate::{sweep, FAMILIES};
use apps::{App, Platform};
use sim_core::advisor::{advise, AdvisorReport};
use sim_core::{metrics, Family};
use std::fmt::Write as _;
use std::time::Instant;

pub const FLAGS: Flags = Flags {
    cell: true,
    values: &["--json", "--metrics"],
    switches: &["--strict"],
};

/// Assert every rule invariant the advisor promises.
fn check_invariants(rep: &AdvisorReport, what: &str) {
    for r in &rep.recs {
        assert!(r.speedup >= 1.0, "{what}: bound < 1.0 for {:?}", r.action);
        assert!(
            r.projected <= rep.end,
            "{what}: projection above the end for {:?}",
            r.action
        );
        assert!(
            r.path_cycles <= rep.end,
            "{what}: path cycles exceed the path for {:?}",
            r.action
        );
        assert!(
            !r.evidence.notes.is_empty(),
            "{what}: evidence-free recommendation {:?}",
            r.action
        );
        assert_eq!(
            r.family,
            r.action.family(),
            "{what}: family does not match the action"
        );
    }
    for f in &rep.families {
        assert!(f.speedup >= 1.0, "{what}: family bound < 1.0");
        // The union zeroes a superset of every member's edges, so the
        // family bound dominates each member's individual bound.
        for r in rep.recs.iter().filter(|r| r.family == f.family) {
            assert!(
                f.projected <= r.projected,
                "{what}: family {} bound does not dominate {:?}",
                f.family.label(),
                r.action
            );
        }
    }
}

struct Cell {
    app: App,
    pf: Platform,
    rep: AdvisorReport,
    host_secs: f64,
    dropped: u64,
    phase_overflows: u64,
}

impl Cell {
    /// Recommendations of one tier.
    fn count(&self, fam: Family) -> usize {
        self.rep.recs.iter().filter(|r| r.family == fam).count()
    }
}

pub fn run(e: &Experiment, p: &Parsed) -> Result<(), String> {
    let interval = p.period("--metrics", metrics::DEFAULT_INTERVAL)?;
    let strict = p.has("--strict");
    e.begin(p, &App::ALL, &[p.class], &FAMILIES)?;

    let cells: Vec<(App, Platform)> = App::ALL
        .iter()
        .flat_map(|&a| FAMILIES.map(|pf| (a, pf)))
        .collect();
    let analyzed: Vec<Cell> = sweep::run(&cells, |&(app, pf)| {
        let t0 = Instant::now();
        let stats = p.run(app, p.class, pf, |c| {
            c.with_sharing_profile().with_trace().with_metrics(interval)
        });
        let rep = advise(&stats);
        let host_secs = t0.elapsed().as_secs_f64();
        let what = format!("{}/{}", app.name(), pf.name());
        check_invariants(&rep, &what);
        let tr = stats.trace.as_ref().expect("trace was requested");
        let m = stats.metrics.as_ref().expect("metrics were requested");
        let dropped = tr.dropped_events() + tr.edges_dropped + m.total_dropped();
        let phase_overflows = phase_overflows(&stats);
        if strict {
            assert_eq!(dropped, 0, "--strict: {what} dropped diagnostics");
            // Invisibility: the advisor only reads reports other layers
            // produced; the timed run must be bit-identical without them.
            let mut layered = stats;
            layered.sharing = None;
            layered.trace = None;
            layered.metrics = None;
            let plain = p.run(app, p.class, pf, |c| c);
            assert_eq!(
                layered, plain,
                "--strict: {what} diagnostics perturbed the run"
            );
        }
        Cell {
            app,
            pf,
            rep,
            host_secs,
            dropped,
            phase_overflows,
        }
    });

    println!(
        "{:<7} {:<4} {:>12} {:>5} {:>5} {:>5} {:>5}  top recommendation",
        "app", "plat", "cycles", "recs", "P/A", "DS", "Alg"
    );
    let mut dropped_anywhere = 0u64;
    for c in &analyzed {
        dropped_anywhere += c.dropped;
        println!(
            "{:<7} {:<4} {:>12} {:>5} {:>5} {:>5} {:>5}  {}",
            c.app.name(),
            c.pf.name(),
            c.rep.end,
            c.rep.recs.len(),
            c.count(Family::PadAlign),
            c.count(Family::DataStruct),
            c.count(Family::Algorithm),
            c.rep
                .recs
                .first()
                .map(|r| format!("{:.2}x {}", r.speedup, r.action.describe()))
                .unwrap_or_else(|| "(none)".to_string())
        );
    }
    if dropped_anywhere > 0 {
        eprintln!(
            "[advisor] warning: {dropped_anywhere} diagnostics dropped at buffer \
             caps (evidence and bounds are conservative where attribution is \
             incomplete)"
        );
    }

    // Full ranked report for the selected cell.
    let sel = analyzed
        .iter()
        .find(|c| c.app == p.app && c.pf == p.platform)
        .expect("selected cell swept");
    println!();
    print!("{}", sel.rep.report());
    warn_phase_overflows(sel.phase_overflows);

    if let Some(path) = p.extra("--json") {
        let mut j = String::from("{\n");
        let _ = writeln!(j, "  \"class\": \"{}\",", p.class.label());
        let _ = writeln!(j, "  \"nprocs\": {},", p.nprocs);
        let _ = writeln!(j, "  \"metrics_interval\": {interval},");
        j.push_str("  \"cells\": [\n");
        for (i, c) in analyzed.iter().enumerate() {
            let mut fams = String::new();
            for fam in Family::ALL {
                let _ = write!(
                    fams,
                    "{}\"{}\": {}",
                    if fams.is_empty() { "" } else { ", " },
                    fam.label(),
                    c.count(fam)
                );
            }
            let _ = writeln!(
                j,
                "    {{\"app\": \"{}\", \"platform\": \"{}\", \"end\": {}, \
                 \"host_seconds\": {:.3}, \"recommendations\": {}, \
                 \"by_family\": {{{}}}, \"dropped\": {}}}{}",
                c.app.name(),
                c.pf.name(),
                c.rep.end,
                c.host_secs,
                c.rep.recs.len(),
                fams,
                c.dropped,
                if i + 1 < analyzed.len() { "," } else { "" }
            );
        }
        j.push_str("  ],\n");
        j.push_str("  \"selected\": ");
        j.push_str(sel.rep.to_json().trim_end());
        j.push_str("\n}\n");
        std::fs::write(path, &j).expect("write advisor json");
        eprintln!("[advisor] wrote {path}");
    }
    Ok(())
}
