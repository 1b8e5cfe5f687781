//! critpath — virtual-time critical-path analyzer with what-if projection.
//!
//! Reconstructs the virtual-time execution DAG of one application from the
//! dependency edges the simulator records (lock handoffs, barrier releases,
//! page fetches, diffs, remote misses), extracts the critical path, and
//! attributes every cycle on it to {compute, lock wait, barrier imbalance,
//! page fetch, diff, remote miss} × phase × allocation label. This answers
//! the question the paper's aggregate breakdowns can only hint at: which
//! *dependences* — not just which buckets — bound the execution, and what
//! the upper-bound payoff of removing each one would be.
//!
//! Output:
//!  * a composition table over every optimization class × platform of the
//!    selected application (each cell re-analyzed from its own trace);
//!  * a detailed report for the selected `--class`/`--platform` cell
//!    (per-phase attribution and top critical resources);
//!  * with `--what-if`, ranked upper-bound speedup projections from
//!    re-evaluating the DAG with one cost category or one concrete
//!    resource (a single lock, barrier, or allocation) zeroed;
//!  * with `--json PATH`, all of the above machine-readable, plus the
//!    shared wait-latency histogram buckets.
//!
//! The reconstructed path length must equal the end-to-end virtual time in
//! every cell — the tool asserts this invariant unconditionally. With
//! `--strict` it additionally requires that no trace events or dependency
//! edges were dropped (CI runs this at test scale).
//!
//! ```text
//! cargo run --release -p figures -- critpath [--scale test|default|paper \
//!     --procs N --app ocean --class orig|pa|ds|alg --platform svm|tmk|dsm|smp \
//!     --what-if --top 8 --json BENCH_critpath.json --strict]
//! ```

use super::wait_hists_json;
use crate::cli::{self, Flags, Parsed};
use crate::experiments::Experiment;
use crate::{sweep, FAMILIES};
use apps::{OptClass, Platform};
use sim_core::critpath::{analyze, what_if_report, CritPath, PathCat};
use sim_core::RunTrace;
use std::fmt::Write as _;

pub const FLAGS: Flags = Flags {
    cell: true,
    values: &["--json", "--top"],
    switches: &["--what-if", "--strict"],
};

fn run_cell(p: &Parsed, class: OptClass, pf: Platform) -> (RunTrace, CritPath) {
    let stats = p.run(p.app, class, pf, |c| c.with_trace());
    let tr = stats.trace.expect("tracing was requested");
    let cp = analyze(&tr);
    // The defining invariant: the reconstructed path telescopes exactly to
    // the end-to-end virtual time, and the structural what-if baseline
    // (nothing zeroed) reproduces it.
    assert_eq!(
        cp.total,
        tr.end(),
        "critical-path length != end-to-end time for {}/{} on {}",
        p.app.name(),
        class.label(),
        pf.name()
    );
    assert_eq!(
        cp.baseline,
        tr.end(),
        "what-if baseline != end-to-end time for {}/{} on {}",
        p.app.name(),
        class.label(),
        pf.name()
    );
    (tr, cp)
}

pub fn run(e: &Experiment, p: &Parsed) -> Result<(), String> {
    let top: usize = p.num("--top", 8)?;
    e.begin(p, &[p.app], &OptClass::ALL, &FAMILIES)?;

    // Every class x platform cell is an independent deterministic run.
    let cells: Vec<(OptClass, Platform)> = OptClass::ALL
        .iter()
        .flat_map(|&c| FAMILIES.map(|pf| (c, pf)))
        .collect();
    let runs = sweep::run(&cells, |&(c, pf)| run_cell(p, c, pf));
    let analyzed: Vec<((OptClass, Platform), (RunTrace, CritPath))> =
        cells.into_iter().zip(runs).collect();

    let mut dropped_anywhere = 0u64;
    println!(
        "{:<6} {:<4} {:>12} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}  dominant",
        "class", "plat", "cycles", "comp%", "lock%", "barr%", "fetch%", "diff%", "miss%"
    );
    for ((class, pf), (tr, cp)) in &analyzed {
        dropped_anywhere += cp.edges_dropped + tr.dropped_events();
        println!(
            "{:<6} {:<4} {:>12} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}%  {}",
            class.label(),
            pf.name(),
            cp.total,
            100.0 * cp.share(PathCat::Compute),
            100.0 * cp.share(PathCat::LockWait),
            100.0 * cp.share(PathCat::BarrierImbalance),
            100.0 * cp.share(PathCat::PageFetch),
            100.0 * cp.share(PathCat::Diff),
            100.0 * cp.share(PathCat::RemoteMiss),
            cp.dominant().label()
        );
    }
    if dropped_anywhere > 0 {
        eprintln!("[critpath] warning: {dropped_anywhere} trace events/edges dropped (raise --procs caps or trace/edge capacity for exact attribution)");
        assert!(
            !p.has("--strict"),
            "--strict: {dropped_anywhere} dropped trace events/edges"
        );
    }

    // Detailed report + what-if for the selected cell.
    let (tr, cp) = &analyzed
        .iter()
        .find(|((c, pf), _)| *c == p.class && *pf == p.platform)
        .expect("selected cell swept")
        .1;
    println!();
    print!("{}", cp.report(tr, top));

    let projections = what_if_report(tr, cp, top);
    if p.has("--what-if") {
        println!();
        println!("what-if upper-bound speedups (one target zeroed on the DAG):");
        for pr in &projections {
            println!(
                "  {:<34} path {:>12} -> {:>12}  speedup <= {:.3}x",
                pr.target.describe(),
                pr.path_cycles,
                pr.projected,
                pr.speedup
            );
            assert!(
                pr.speedup >= 1.0,
                "zeroing a cost must never slow the DAG: {:?}",
                pr.target
            );
        }
    }

    if let Some(path) = p.extra("--json") {
        let mut j = String::from("{\n");
        let _ = writeln!(j, "  \"app\": \"{}\",", p.app.name());
        let _ = writeln!(j, "  \"nprocs\": {},", p.nprocs);
        let _ = writeln!(j, "  \"scale\": \"{}\",", cli::scale_name(p.scale));
        j.push_str("  \"cells\": [\n");
        for (i, ((class, pf), (tr, cp))) in analyzed.iter().enumerate() {
            let mut cats = String::new();
            for cat in PathCat::ALL {
                let _ = write!(
                    cats,
                    "{}\"{}\": {}",
                    if cats.is_empty() { "" } else { ", " },
                    cat.label(),
                    cp.by_cat[cat.index()]
                );
            }
            let _ = writeln!(
                j,
                "    {{\"class\": \"{}\", \"platform\": \"{}\", \"end\": {}, \"path\": {}, \
                 \"invariant_ok\": {}, \"edges\": {}, \"edges_dropped\": {}, \
                 \"events_dropped\": {}, \"dominant\": \"{}\", \"by_cat\": {{{}}}}}{}",
                class.label(),
                pf.name(),
                tr.end(),
                cp.total,
                cp.total == tr.end() && cp.baseline == tr.end(),
                cp.edges,
                cp.edges_dropped,
                tr.dropped_events(),
                cp.dominant().label(),
                cats,
                if i + 1 < analyzed.len() { "," } else { "" }
            );
        }
        j.push_str("  ],\n");
        j.push_str("  \"what_if\": [\n");
        for (i, pr) in projections.iter().enumerate() {
            let _ = writeln!(
                j,
                "    {{\"target\": \"{}\", \"path\": {}, \"projected\": {}, \"speedup\": {:.4}}}{}",
                pr.target.describe(),
                pr.path_cycles,
                pr.projected,
                pr.speedup,
                if i + 1 < projections.len() { "," } else { "" }
            );
        }
        j.push_str("  ],\n");
        let _ = writeln!(j, "  \"wait_hists\": {}", wait_hists_json(tr));
        j.push_str("}\n");
        std::fs::write(path, &j).expect("write critpath json");
        eprintln!("[critpath] wrote {path}");
    }
    Ok(())
}
