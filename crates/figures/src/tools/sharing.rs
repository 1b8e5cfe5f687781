//! sharing — per-label true/false-sharing diagnostics across OptClasses.
//!
//! The paper's diagnosis method as a tool: run one application on a
//! page-based platform at every optimization class with the sharing
//! profiler on, and print, per allocation label, how much of the diff
//! traffic each restructuring step converted away from false sharing.
//! Page-grained coherence turns word-disjoint writes into false sharing
//! (§2.1); the P/A and DS classes exist to remove exactly that, and this
//! table shows them doing it.
//!
//! ```text
//! cargo run --release -p figures -- sharing [--scale test|default|paper \
//!     --procs N --app ocean --platform svm|tmk --json PATH]
//! ```

use crate::cli::{Flags, Parsed};
use crate::experiments::Experiment;
use crate::sweep;
use apps::{OptClass, Platform};
use sim_core::{MetricsReport, PageTrajectory, SharingProfile};
use std::fmt::Write as _;

pub const FLAGS: Flags = Flags {
    cell: true,
    values: &["--json"],
    switches: &[],
};

/// Two-letter trajectory code for the narrow per-class table cells.
fn code(t: PageTrajectory) -> &'static str {
    match t {
        PageTrajectory::ReadShared => "RS",
        PageTrajectory::SingleWriter => "1W",
        PageTrajectory::Migratory => "MG",
        PageTrajectory::SteadyFalse => "FS",
        PageTrajectory::SteadyTrue => "TS",
        PageTrajectory::PhaseShifting => "PH",
    }
}

pub fn run(e: &Experiment, p: &Parsed) -> Result<(), String> {
    let (nprocs, app, platform) = (p.nprocs, p.app, p.platform);
    if !matches!(platform, Platform::Svm | Platform::Tmk) {
        return Err(format!(
            "--platform {}: sharing profiles exist on page-based platforms only (svm|tmk)",
            platform.name().to_ascii_lowercase()
        ));
    }
    e.begin(p, &[app], &OptClass::ALL, &[platform])?;

    // The four class runs are independent deterministic cells.
    let profiles: Vec<(OptClass, SharingProfile, MetricsReport)> =
        sweep::run(&OptClass::ALL, |&class| {
            let stats = p.run(app, class, platform, |c| {
                c.with_sharing_profile()
                    .with_metrics(sim_core::metrics::DEFAULT_INTERVAL)
            });
            (
                class,
                stats.sharing.expect("page-based platform profiles"),
                stats.metrics.expect("metrics were requested"),
            )
        });

    for (class, prof, _) in &profiles {
        println!("--- {} ---", class.label());
        println!("{}", prof.report());
    }

    // Before/after summary: false-sharing share of diff traffic per label
    // with the interval-aware trajectory alongside, one column pair per
    // class. The union of labels is sorted so the table is deterministic
    // regardless of the order classes report them in.
    let mut labels: Vec<&'static str> = Vec::new();
    for (_, prof, _) in &profiles {
        for l in prof.labels() {
            if !labels.contains(&l.label) {
                labels.push(l.label);
            }
        }
    }
    labels.sort_unstable();
    println!("false-sharing share of diff words and dominant trajectory, by label and class");
    println!(
        "(RS read-shared, 1W single-writer, MG migratory, FS steady-false, \
         TS steady-true, PH phase-shifting):"
    );
    print!("{:<20}", "label");
    for (class, _, _) in &profiles {
        print!(" {:>13}", class.label());
    }
    println!();
    for &label in &labels {
        print!("{:<20}", if label.is_empty() { "-" } else { label });
        for (_, prof, metrics) in &profiles {
            let traj = metrics.label_trajectory(label).map(code).unwrap_or("--");
            match prof.label(label) {
                Some(l) => print!(" {:>9.1}% {traj}", 100.0 * l.false_share()),
                None => print!(" {:>10} {traj}", "-"),
            }
        }
        println!();
    }

    if let Some(path) = p.extra("--json") {
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"app\": \"{}\",", app.name());
        let _ = writeln!(json, "  \"platform\": \"{}\",", platform.name());
        let _ = writeln!(json, "  \"nprocs\": {nprocs},");
        json.push_str("  \"classes\": [\n");
        for (i, (class, prof, metrics)) in profiles.iter().enumerate() {
            let trajs: Vec<String> = labels
                .iter()
                .filter_map(|&l| {
                    metrics.label_trajectory(l).map(|t| {
                        format!(
                            "{{\"label\": \"{}\", \"trajectory\": \"{}\"}}",
                            l,
                            t.label()
                        )
                    })
                })
                .collect();
            let _ = writeln!(
                json,
                "    {{\"class\": \"{}\", \"trajectories\": [{}], \"profile\": {}}}{}",
                class.label(),
                trajs.join(", "),
                prof.to_json().trim_end(),
                if i + 1 < profiles.len() { "," } else { "" }
            );
        }
        json.push_str("  ]\n}\n");
        std::fs::write(path, &json).expect("write sharing json");
        eprintln!("[sharing] wrote {path}");
    }
    Ok(())
}
