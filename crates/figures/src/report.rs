//! report — every diagnostic layer of every selected cell, from one run
//! per cell.
//!
//! Each cell of the `--app` × `--class` × `--platform` grid (each one value
//! or `all`) runs once with the sharing profile, the event trace and the
//! interval metrics on. From that one `RunStats` each cell prints, in
//! order: the run summary and ASCII timeline; the wait-latency histograms;
//! the per-page and per-label sharing profile (SVM and TMK only); the
//! interval metrics; the critical path with its what-if projections; and
//! the advisor's ranked recommendations. A grid of more than one cell then
//! gets the cross-cell tables, keyed by the axes that vary: critical-path
//! composition, advisor counts with the top recommendation, and per
//! application and page-based platform, each label's false-sharing share
//! and trajectory by class.
//!
//! Every cell's path length equals its end-to-end time and no what-if
//! slows the DAG. `--strict` also asserts that nothing was dropped at a
//! cap, the advisor's rule invariants, and invisibility: each cell re-run
//! without the layers gives bit-identical `RunStats`. `--out` writes a
//! one-cell grid's Chrome `trace_event` JSON, metrics as counter tracks
//! (load it at <https://ui.perfetto.dev>); `--json` writes one envelope of
//! every cell's summary and each layer's JSON.
//!
//! ```text
//! cargo run --release -p figures -- report [--scale test|default|paper \
//!     --procs N --app NAME|all --class orig|pa|ds|alg|all \
//!     --platform svm|tmk|dsm|smp|all --interval CYCLES --top N \
//!     --out trace.json --json report.json --strict]
//! ```

use crate::cli::{self, Flags, Parsed};
use crate::experiments::Experiment;
use crate::sweep;
use apps::{App, OptClass, Platform};
use sim_core::advisor::{advise, AdvisorReport};
use sim_core::critpath::{analyze, what_if_report, PathCat};
use sim_core::metrics::{sparkline, DEFAULT_INTERVAL};
use sim_core::util::json_rows;
use sim_core::{
    Family, MetricsReport, PageTrajectory, ProcSample, RunTrace, SharingProfile, WaitHist,
};
use std::fmt::Write as _;
use std::time::Instant;

pub const FLAGS: Flags = Flags {
    cell: true,
    values: &["--out", "--json", "--interval", "--top"],
    switches: &["--strict"],
};

/// Columns of the ASCII timeline.
const TIMELINE_WIDTH: usize = 100;
/// Columns of a metrics sparkline.
const SPARK_WIDTH: usize = 60;
/// Hottest pages, and busiest locks, the metrics section lists.
const HOT_PAGES: usize = 12;

/// The flags a cell run reads.
struct Opts<'a> {
    interval: u64,
    top: usize,
    strict: bool,
    out: Option<&'a str>,
    json: bool,
}

/// One cell, rendered: what is left of it once its trace is dropped.
struct Cell {
    app: App,
    class: OptClass,
    pf: Platform,
    /// The per-cell sections.
    text: String,
    /// Its element of the envelope's `cells` array (empty without
    /// `--json`: a metrics series alone can run to megabytes).
    json: String,
    /// Its row of the critical-path composition table, after the key.
    composition: String,
    /// Its row of the advisor table, after the key.
    advice: String,
    /// Sharing profile and metrics of a page-based cell, for the label
    /// table across classes.
    sharing: Option<(SharingProfile, MetricsReport)>,
}

pub fn run(e: &Experiment, p: &Parsed) -> Result<(), String> {
    let opts = Opts {
        interval: p.period("--interval", DEFAULT_INTERVAL)?,
        top: p.num("--top", 8)?,
        strict: p.has("--strict"),
        out: p.extra("--out"),
        json: p.extra("--json").is_some(),
    };
    let mut grid = Vec::new();
    for &app in &p.apps {
        for &class in &p.classes {
            grid.extend(p.platforms.iter().map(|&pf| (app, class, pf)));
        }
    }
    let n = grid.len();
    if opts.out.is_some() && n > 1 {
        return Err(format!("--out: a Chrome trace holds one cell, not {n}"));
    }
    e.begin(p, &p.apps, &p.classes, &p.platforms)?;

    let cells = sweep::run(&grid, |&cell| run_cell(p, &opts, cell));
    for c in &cells {
        println!();
        print!("{}", c.text);
    }
    if cells.len() > 1 {
        print_tables(p, &cells);
    }
    if let Some(path) = p.extra("--json") {
        let mut j = String::from("{\n");
        let _ = writeln!(j, "  \"scale\": \"{}\",", cli::scale_name(p.scale));
        let _ = writeln!(j, "  \"nprocs\": {},", p.nprocs);
        let _ = writeln!(j, "  \"interval\": {},", opts.interval);
        j.push_str("  \"cells\": ");
        json_rows(&mut j, &cells, |j, c| j.push_str(&c.json));
        j.push_str("\n}\n");
        std::fs::write(path, j).expect("write the report envelope");
        eprintln!("[report] wrote {path}");
    }
    Ok(())
}

/// Run one cell with every layer on and render everything read from it.
fn run_cell(p: &Parsed, o: &Opts, (app, class, pf): (App, OptClass, Platform)) -> Cell {
    let what = format!("{}/{} on {}", app.name(), class.label(), pf.name());
    let t0 = Instant::now();
    let mut stats = p.run(app, class, pf, |c| {
        c.with_sharing_profile()
            .with_trace()
            .with_metrics(o.interval)
    });
    let rep = advise(&stats);
    let tr = stats.trace.take().expect("the trace was requested");
    let m = stats.metrics.take().expect("metrics were requested");
    // The hardware-coherent platforms have no pages: their profile is empty.
    let page_based = matches!(pf, Platform::Svm | Platform::Tmk);
    let sharing = stats.sharing.take().filter(|_| page_based);
    let cp = analyze(&tr);
    // The defining invariant: the reconstructed path telescopes exactly to
    // the end-to-end virtual time, and the structural what-if baseline
    // (nothing zeroed) reproduces it.
    assert_eq!(cp.total, tr.end(), "critical-path length != end for {what}");
    assert_eq!(cp.baseline, tr.end(), "what-if baseline != end for {what}");
    let what_ifs = what_if_report(&tr, &cp, o.top);
    let host_seconds = t0.elapsed().as_secs_f64();
    if let Some(pr) = what_ifs.iter().find(|pr| pr.speedup < 1.0) {
        panic!("{what}: zeroing a cost slowed the DAG: {pr:?}");
    }
    let dropped = tr.dropped_events() + m.total_dropped();
    if o.strict {
        assert_eq!(dropped, 0, "--strict: {what} dropped diagnostics");
        check_invariants(&rep, &what);
        // Invisibility: with its layers taken out, the run is the plain run.
        assert_eq!(
            stats,
            p.run(app, class, pf, |c| c),
            "--strict: {what}: the diagnostic layers perturbed the run"
        );
    }
    let overflows: u64 = stats.procs.iter().map(|q| q.phase_overflows()).sum();
    if let Some(path) = o.out {
        std::fs::write(path, tr.to_chrome_json_with(Some(&m))).expect("write the Chrome trace");
        eprintln!("[report] wrote {path} — load it at https://ui.perfetto.dev");
    }

    let mut s = String::new();
    let _ = writeln!(s, "=== {what}, {} processors ===", p.nprocs);
    let _ = writeln!(
        s,
        "captured {} events across {} processors ({} dropped), {} cycles",
        tr.total_events(),
        tr.procs.len(),
        tr.dropped_events(),
        tr.end()
    );
    if overflows > 0 {
        let _ = writeln!(
            s,
            "warning: {overflows} phase-attributed cycle updates overflowed the \
             phase table; per-phase breakdowns undercount (raise the phase cap \
             or set fewer phases)"
        );
    }
    s.push('\n');
    s.push_str(&tr.ascii_timeline(TIMELINE_WIDTH));
    s.push('\n');
    s.push_str(&tr.wait_report());
    if let Some(prof) = &sharing {
        s.push('\n');
        s.push_str(&prof.report());
    }
    s.push('\n');
    metrics_section(&mut s, &m);
    s.push('\n');
    s.push_str(&cp.report(&tr, o.top));
    s.push_str("\nwhat-if upper-bound speedups (one target zeroed on the DAG):\n");
    for pr in &what_ifs {
        let _ = writeln!(
            s,
            "  {:<34} path {:>12} -> {:>12}  speedup <= {:.3}x",
            pr.target.describe(),
            pr.path_cycles,
            pr.projected,
            pr.speedup
        );
    }
    s.push('\n');
    s.push_str(&rep.report());

    let mut composition = format!("{:>12}", cp.total);
    let mut by_cat = Vec::new();
    for cat in PathCat::ALL {
        let _ = write!(composition, " {:>7.1}%", 100.0 * cp.share(cat));
        by_cat.push(format!("\"{}\": {}", cat.label(), cp.by_cat[cat.index()]));
    }
    let _ = write!(composition, "  {}", cp.dominant().label());
    let count = |fam| rep.recs.iter().filter(|r| r.family == fam).count();
    let advice = format!(
        "{:>12} {:>5} {:>5} {:>5} {:>5}  {}",
        rep.end,
        rep.recs.len(),
        count(Family::PadAlign),
        count(Family::DataStruct),
        count(Family::Algorithm),
        rep.recs
            .first()
            .map(|r| format!("{:.2}x {}", r.speedup, r.action.describe()))
            .unwrap_or_else(|| "(none)".to_string())
    );

    let mut json = String::new();
    if o.json {
        let _ = writeln!(
            json,
            "{{\"app\": \"{}\", \"class\": \"{}\", \"platform\": \"{}\", \"end\": {}, \
             \"host_seconds\": {host_seconds:.3}, \"events\": {}, \"dropped\": {dropped}, \
             \"phase_overflows\": {overflows},",
            app.name(),
            class.label(),
            pf.name(),
            tr.end(),
            tr.total_events(),
        );
        let _ = writeln!(json, "     \"wait_hists\": {},", wait_hists_json(&tr));
        let _ = writeln!(
            json,
            "     \"critpath\": {{\"path\": {}, \"baseline\": {}, \"edges\": {}, \
             \"edges_dropped\": {}, \"dominant\": \"{}\", \"by_cat\": {{{}}}}},",
            cp.total,
            cp.baseline,
            cp.edges,
            cp.edges_dropped,
            cp.dominant().label(),
            by_cat.join(", ")
        );
        let sharing_json = sharing.as_ref().map(|s| s.to_json());
        let _ = writeln!(
            json,
            "     \"sharing\": {},",
            sharing_json.as_deref().map_or("null", str::trim_end)
        );
        let _ = writeln!(json, "     \"metrics\": {},", m.to_json().trim_end());
        let _ = write!(json, "     \"advisor\": {}}}", rep.to_json().trim_end());
    }

    Cell {
        app,
        class,
        pf,
        text: s,
        json,
        composition,
        advice,
        sharing: sharing.map(|prof| (prof, m)),
    }
}

/// Assert every rule invariant the advisor promises: bounds ≥ 1 and
/// within the run, evidence behind every recommendation, and each tier's
/// bound dominating its members' (the union zeroes a superset of their
/// stalls).
fn check_invariants(rep: &AdvisorReport, what: &str) {
    for r in &rep.recs {
        let ok = r.speedup >= 1.0
            && r.projected <= rep.end
            && r.path_cycles <= rep.end
            && !r.evidence.notes.is_empty()
            && r.family == r.action.family();
        assert!(ok, "{what}: broken recommendation {r:?}");
    }
    for f in &rep.families {
        let mut members = rep.recs.iter().filter(|r| r.family == f.family);
        let dominates = members.all(|r| f.projected <= r.projected);
        assert!(
            f.speedup >= 1.0 && dominates,
            "{what}: broken tier bound {f:?}"
        );
    }
}

/// The cross-cell tables of a grid of more than one cell.
fn print_tables(p: &Parsed, cells: &[Cell]) {
    // Key columns: the axes the grid varies, in grid order.
    let varies = [p.apps.len() > 1, p.classes.len() > 1, p.platforms.len() > 1];
    let key = |cols: [&str; 3]| {
        let mut k = String::new();
        for ((col, width), on) in cols.iter().zip([7, 6, 4]).zip(varies) {
            if on {
                let _ = write!(k, "{col:<width$} ");
            }
        }
        k
    };
    let cell_key = |c: &Cell| key([c.app.name(), c.class.label(), c.pf.name()]);
    let header = key(["app", "class", "plat"]);

    println!();
    println!("=== critical-path composition across cells ===");
    println!(
        "{header}{:>12} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}  dominant",
        "cycles", "comp%", "lock%", "barr%", "fetch%", "diff%", "miss%"
    );
    for c in cells {
        println!("{}{}", cell_key(c), c.composition);
    }

    println!();
    println!("=== advisor recommendations across cells ===");
    println!(
        "{header}{:>12} {:>5} {:>5} {:>5} {:>5}  top recommendation",
        "cycles", "recs", "P/A", "DS", "Alg"
    );
    for c in cells {
        println!("{}{}", cell_key(c), c.advice);
    }

    if p.classes.len() > 1 {
        for &app in &p.apps {
            for &pf in &p.platforms {
                let profiles: Vec<(OptClass, &SharingProfile, &MetricsReport)> = cells
                    .iter()
                    .filter(|c| c.app == app && c.pf == pf)
                    .filter_map(|c| c.sharing.as_ref().map(|(s, m)| (c.class, s, m)))
                    .collect();
                if !profiles.is_empty() {
                    println!();
                    println!(
                        "=== sharing by label across classes: {} on {} ===",
                        app.name(),
                        pf.name()
                    );
                    print_label_table(&profiles);
                }
            }
        }
    }
}

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

/// False-sharing share of diff traffic per label with the interval-aware
/// trajectory alongside, one column pair per class: how much each
/// restructuring step converted away from false sharing. The union of
/// labels is sorted so the table does not depend on the order classes
/// report them in.
fn print_label_table(profiles: &[(OptClass, &SharingProfile, &MetricsReport)]) {
    let mut labels: Vec<&'static str> = Vec::new();
    for (_, prof, _) in profiles {
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
    for (class, _, _) in profiles {
        print!(" {:>13}", class.label());
    }
    println!();
    for &label in &labels {
        print!("{:<20}", if label.is_empty() { "-" } else { label });
        for (_, prof, metrics) in profiles {
            let traj = metrics.label_trajectory(label).map(code).unwrap_or("--");
            match prof.label(label) {
                Some(l) => print!(" {:>9.1}% {traj}", 100.0 * l.false_share()),
                None => print!(" {:>10} {traj}", "-"),
            }
        }
        println!();
    }
}

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

/// The interval-metrics section: sparklines of what the whole-run
/// diagnostics only total.
fn metrics_section(s: &mut String, m: &MetricsReport) {
    let max_iv = m.max_interval();
    let _ = writeln!(
        s,
        "sampling interval {} cycles, {} intervals, {} samples/bins dropped",
        m.interval,
        max_iv + 1,
        m.total_dropped()
    );
    let _ = writeln!(s);

    let _ = writeln!(
        s,
        "per-processor cycles per interval (deltas of cumulative samples):"
    );
    for (pid, p) in m.procs.iter().enumerate() {
        let compute = deltas(&p.samples, |x| x.compute);
        let wait = deltas(&p.samples, |x| x.data_wait + x.lock_wait + x.barrier_wait);
        let last = p.samples.last().copied().unwrap_or_default();
        let total = (last.compute + last.data_wait + last.lock_wait + last.barrier_wait).max(1);
        let _ = writeln!(
            s,
            "  proc {pid:>2}  compute {}  wait {}  \
             (compute {:.0}%, data {:.0}%, lock {:.0}%, barrier {:.0}%, {} fetches)",
            sparkline(&compute, SPARK_WIDTH),
            sparkline(&wait, SPARK_WIDTH),
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
        let _ = writeln!(s);
        let _ = writeln!(
            s,
            "hottest pages/lines by protocol activity ({} of {}, {} more dropped at the cap):",
            hot.len().min(HOT_PAGES),
            m.pages.len(),
            m.pages_dropped
        );
        let _ = writeln!(
            s,
            "  {:<12} {:<14} {:<14} {:>7} {:>8} {:>8} {:>6}  activity",
            "page", "label", "trajectory", "writers", "fetches", "diffw", "inval"
        );
        for p in hot.into_iter().take(HOT_PAGES) {
            let act = dense(
                max_iv,
                p.intervals
                    .iter()
                    .map(|i| (i.interval, i.fetches + i.diff_words)),
            );
            let _ = writeln!(
                s,
                "  {:<#12x} {:<14} {:<14} {:>7} {:>8} {:>8} {:>6}  {}",
                p.page_base,
                if p.label.is_empty() { "-" } else { p.label },
                p.trajectory.label(),
                p.writers.len(),
                p.total_fetches(),
                p.total_diff_words(),
                p.intervals.iter().map(|i| i.invalidations).sum::<u64>(),
                sparkline(&act, SPARK_WIDTH),
            );
        }
    }

    if !m.locks.is_empty() {
        let mut locks: Vec<&sim_core::LockSeries> = m.locks.iter().collect();
        locks.sort_by_key(|l| (std::cmp::Reverse(l.total()), l.lock));
        let _ = writeln!(s);
        let _ = writeln!(
            s,
            "busiest locks by hand-offs ({} of {}, {} more dropped at the cap):",
            locks.len().min(HOT_PAGES),
            m.locks.len(),
            m.locks_dropped
        );
        for l in locks.into_iter().take(HOT_PAGES) {
            let v = dense(max_iv, l.intervals.iter().copied());
            let _ = writeln!(
                s,
                "  lock {:>6}  total {:>8}  {}",
                l.lock,
                l.total(),
                sparkline(&v, SPARK_WIDTH)
            );
        }
    }

    for e in &m.events {
        let v = dense(max_iv, e.procs.iter().flat_map(|p| p.iter().copied()));
        let _ = writeln!(s);
        let _ = writeln!(
            s,
            "event {:<16} total {:>10}  {}  (summed across processors)",
            e.name,
            e.total(),
            sparkline(&v, SPARK_WIDTH)
        );
    }
}

/// Wait-latency histograms of a traced run as JSON: merged and per-proc
/// fetch/lock/barrier [`sim_core::WaitHist`] buckets.
fn wait_hists_json(tr: &RunTrace) -> String {
    let triple = |f: &WaitHist, l: &WaitHist, b: &WaitHist| {
        let (f, l, b) = (f.to_json(), l.to_json(), b.to_json());
        format!("\"fetch\": {f}, \"lock\": {l}, \"barrier\": {b}")
    };
    let (f, l, b) = tr.merged_hists();
    let mut s = format!(
        "{{\n  \"merged\": {{{}}},\n  \"procs\": ",
        triple(&f, &l, &b)
    );
    json_rows(&mut s, tr.procs.iter().enumerate(), |s, (pid, p)| {
        let t = triple(&p.fetch_wait, &p.lock_wait, &p.barrier_wait);
        let _ = write!(s, "{{\"pid\": {pid}, {t}}}");
    });
    s.push_str("\n}");
    s
}
