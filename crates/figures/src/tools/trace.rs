//! trace — virtual-time protocol event trace of one application run.
//!
//! Runs one application cell with the event tracer on and renders the
//! result three ways:
//!
//!  * a Chrome `trace_event` JSON file (load it at <https://ui.perfetto.dev>
//!    or `chrome://tracing`): one track per simulated processor, phases and
//!    synchronization waits as nested durations, protocol events (page
//!    fetches, diffs, invalidations, remote misses) as instants, and lock
//!    handoffs as flow arrows from releaser to grantee;
//!  * an ASCII timeline on stdout (one row per processor);
//!  * per-processor log2 wait-latency histograms for page-fetch, lock-wait
//!    and barrier-wait — the paper's "where does the time go" question at
//!    event granularity.
//!
//! With `--json PATH`, additionally writes the per-proc and merged
//! wait-latency histogram buckets as machine-readable JSON (the same shape
//! `critpath --json` embeds).
//!
//! With `--compare-class`, runs a second optimization class of the same
//! application and prints both merged wait histograms side by side — e.g.
//! Ocean Orig vs DS, where data-structure reorganization shifts the
//! lock-wait and fetch distributions toward the cheap buckets.
//!
//! With `--metrics INTERVAL_CYCLES`, additionally runs the interval-metrics
//! engine and embeds its series as Perfetto counter tracks (`"ph":"C"`)
//! under the duration events: per-processor cycle-breakdown rates, hottest
//! pages, lock hand-offs.
//!
//! ```text
//! cargo run --release -p figures -- trace [--scale test|default|paper \
//!     --procs N --app ocean --class orig|pa|ds|alg --platform svm|tmk|dsm|smp \
//!     --out trace.json --json hists.json --compare-class ds --width 100 \
//!     --metrics 65536]
//! ```

use super::{phase_overflows, wait_hists_json, warn_phase_overflows};
use crate::cli::{self, Flags, Parsed};
use crate::experiments::Experiment;
use apps::OptClass;
use sim_core::RunStats;

pub const FLAGS: Flags = Flags {
    cell: true,
    values: &["--out", "--json", "--compare-class", "--width", "--metrics"],
    switches: &[],
};

fn run_traced(p: &Parsed, class: OptClass, metrics: u64) -> RunStats {
    let stats = p.run(p.app, class, p.platform, |c| {
        let c = c.with_trace();
        if metrics > 0 {
            c.with_metrics(metrics)
        } else {
            c
        }
    });
    assert!(stats.trace.is_some(), "tracing was requested");
    stats
}

pub fn run(e: &Experiment, p: &Parsed) -> Result<(), String> {
    let metrics: u64 = p.num("--metrics", 0)?;
    let compare = p
        .extra("--compare-class")
        .map(cli::parse_class)
        .transpose()
        .map_err(|e| format!("--compare-class: {e}"))?;
    let out_path = p.extra("--out").unwrap_or("trace.json");
    let width: usize = p.num("--width", 100)?;
    let classes: Vec<OptClass> = std::iter::once(p.class).chain(compare).collect();
    e.begin(p, &[p.app], &classes, &[p.platform])?;

    let stats = run_traced(p, p.class, metrics);
    let tr = stats.trace.as_ref().unwrap();
    println!(
        "captured {} events across {} processors ({} dropped), {} cycles",
        tr.total_events(),
        tr.procs.len(),
        tr.dropped_events(),
        tr.end()
    );
    warn_phase_overflows(phase_overflows(&stats));
    println!();
    print!("{}", tr.ascii_timeline(width));
    println!();
    print!("{}", tr.wait_report());

    std::fs::write(out_path, tr.to_chrome_json_with(stats.metrics.as_ref()))
        .expect("write trace json");
    eprintln!("[trace] wrote {out_path} — load it at https://ui.perfetto.dev");

    if let Some(json_path) = p.extra("--json") {
        let mut s = wait_hists_json(tr);
        s.push('\n');
        std::fs::write(json_path, s).expect("write wait-hist json");
        eprintln!("[trace] wrote {json_path}");
    }

    if let Some(cls2) = compare {
        let stats2 = run_traced(p, cls2, metrics);
        let tr2 = stats2.trace.as_ref().unwrap();
        let (f1, l1, b1) = tr.merged_hists();
        let (f2, l2, b2) = tr2.merged_hists();
        println!();
        println!(
            "comparison {} vs {} (merged across processors):",
            p.class.label(),
            cls2.label()
        );
        for (what, a, b) in [
            ("fetch", &f1, &f2),
            ("lock", &l1, &l2),
            ("barrier", &b1, &b2),
        ] {
            println!("  {:<8} {:>5}: [{}]", what, p.class.label(), a.summary());
            println!("  {:<8} {:>5}: [{}]", "", cls2.label(), b.summary());
            println!("  {:<8} {:>5}  {}", "", p.class.label(), a.dist_line());
            println!("  {:<8} {:>5}  {}", "", cls2.label(), b.dist_line());
        }
        warn_phase_overflows(phase_overflows(&stats2));
        let p2 = tr2.to_chrome_json_with(stats2.metrics.as_ref());
        let out2 = format!(
            "{}.{}.json",
            out_path.trim_end_matches(".json"),
            cls2.label().replace('/', "")
        );
        std::fs::write(&out2, p2).expect("write comparison trace json");
        eprintln!("[trace] wrote {out2}");
    }
    Ok(())
}
