//! One run of one workload: set-up, timed passes, metrics.
//!
//! Everything here measures; nothing prints. `main.rs` turns the
//! [`Report`] into the summary, the trace file and the result line.

use crate::host::{self, Manifest};
use crate::ledger::{self, push, Metric, Sizes};
use crate::spans::Recorder;
use crate::workloads::{run_cell, Cell, Outcome, Params, SimTotals, Workload, NPROCS};
use crate::{json, median, selfcheck};
use apps::Scale;
use sim_core::Bucket;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Set-up is executed this many times per run; `setup_s` is the median.
const SETUPS: usize = 3;

/// Every cell is timed at least this many times, however short `--seconds`.
const MIN_PASSES: usize = 3;

/// A traced pass executes every cell twice (spans off, spans on) plus the
/// separable parts, and the ledger follows the passes: a traced run gets
/// half the seconds and one pass fewer, so that it ends about when an
/// untraced one does.
const TRACED_MIN_PASSES: usize = 2;

/// What to run.
pub struct RunOpts {
    pub seed: u64,
    /// Time budget of the timed passes.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
    pub scale: Scale,
    /// A fixed number of passes instead of the time budget.
    pub reps: Option<usize>,
}

/// Timings and the first result of one cell across the passes. All
/// seconds are divided by the host speed factor (see
/// [`host::speed_factor`]).
#[derive(Default)]
pub struct CellLog {
    /// Each untraced execution: what `host_s` is made of.
    pub plain: Vec<f64>,
    /// Each execution with span recording on.
    traced: Vec<f64>,
    /// The input generator alone (traced runs only).
    generate: Vec<f64>,
    /// The sequential reference alone (traced runs only).
    reference: Vec<f64>,
    /// Process CPU seconds summed over the untraced executions.
    cpu: f64,
    /// The first successful outcome; every later one must equal it.
    first: Option<Outcome>,
}

/// What a run measured.
pub struct Report {
    pub manifest: Manifest,
    pub cells: Vec<(Cell, CellLog)>,
    pub sim: SimTotals,
    /// End-to-end metrics of an untraced run, per-layer metrics of a
    /// traced one.
    pub metrics: Vec<Metric>,
    /// Cell executions, set-ups and ledger runs attempted ...
    pub attempted: u64,
    /// ... and how many of them failed: the issue's `fail_share`.
    pub failed: u64,
    /// One line per failure.
    pub notes: Vec<String>,
    /// Host speed factor around every timed region.
    pub factors: Vec<f64>,
    /// The spans of a traced run.
    pub spans: Recorder,
}

/// Counts and calibrates as the run goes.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    factors: Vec<f64>,
}

impl Tally {
    /// Wall seconds of `f`, divided by the host's speed factor measured
    /// right before and after it.
    fn timed<T>(&mut self, f: impl FnOnce() -> T) -> (f64, T) {
        let before = host::speed_factor();
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        let factor = (before + host::speed_factor()) / 2.0;
        self.factors.push(factor);
        (secs / factor, out)
    }

    fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Execute `cell` once under `catch_unwind` inside a `cell` span and check
/// the outcome against the cell's first. Returns whether the execution
/// counts as correct.
fn execute(
    cell: &Cell,
    params: &Params,
    log: &mut CellLog,
    rec: &mut Recorder,
    rep: usize,
) -> bool {
    let span = rec.enter(
        "cell",
        format!(
            "\"cell\": \"{}\", \"rep\": {rep}",
            json::escape(&cell.label())
        ),
    );
    let out = catch_unwind(AssertUnwindSafe(|| run_cell(cell, params)));
    rec.exit(span);
    match (out, &log.first) {
        (Err(_), _) => false,
        (Ok(o), Some(first)) => *first == o,
        (Ok(o), None) => {
            log.first = Some(o);
            true
        }
    }
}

/// Set-up, [`SETUPS`] times over so that its median is steady: derive the
/// inputs, re-prove the invariants the timings lean on, and run the first
/// cell once untimed so lazily initialised host state is warm. Returns the
/// inputs and the seconds of each set-up.
fn set_up(
    w: &Workload,
    o: &RunOpts,
    tally: &mut Tally,
    rec: &mut Recorder,
) -> (Vec<Params>, Vec<f64>) {
    let mut params = Vec::new();
    let mut secs = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let (s, bad) = tally.timed(|| {
            let span = rec.enter("setup", String::new());
            params = w
                .cells
                .iter()
                .enumerate()
                .map(|(i, c)| Params::derive(c.app, o.scale, o.seed, i))
                .collect();
            let mut bad = catch_unwind(|| selfcheck::run(o.seed))
                .unwrap_or_else(|_| vec!["self-check: an application failed verification".into()]);
            if catch_unwind(AssertUnwindSafe(|| run_cell(&w.cells[0], &params[0]))).is_err() {
                bad.push(format!("warm-up: {} failed", w.cells[0].label()));
            }
            rec.exit(span);
            bad
        });
        secs.push(s);
        tally.count(bad.is_empty());
        tally.notes.extend(bad);
    }
    (params, secs)
}

/// What [`timed_passes`] returns.
struct Passes {
    logs: Vec<CellLog>,
    count: usize,
    /// `VmHWM` when the first pass ended, i.e. after a fixed amount of work
    /// (three set-ups and one pass). Later passes only repeat that work,
    /// but the memory the allocator retains in its per-thread arenas keeps
    /// growing with their number (55 -> 100 MiB over 16 passes of
    /// `dense_bulk`), and that number depends on `--seconds` and the
    /// host's speed: the peak at exit is not a property of the workload.
    peak_rss_mb: f64,
}

/// Timed passes over the cell list until the budget is used up.
fn timed_passes(
    w: &Workload,
    o: &RunOpts,
    params: &[Params],
    tally: &mut Tally,
    rec: &mut Recorder,
) -> Passes {
    let mut logs: Vec<CellLog> = w.cells.iter().map(|_| CellLog::default()).collect();
    let mut peak_rss_mb = f64::NAN;
    let (min_passes, budget) = if o.trace {
        (TRACED_MIN_PASSES, o.seconds / 2.0)
    } else {
        (MIN_PASSES, o.seconds)
    };
    let started = Instant::now();
    let mut passes = 0;
    loop {
        let done = match o.reps {
            Some(r) => passes >= r,
            None => passes >= min_passes && started.elapsed().as_secs_f64() >= budget,
        };
        if done {
            return Passes {
                logs,
                count: passes,
                peak_rss_mb,
            };
        }
        for ((cell, p), log) in w.cells.iter().zip(params).zip(&mut logs) {
            rec.enabled = false;
            let cpu0 = host::cpu_s();
            let (secs, ok) = tally.timed(|| execute(cell, p, log, rec, passes));
            // Divided like the wall seconds, so the two stay comparable.
            log.cpu += (host::cpu_s() - cpu0) / tally.factors.last().copied().unwrap_or(1.0);
            log.plain.push(secs);
            tally.count(ok);
            if !o.trace {
                continue;
            }
            // The traced twin of the execution above, then the two parts
            // of it that can be called on their own.
            rec.enabled = true;
            let (secs, ok) = tally.timed(|| execute(cell, p, log, rec, passes));
            log.traced.push(secs);
            tally.count(ok);
            let key = format!("\"cell\": \"{}\"", json::escape(&cell.label()));
            let (secs, ()) = tally.timed(|| {
                let span = rec.enter("apps.generate", key.clone());
                p.generate();
                rec.exit(span);
            });
            log.generate.push(secs);
            let (secs, ()) = tally.timed(|| {
                let span = rec.enter("apps.reference", key);
                p.reference();
                rec.exit(span);
            });
            log.reference.push(secs);
        }
        passes += 1;
        if passes == 1 {
            peak_rss_mb = host::peak_rss_mb();
        }
    }
}

fn sum_of_medians(logs: &[CellLog], pick: fn(&CellLog) -> &Vec<f64>) -> f64 {
    logs.iter()
        .map(pick)
        .filter(|v| !v.is_empty())
        .map(|v| median(v))
        .sum()
}

/// The `sim.*` rows: exact counts of the simulated machine.
fn sim_rows(out: &mut Vec<Metric>, sim: &SimTotals) {
    let c = &sim.counters;
    for (name, unit, v) in [
        ("sim.cycles", "cycles", sim.cycles),
        ("sim.accesses", "count", c.accesses),
        ("sim.remote_fetches", "count", c.remote_fetches),
        ("sim.cache_misses", "count", c.cache_misses),
        ("sim.lock_acquires", "count", c.lock_acquires),
        ("sim.barriers", "count", c.barriers),
        ("sim.diffs_created", "count", c.diffs_created),
        ("sim.diffs_applied", "count", c.diffs_applied),
        ("sim.twins_created", "count", c.twins_created),
        ("sim.invalidations", "count", c.invalidations),
        ("sim.bytes_transferred", "bytes", c.bytes_transferred),
    ] {
        push(out, name, unit, v as f64);
    }
    for (name, bucket) in [
        ("sim.share_compute", Bucket::Compute),
        ("sim.share_data_wait", Bucket::DataWait),
        ("sim.share_lock_wait", Bucket::LockWait),
        ("sim.share_barrier_wait", Bucket::BarrierWait),
        ("sim.share_handler", Bucket::HandlerCompute),
        ("sim.share_cache_stall", Bucket::CacheStall),
    ] {
        push(out, name, "share", sim.share(bucket));
    }
}

/// Run `w` as `o` says. A sequential-engine workload first confines the
/// process to the first CPU it may use (see [`host::set_affinity`]).
pub fn run_workload(w: &Workload, o: &RunOpts) -> Report {
    let host_cpus = host::host_cpus();
    let cpus = host::allowed_cpus();
    let mut tally = Tally::default();
    if w.sequential && !host::set_affinity(&cpus[..cpus.len().min(1)]) {
        eprintln!(
            "simbench: could not confine the process to one CPU; \
             sequential-engine timings will flip between two regimes"
        );
    }

    let mut rec = Recorder::new(o.trace);
    let run_span = rec.enter("run", format!("\"workload\": \"{}\"", w.name));
    let (params, setup_secs) = set_up(w, o, &mut tally, &mut rec);
    let workload_span = rec.enter("workload", String::new());
    let Passes {
        logs,
        count: passes,
        peak_rss_mb,
    } = timed_passes(w, o, &params, &mut tally, &mut rec);
    rec.enabled = o.trace;
    rec.exit(workload_span);

    let manifest = Manifest {
        git_rev: host::git_rev(),
        rustc: host::rustc_version(),
        host_cpus,
        cpus_allowed: host::cpus_allowed_list(),
        seed: o.seed,
        nprocs: NPROCS,
        scale: match o.scale {
            Scale::Test => "test",
            _ => "default",
        },
        passes,
    };

    // Exact simulated counts, from each cell's first outcome.
    let mut sim = SimTotals::default();
    for (cell, log) in w.cells.iter().zip(&logs) {
        match &log.first {
            Some(first) => sim.add(&first.stats),
            None => tally
                .notes
                .push(format!("{}: never completed", cell.label())),
        }
    }
    let host_s = sum_of_medians(&logs, |l| &l.plain);
    let events = sim.events() as f64;

    let mut metrics = Vec::new();
    if !o.trace {
        push(&mut metrics, "host_s", "s", host_s);
        push(
            &mut metrics,
            "sim_events_per_host_s",
            "1/s",
            events / host_s,
        );
        push(&mut metrics, "peak_rss_mb", "MiB", peak_rss_mb);
        push(&mut metrics, "setup_s", "s", median(&setup_secs));
    } else {
        let traced_s = sum_of_medians(&logs, |l| &l.traced);
        let generate_s = sum_of_medians(&logs, |l| &l.generate);
        let reference_s = sum_of_medians(&logs, |l| &l.reference);
        push(&mut metrics, "apps.generate_s", "s", generate_s);
        push(&mut metrics, "apps.reference_s", "s", reference_s);
        let sim_s = traced_s - generate_s - reference_s;
        push(&mut metrics, "apps.sim_s", "s", sim_s);

        let span = rec.enter("ledger", String::new());
        let sizes = match o.scale {
            Scale::Test => Sizes::QUICK,
            _ => Sizes::FULL,
        };
        match catch_unwind(|| ledger::run(sizes, o.seed, &cpus)) {
            Ok(rows) => {
                metrics.extend(rows);
                tally.count(true);
            }
            Err(_) => {
                tally.count(false);
                tally.notes.push("ledger: a kernel failed".into());
            }
        }
        rec.exit(span);

        sim_rows(&mut metrics, &sim);
        let cpu_s: f64 = logs
            .iter()
            .filter(|l| !l.plain.is_empty())
            .map(|l| l.cpu / l.plain.len() as f64)
            .sum();
        push(&mut metrics, "proc.cpu_s", "s", cpu_s);
        let ns_per_event = host_s * 1e9 / events;
        push(&mut metrics, "cell.host_ns_per_event", "ns", ns_per_event);
        let overhead = traced_s / host_s;
        push(
            &mut metrics,
            "trace.bench_overhead_ratio",
            "ratio",
            overhead,
        );
    }
    rec.exit(run_span);

    // A metric that is not a number is a failed measurement.
    for m in &metrics {
        if !m.value.is_finite() {
            tally.failed += 1;
            tally.notes.push(format!("{}: not a finite number", m.name));
        }
    }

    Report {
        manifest,
        cells: w.cells.iter().copied().zip(logs).collect(),
        sim,
        metrics,
        attempted: tally.attempted,
        failed: tally.failed,
        notes: tally.notes,
        factors: tally.factors,
        spans: rec,
    }
}
