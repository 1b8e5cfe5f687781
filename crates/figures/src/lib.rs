//! # figures — the experiment harness
//!
//! One binary per figure/table of the paper (`fig02` … `fig17`, `table1`),
//! each of which re-runs the corresponding experiment on the simulated
//! platforms and prints the paper's series next to our measured values.
//!
//! ```text
//! cargo run --release -p figures --bin fig02 [-- --scale test|default|paper --procs N]
//! ```
//!
//! Shared functionality lives here: argument parsing, a baseline cache (the
//! paper's speedup metric divides by the uniprocessor time of the *original*
//! version on the same platform), breakdown-table rendering, and the figure
//! header format.

use apps::{App, AppSpec, OptClass, Platform, Scale};
use sim_core::{Bucket, RunStats, RunTrace};
use std::collections::HashMap;

pub mod cli;

/// Wait-latency histograms of a traced run as JSON: merged and per-proc
/// fetch/lock/barrier [`sim_core::WaitHist`] buckets. Shared by
/// `trace --json` and `critpath --json`.
pub fn wait_hists_json(tr: &RunTrace) -> String {
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

pub mod sweep {
    //! Parallel sweep driver: run independent simulation cells on a pool of
    //! host threads.
    //!
    //! Every cell of a figure sweep (one `app x class x platform x nprocs`
    //! simulation) is independent and deterministic, so cells can run
    //! concurrently on the host without changing any result. A simulated
    //! run executes all of its simulated processors, one at a time, on the
    //! host thread that called it, so each cell occupies one host core and
    //! the right pool size is the host's available parallelism.

    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Host threads a sweep may use (`available_parallelism`, floor 1).
    pub fn host_threads() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Apply `f` to every item on a scoped thread pool and return the
    /// results **in input order** (a work-index queue balances uneven cell
    /// costs across workers; output order is independent of scheduling).
    ///
    /// Panics in `f` propagate after all workers stop claiming new items.
    pub fn parallel_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
        let threads = host_threads().min(items.len());
        if threads <= 1 {
            return items.iter().map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
        out.resize_with(items.len(), || None);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        let mut got = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= items.len() {
                                break;
                            }
                            got.push((i, f(&items[i])));
                        }
                        got
                    })
                })
                .collect();
            for h in handles {
                for (i, r) in h.join().expect("sweep worker panicked") {
                    out[i] = Some(r);
                }
            }
        });
        out.into_iter()
            .map(|o| o.expect("every slot filled"))
            .collect()
    }
}

/// Command-line options shared by all figure binaries.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Problem scale preset.
    pub scale: Scale,
    /// Processor count for parallel runs (paper: 16).
    pub nprocs: usize,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            scale: Scale::Default,
            nprocs: 16,
        }
    }
}

/// Parse `--scale` and `--procs` from `std::env::args`.
pub fn parse_args() -> Opts {
    let mut opts = Opts::default();
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                opts.scale = match args.get(i).map(String::as_str) {
                    Some("test") => Scale::Test,
                    Some("default") => Scale::Default,
                    Some("paper") => Scale::Paper,
                    other => panic!("unknown scale {other:?} (test|default|paper)"),
                };
            }
            "--procs" => {
                i += 1;
                opts.nprocs = args[i].parse().expect("--procs N");
            }
            other => panic!("unknown argument {other}"),
        }
        i += 1;
    }
    opts
}

/// Runs experiments and caches uniprocessor baselines (one per
/// app × platform, always the `Orig` optimization class, per the paper's
/// speedup definition).
#[derive(Default)]
pub struct Runner {
    baselines: HashMap<(App, Platform), u64>,
    parallel: HashMap<(App, OptClass, Platform), RunStats>,
}

impl Runner {
    /// Fresh runner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Uniprocessor cycles of the original version (cached).
    pub fn baseline(&mut self, app: App, platform: Platform, opts: Opts) -> u64 {
        *self.baselines.entry((app, platform)).or_insert_with(|| {
            eprintln!(
                "  [baseline] {} on {} (1 proc)...",
                app.name(),
                platform.name()
            );
            AppSpec {
                app,
                class: OptClass::Orig,
            }
            .run(platform, 1, opts.scale)
            .total_cycles()
        })
    }

    /// Parallel run statistics (cached).
    pub fn parallel(
        &mut self,
        app: App,
        class: OptClass,
        platform: Platform,
        opts: Opts,
    ) -> &RunStats {
        self.parallel
            .entry((app, class, platform))
            .or_insert_with(|| {
                eprintln!(
                    "  [run] {} {} on {} ({} procs)...",
                    app.name(),
                    class.label(),
                    platform.name(),
                    opts.nprocs
                );
                AppSpec { app, class }.run(platform, opts.nprocs, opts.scale)
            })
    }

    /// Run every not-yet-cached cell of a sweep — plus the uniprocessor
    /// baselines its speedups will need — concurrently on the host thread
    /// pool (see [`sweep`]). Afterwards [`Runner::baseline`],
    /// [`Runner::parallel`] and [`Runner::speedup`] hit the cache. Results
    /// are identical to running the cells one by one.
    pub fn prefetch(&mut self, cells: &[(App, OptClass, Platform)], opts: Opts) {
        let mut jobs: Vec<(App, Option<OptClass>, Platform)> = Vec::new();
        for &(app, class, pf) in cells {
            let base = (app, None, pf);
            if !self.baselines.contains_key(&(app, pf)) && !jobs.contains(&base) {
                jobs.push(base);
            }
            let cell = (app, Some(class), pf);
            if !self.parallel.contains_key(&(app, class, pf)) && !jobs.contains(&cell) {
                jobs.push(cell);
            }
        }
        if jobs.is_empty() {
            return;
        }
        eprintln!(
            "  [sweep] {} cells on up to {} host threads...",
            jobs.len(),
            sweep::host_threads()
        );
        let results = sweep::parallel_map(&jobs, |&(app, class, pf)| match class {
            None => AppSpec {
                app,
                class: OptClass::Orig,
            }
            .run(pf, 1, opts.scale),
            Some(class) => AppSpec { app, class }.run(pf, opts.nprocs, opts.scale),
        });
        for ((app, class, pf), stats) in jobs.into_iter().zip(results) {
            match class {
                None => {
                    self.baselines.insert((app, pf), stats.total_cycles());
                }
                Some(class) => {
                    self.parallel.insert((app, class, pf), stats);
                }
            }
        }
    }

    /// Speedup per the paper's metric.
    pub fn speedup(&mut self, app: App, class: OptClass, platform: Platform, opts: Opts) -> f64 {
        let base = self.baseline(app, platform, opts);
        let t = self.parallel(app, class, platform, opts).total_cycles();
        base as f64 / t as f64
    }
}

/// Print the standard figure header.
pub fn header(fig: &str, caption: &str, paper_note: &str) {
    println!("==========================================================================");
    println!("{fig}: {caption}");
    println!("--------------------------------------------------------------------------");
    println!("Paper: {paper_note}");
    println!("==========================================================================");
}

/// Render a per-processor execution-time breakdown (the paper's stacked-bar
/// figures, as a table in cycles and percent).
pub fn breakdown_table(stats: &RunStats) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:>4} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
        "proc", "Compute", "DataWait", "LockWait", "BarrierWait", "Handler", "CacheStall", "Total"
    ));
    for (pid, p) in stats.procs.iter().enumerate() {
        s.push_str(&format!(
            "{:>4} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
            pid,
            p.get(Bucket::Compute),
            p.get(Bucket::DataWait),
            p.get(Bucket::LockWait),
            p.get(Bucket::BarrierWait),
            p.get(Bucket::HandlerCompute),
            p.get(Bucket::CacheStall),
            p.total(),
        ));
    }
    let n = stats.nprocs() as u64;
    let tot: u64 = stats.procs.iter().map(|p| p.total()).sum::<u64>().max(1);
    s.push_str("aggregate: ");
    for b in Bucket::ALL {
        s.push_str(&format!(
            "{}={:.1}% ",
            b.label(),
            100.0 * stats.sum(b) as f64 / tot as f64
        ));
    }
    s.push_str(&format!(
        "\nexecution time: {} cycles; mean utilization {:.1}%\n",
        stats.total_cycles(),
        100.0 * stats.sum(Bucket::Compute) as f64 / (n * stats.total_cycles()).max(1) as f64,
    ));
    s
}

/// Render one breakdown figure (figs 3-15): run the experiment and print
/// the table plus headline counters.
pub fn breakdown_figure(
    fig: &str,
    caption: &str,
    paper_note: &str,
    app: App,
    class: OptClass,
    platform: Platform,
) {
    let opts = parse_args();
    header(fig, caption, paper_note);
    let mut r = Runner::new();
    // Baseline and parallel run are independent cells: overlap them.
    r.prefetch(&[(app, class, platform)], opts);
    let base = r.baseline(app, platform, opts);
    let stats = r.parallel(app, class, platform, opts);
    println!("{}", breakdown_table(stats));
    let c = stats.sum_counters();
    println!(
        "counters: remote_fetches={} lock_acquires={} barriers={} diffs_created={} diffs_applied={} invalidations={}",
        c.remote_fetches, c.lock_acquires, c.barriers, c.diffs_created, c.diffs_applied, c.invalidations
    );
    println!(
        "speedup vs uniprocessor original: {:.2}",
        base as f64 / stats.total_cycles() as f64
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = sweep::parallel_map(&items, |&x| x * x);
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
        assert!(sweep::parallel_map(&Vec::<u64>::new(), |&x| x).is_empty());
    }

    #[test]
    fn prefetch_matches_serial_runs() {
        let opts = Opts {
            scale: Scale::Test,
            nprocs: 2,
        };
        let cells = [
            (App::Lu, OptClass::Orig, Platform::Svm),
            (App::Radix, OptClass::Algorithm, Platform::Smp),
        ];
        let mut swept = Runner::new();
        swept.prefetch(&cells, opts);
        let mut serial = Runner::new();
        for &(app, class, pf) in &cells {
            assert_eq!(
                swept.parallel(app, class, pf, opts),
                serial.parallel(app, class, pf, opts),
                "{app:?}/{class:?}/{pf:?}"
            );
            assert_eq!(
                swept.baseline(app, pf, opts),
                serial.baseline(app, pf, opts)
            );
        }
    }

    #[test]
    fn runner_caches_baselines() {
        let mut r = Runner::new();
        let opts = Opts {
            scale: Scale::Test,
            nprocs: 2,
        };
        let a = r.baseline(App::Radix, Platform::Smp, opts);
        let b = r.baseline(App::Radix, Platform::Smp, opts);
        assert_eq!(a, b);
        assert!(a > 0);
    }

    #[test]
    fn speedup_is_finite_and_positive() {
        let mut r = Runner::new();
        let opts = Opts {
            scale: Scale::Test,
            nprocs: 2,
        };
        let s = r.speedup(App::Lu, OptClass::DataStruct, Platform::Dsm, opts);
        assert!(s.is_finite() && s > 0.0, "speedup {s}");
    }

    #[test]
    fn breakdown_table_mentions_every_processor() {
        let mut r = Runner::new();
        let opts = Opts {
            scale: Scale::Test,
            nprocs: 4,
        };
        let stats = r.parallel(App::Ocean, OptClass::Algorithm, Platform::Svm, opts);
        let t = breakdown_table(stats);
        assert!(t.contains("\n   3 "), "table:\n{t}");
        assert!(t.contains("execution time"));
    }
}
