//! # figures — the experiment harness
//!
//! One binary, `figures <name> [flags]`, driven by one table
//! ([`experiments::TABLE`]): every figure and table of the paper
//! (`fig02` … `fig17`, `table1`), the studies beyond it (`protocols`,
//! `smp_nodes`, `kvstore`, the ablations) and the diagnostic report
//! (`report`: every diagnostic layer of a grid of cells) are rows of it.
//! Each re-runs its experiment on the simulated platforms and prints the
//! paper's series next to our measured values.
//!
//! ```text
//! cargo run --release -p figures -- fig02 [--scale test|default|paper --procs N]
//! ```
//!
//! Shared functionality lives here: the parallel sweep driver, a baseline
//! cache (the paper's speedup metric divides by the uniprocessor time of
//! the *original* version on the same platform) and breakdown-table
//! rendering. [`cli`] is the one argument parser.

use apps::{App, AppSpec, OptClass, Platform, Scale};
use sim_core::{Bucket, RunStats};
use std::collections::HashMap;

pub mod cli;
pub mod experiments;
mod report;

/// The four platform families, page-based first — what `--platform all`
/// selects ([`Platform::ALL`] is the paper's three).
pub const FAMILIES: [Platform; 4] = [Platform::Svm, Platform::Tmk, Platform::Dsm, Platform::Smp];

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

    /// [`parallel_map`] announced on stderr — how every experiment runs
    /// its independent cells.
    pub fn run<T: Sync, R: Send>(cells: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
        eprintln!(
            "  [sweep] {} cells on up to {} host threads...",
            cells.len(),
            host_threads()
        );
        parallel_map(cells, f)
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

/// One cell [`Runner`] runs: an application's parallel run in an
/// optimization class, or (`None`) its uniprocessor `Orig` baseline, on a
/// platform.
type Job = (App, Option<OptClass>, Platform);

/// Runs experiments at one scale and processor count and caches
/// uniprocessor baselines (one per app × platform, always the `Orig`
/// optimization class, per the paper's speedup definition).
pub struct Runner {
    scale: Scale,
    nprocs: usize,
    baselines: HashMap<(App, Platform), u64>,
    parallel: HashMap<(App, OptClass, Platform), RunStats>,
}

impl Runner {
    /// Fresh runner for `nprocs`-processor runs at `scale`.
    pub fn new(scale: Scale, nprocs: usize) -> Self {
        Self {
            scale,
            nprocs,
            baselines: HashMap::new(),
            parallel: HashMap::new(),
        }
    }

    /// Uniprocessor cycles of the original version (cached).
    pub fn baseline(&mut self, app: App, platform: Platform) -> u64 {
        if !self.baselines.contains_key(&(app, platform)) {
            self.run_jobs(vec![(app, None, platform)]);
        }
        self.baselines[&(app, platform)]
    }

    /// Parallel run statistics (cached).
    pub fn parallel(&mut self, app: App, class: OptClass, platform: Platform) -> &RunStats {
        if !self.parallel.contains_key(&(app, class, platform)) {
            self.run_jobs(vec![(app, Some(class), platform)]);
        }
        &self.parallel[&(app, class, platform)]
    }

    /// Run every not-yet-cached cell of a sweep — plus the uniprocessor
    /// baselines its speedups will need — concurrently on the host thread
    /// pool (see [`sweep`]). Afterwards [`Runner::baseline`],
    /// [`Runner::parallel`] and [`Runner::speedup`] hit the cache. Results
    /// are identical to running the cells one by one.
    pub fn prefetch(&mut self, cells: &[(App, OptClass, Platform)]) {
        let mut jobs: Vec<Job> = Vec::new();
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
        if !jobs.is_empty() {
            self.run_jobs(jobs);
        }
    }

    /// The one place cells run: each job on the sweep pool, its result
    /// cached.
    fn run_jobs(&mut self, jobs: Vec<Job>) {
        let (scale, nprocs) = (self.scale, self.nprocs);
        let results = sweep::run(&jobs, |&(app, class, pf)| match class {
            None => AppSpec {
                app,
                class: OptClass::Orig,
            }
            .run(pf, 1, scale),
            Some(class) => AppSpec { app, class }.run(pf, nprocs, scale),
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
    pub fn speedup(&mut self, app: App, class: OptClass, platform: Platform) -> f64 {
        let base = self.baseline(app, platform);
        let t = self.parallel(app, class, platform).total_cycles();
        base as f64 / t as f64
    }
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
        let cells = [
            (App::Lu, OptClass::Orig, Platform::Svm),
            (App::Radix, OptClass::Algorithm, Platform::Smp),
        ];
        let mut swept = Runner::new(Scale::Test, 2);
        swept.prefetch(&cells);
        let mut serial = Runner::new(Scale::Test, 2);
        for &(app, class, pf) in &cells {
            assert_eq!(
                swept.parallel(app, class, pf),
                serial.parallel(app, class, pf),
                "{app:?}/{class:?}/{pf:?}"
            );
            assert_eq!(swept.baseline(app, pf), serial.baseline(app, pf));
        }
    }

    #[test]
    fn runner_caches_baselines() {
        let mut r = Runner::new(Scale::Test, 2);
        let a = r.baseline(App::Radix, Platform::Smp);
        let b = r.baseline(App::Radix, Platform::Smp);
        assert_eq!(a, b);
        assert!(a > 0);
    }

    #[test]
    fn speedup_is_finite_and_positive() {
        let mut r = Runner::new(Scale::Test, 2);
        let s = r.speedup(App::Lu, OptClass::DataStruct, Platform::Dsm);
        assert!(s.is_finite() && s > 0.0, "speedup {s}");
    }

    #[test]
    fn breakdown_table_mentions_every_processor() {
        let mut r = Runner::new(Scale::Test, 4);
        let stats = r.parallel(App::Ocean, OptClass::Algorithm, Platform::Svm);
        let t = breakdown_table(stats);
        assert!(t.contains("\n   3 "), "table:\n{t}");
        assert!(t.contains("execution time"));
    }
}
