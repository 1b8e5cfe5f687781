//! The five workloads: which cells each runs, with what inputs, and the
//! one function that executes a cell.
//!
//! A *cell* is `App/Class on Platform` under one engine and one diagnostic
//! configuration. Cell lists are fixed; only the inputs depend on the seed.

use apps::{barnes, kvstore, lu, ocean, radix, raytrace, volrend};
use apps::{App, OptClass, Platform, Scale};
use sim_core::{Bucket, Counter, RunConfig, RunStats};
use std::hint::black_box;

/// Simulated processors per cell: the paper's machine.
pub const NPROCS: usize = 16;

/// Which execution engine a cell runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// The sequential scheduler (one OS thread per simulated processor,
    /// one running at a time).
    Seq,
    /// `with_shards(2)`: generation threads feeding the fused replay loop.
    Fused,
}

/// Which diagnostic layers a cell turns on, and the post-hoc analysis that
/// follows the run inside the timed region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Diag {
    /// None: the plain run every other workload uses.
    Off,
    /// Happens-before race detector.
    Races,
    /// Sharing profile + event trace + interval metrics, then
    /// `critpath::analyze` and `advise`; `chrome` adds the Perfetto export.
    Layers { chrome: bool },
}

/// One benchmark cell.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    pub app: App,
    pub class: OptClass,
    pub platform: Platform,
    pub engine: Engine,
    pub diag: Diag,
}

impl Cell {
    const fn new(app: App, class: OptClass, platform: Platform) -> Self {
        Self {
            app,
            class,
            platform,
            engine: Engine::Seq,
            diag: Diag::Off,
        }
    }

    const fn fused(mut self) -> Self {
        self.engine = Engine::Fused;
        self
    }

    const fn diag(mut self, diag: Diag) -> Self {
        self.diag = diag;
        self
    }

    /// `App/Class on Platform [engine, diagnostics]`.
    pub fn label(&self) -> String {
        let engine = match self.engine {
            Engine::Seq => "S",
            Engine::Fused => "F",
        };
        let diag = match self.diag {
            Diag::Off => "",
            Diag::Races => "+races",
            Diag::Layers { chrome: false } => "+layers",
            Diag::Layers { chrome: true } => "+layers+chrome",
        };
        format!(
            "{}/{} on {} [{engine}{diag}]",
            self.app.name(),
            self.class.label(),
            self.platform.name()
        )
    }

    /// The scheduler configuration this cell runs under.
    pub fn run_config(&self) -> RunConfig {
        run_config(self.engine, self.diag)
    }
}

/// The scheduler configuration for `engine` and `diag` at [`NPROCS`]
/// processors. Every field the environment could flip (`SIM_SHARDS`,
/// `SIM_TRACE`, ...) is set explicitly, so a stray variable cannot change
/// what is measured.
pub fn run_config(engine: Engine, diag: Diag) -> RunConfig {
    let mut cfg = RunConfig::new(NPROCS)
        .with_shards(match engine {
            Engine::Seq => 1,
            Engine::Fused => 2,
        })
        .with_shard_fused(true);
    cfg.sharing_profile = false;
    cfg.trace = false;
    cfg.metrics = 0;
    match diag {
        Diag::Off => cfg,
        Diag::Races => cfg.with_race_detection(),
        Diag::Layers { .. } => cfg
            .with_sharing_profile()
            .with_trace()
            .with_metrics(sim_core::metrics::DEFAULT_INTERVAL),
    }
}

/// One workload: a name and its cells. Why each exists is recorded once,
/// in `BENCHMARK.json` and the README.
pub struct Workload {
    pub name: &'static str,
    /// True when every cell runs on the sequential engine, which the
    /// benchmark confines to one CPU (see `host::confine_to_one_cpu`).
    pub sequential: bool,
    pub cells: Vec<Cell>,
}

use App::{Barnes, Kv, Lu, Ocean, Radix, Raytrace, Volrend};
use OptClass::{Algorithm as Alg, Orig, PadAlign};
use Platform::{Dsm, Smp, Svm, Tmk};

/// The five workloads, in reporting order.
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "dense_bulk",
            // regular codes on the bulk slice path: platform pricing and the
            // apps' own arithmetic do the work, hand-offs and protocol
            // traffic almost none
            sequential: true,
            cells: vec![
                Cell::new(Lu, Alg, Svm),
                Cell::new(Lu, Alg, Dsm),
                Cell::new(Ocean, Alg, Svm),
                Cell::new(Ocean, Alg, Smp),
                Cell::new(Radix, Alg, Smp),
                Cell::new(Radix, Alg, Tmk),
            ],
        },
        Workload {
            name: "irregular_scalar",
            // pointer-chasing codes issue word-at-a-time loads and stores:
            // host time is the sequential engine's per-op path and turn
            // hand-off, protocol traffic stays low
            sequential: true,
            cells: vec![
                Cell::new(Barnes, Alg, Svm),
                Cell::new(Barnes, Alg, Dsm),
                Cell::new(Raytrace, Alg, Smp),
                Cell::new(Volrend, Alg, Tmk),
            ],
        },
        Workload {
            name: "protocol_sync",
            // falsely-shared pages and hot locks: page fetch, twin/diff,
            // write notices, lock queueing and barrier release dominate
            sequential: true,
            // KV/Orig on TMK is left out on purpose: that one cell
            // simulates 2e11 cycles and would own the workload.
            cells: vec![
                Cell::new(Kv, Orig, Svm),
                Cell::new(Kv, Orig, Dsm),
                Cell::new(Kv, Orig, Smp),
                Cell::new(Kv, PadAlign, Tmk),
                Cell::new(Ocean, Orig, Svm),
                Cell::new(Ocean, Orig, Tmk),
                Cell::new(Radix, Orig, Svm),
            ],
        },
        Workload {
            name: "fused_replay",
            // the same pricing code reached through generation threads,
            // descriptor channels and the fused loop instead of the turn
            // token; three cells shared with the sequential workloads give
            // the engine ratio per cell
            sequential: false,
            cells: vec![
                Cell::new(Lu, Alg, Svm).fused(),
                Cell::new(Barnes, Alg, Svm).fused(),
                Cell::new(Barnes, Orig, Dsm).fused(),
                Cell::new(Kv, Orig, Svm).fused(),
                Cell::new(Ocean, Orig, Tmk).fused(),
                Cell::new(Radix, Orig, Smp).fused(),
            ],
        },
        Workload {
            name: "diagnosed",
            // race detector, sharing profile, trace, metrics, critical path
            // and advisor do their maximum work here and none in the other
            // four
            sequential: true,
            cells: vec![
                Cell::new(Barnes, Orig, Svm).diag(Diag::Races),
                Cell::new(Ocean, Orig, Svm).diag(Diag::Layers { chrome: false }),
                Cell::new(Kv, PadAlign, Svm).diag(Diag::Layers { chrome: true }),
            ],
        },
    ]
}

/// Inputs of one cell: the application's own parameter struct.
#[derive(Clone, Copy, Debug)]
pub enum Params {
    Lu(lu::LuParams),
    Ocean(ocean::OceanParams),
    Radix(radix::RadixParams),
    Kv(kvstore::KvParams),
    Barnes(barnes::BarnesParams),
    Raytrace(raytrace::RaytraceParams),
    Volrend(volrend::VolrendParams),
}

/// SplitMix64: turns `--seed` plus a cell index into well-spread app seeds.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Params {
    /// Parameters of `app` at `scale`, with the app's `seed` field derived
    /// from the run seed and the cell's position. Ocean and Raytrace have
    /// no seed (their inputs are analytic) and ignore it.
    ///
    /// # Panics
    /// For Shear-Warp, which no workload uses.
    pub fn derive(app: App, scale: Scale, seed: u64, cell_index: usize) -> Params {
        let s = splitmix(seed ^ (cell_index as u64).wrapping_mul(0x1_0000_0001));
        match app {
            Lu => {
                let mut p = lu::LuParams::at(scale);
                if scale == Scale::Default {
                    // LU is O(n^3): at the default 512 its two cells would
                    // be 90% of dense_bulk.
                    p.n = 320;
                }
                p.seed = s;
                Params::Lu(p)
            }
            Ocean => Params::Ocean(ocean::OceanParams::at(scale)),
            Radix => {
                let mut p = radix::RadixParams::at(scale);
                p.seed = s;
                Params::Radix(p)
            }
            Kv => {
                let mut p = kvstore::KvParams::at(scale);
                if scale == Scale::Default {
                    // Half the default requests: every lock is a round trip
                    // between a generation thread and the replay loop, and
                    // the fused cell would otherwise take a third of its
                    // workload's pass.
                    p.reqs_per_proc = 1024;
                }
                p.seed = s;
                Params::Kv(p)
            }
            Barnes => {
                let mut p = barnes::BarnesParams::at(scale);
                if scale == Scale::Default {
                    // Half the default bodies, for the same reason as KV
                    // (Barnes/Orig takes 25k locks at 2048 bodies).
                    p.n = 1024;
                }
                p.seed = s;
                Params::Barnes(p)
            }
            Raytrace => Params::Raytrace(raytrace::RaytraceParams::at(scale)),
            Volrend => {
                let mut p = volrend::VolrendParams::at(scale);
                p.seed = s;
                Params::Volrend(p)
            }
            App::ShearWarp => panic!("no workload runs Shear-Warp"),
        }
    }

    /// Generate, simulate and verify: the application's `run_params_cfg`.
    /// Panics (inside the app) if the output differs from the sequential
    /// reference.
    pub fn run(&self, class: OptClass, platform: Platform, cfg: RunConfig) -> RunStats {
        let n = cfg.nprocs;
        match self {
            Params::Lu(p) => lu::run_params_cfg(platform, n, p, lu::version_for(class), cfg),
            Params::Ocean(p) => {
                ocean::run_params_cfg(platform, n, p, ocean::version_for(class), cfg)
            }
            Params::Radix(p) => {
                radix::run_params_cfg(platform, n, p, radix::version_for(class), cfg)
            }
            Params::Kv(p) => {
                kvstore::run_params_cfg(platform, n, p, kvstore::version_for(class), cfg)
            }
            Params::Barnes(p) => {
                barnes::run_params_cfg(platform, n, p, barnes::version_for(class), cfg)
            }
            Params::Raytrace(p) => {
                raytrace::run_params_cfg(platform, n, p, raytrace::version_for(class), cfg)
            }
            Params::Volrend(p) => {
                volrend::run_params_cfg(platform, n, p, volrend::version_for(class), cfg)
            }
        }
        .stats
    }

    /// The input generator alone (what `run` repeats internally). Ocean
    /// has none: its grid is initialised analytically inside the run.
    pub fn generate(&self) {
        match self {
            Params::Lu(p) => drop(black_box(lu::generate_matrix(p))),
            Params::Ocean(_) => {}
            Params::Radix(p) => drop(black_box(radix::generate_keys(p))),
            Params::Kv(p) => drop(black_box(kvstore::generate_requests(p, NPROCS))),
            Params::Barnes(p) => drop(black_box(barnes::generate_bodies(p))),
            Params::Raytrace(p) => drop(black_box(raytrace::generate_scene(p))),
            Params::Volrend(p) => drop(black_box(volrend::generate_volume(p))),
        }
    }

    /// The sequential reference alone (what `run` verifies against).
    pub fn reference(&self) {
        match self {
            Params::Lu(p) => drop(black_box(lu::reference(p))),
            Params::Ocean(p) => drop(black_box(ocean::reference(p))),
            Params::Radix(p) => drop(black_box(radix::reference(p))),
            Params::Kv(p) => drop(black_box(kvstore::reference(p, NPROCS))),
            Params::Barnes(p) => drop(black_box(barnes::reference(p))),
            Params::Raytrace(p) => drop(black_box(raytrace::reference(p))),
            Params::Volrend(p) => drop(black_box(volrend::reference(p))),
        }
    }
}

/// What the diagnostic layers of a [`Diag::Layers`] cell produced.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiagCounts {
    pub trace_events: u64,
    pub trace_dropped: u64,
    pub critpath_edges: u64,
}

/// Result of one cell execution: the timed statistics with the diagnostic
/// payloads stripped (they are checked, counted and dropped inside
/// [`run_cell`]), so repetitions can be compared for equality cheaply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    pub stats: RunStats,
    pub diag: DiagCounts,
}

/// Execute one cell: the app run under the cell's configuration, then the
/// cell's post-hoc analysis. Panics on any verification failure; callers
/// run it under `catch_unwind`.
pub fn run_cell(cell: &Cell, params: &Params) -> Outcome {
    let mut stats = params.run(cell.class, cell.platform, cell.run_config());
    let mut diag = DiagCounts::default();
    match cell.diag {
        Diag::Off => {}
        Diag::Races => {
            assert_eq!(stats.races(), 0, "races:\n{}", stats.race_summary());
        }
        Diag::Layers { chrome } => {
            let rep = sim_core::advise(&stats);
            for r in &rep.recs {
                assert!(r.speedup >= 1.0, "advisor bound < 1.0 for {:?}", r.action);
            }
            let tr = stats.trace.take().expect("tracing was requested");
            let cp = sim_core::analyze(&tr);
            assert_eq!(cp.total, tr.end(), "critical path != end-to-end time");
            assert_eq!(tr.dropped_events(), 0, "default trace cap overflowed");
            assert_eq!(cp.edges_dropped, 0, "default edge cap overflowed");
            let metrics = stats.metrics.take().expect("metrics were requested");
            assert_eq!(
                metrics.total_dropped(),
                0,
                "default metrics caps overflowed"
            );
            assert!(stats.sharing.take().is_some(), "SVM produces a profile");
            if chrome {
                black_box(tr.to_chrome_json());
            }
            diag = DiagCounts {
                trace_events: tr.total_events() as u64,
                trace_dropped: tr.dropped_events(),
                critpath_edges: cp.edges as u64,
            };
        }
    }
    Outcome { stats, diag }
}

/// Exact simulated counts of a workload, summed over its cells.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimTotals {
    /// Sum over cells of the end-to-end virtual time.
    pub cycles: u64,
    pub counters: Counter,
    /// Virtual cycles per [`Bucket`], summed over processors and cells.
    pub buckets: [u64; 6],
}

impl SimTotals {
    /// Add one cell's statistics.
    pub fn add(&mut self, s: &RunStats) {
        self.cycles += s.total_cycles();
        let c = s.sum_counters();
        let t = &mut self.counters;
        t.remote_fetches += c.remote_fetches;
        t.cache_misses += c.cache_misses;
        t.lock_acquires += c.lock_acquires;
        t.barriers += c.barriers;
        t.diffs_created += c.diffs_created;
        t.diffs_applied += c.diffs_applied;
        t.twins_created += c.twins_created;
        t.bytes_transferred += c.bytes_transferred;
        t.invalidations += c.invalidations;
        t.accesses += c.accesses;
        for b in Bucket::ALL {
            self.buckets[b as usize] += s.sum(b);
        }
    }

    /// Simulated events: shared accesses + lock acquires + barrier
    /// arrivals in the timed regions. Repeats exactly for a given seed, so
    /// it is the numerator of the throughput figure.
    pub fn events(&self) -> u64 {
        self.counters.accesses + self.counters.lock_acquires + self.counters.barriers
    }

    /// Share of all accounted virtual time spent in `bucket`.
    pub fn share(&self, bucket: Bucket) -> f64 {
        let total: u64 = self.buckets.iter().sum();
        self.buckets[bucket as usize] as f64 / total.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_are_unique_and_sequential_flag_matches_cells() {
        let ws = workloads();
        for (i, w) in ws.iter().enumerate() {
            assert!(ws[..i].iter().all(|o| o.name != w.name));
            assert_eq!(
                w.sequential,
                w.cells.iter().all(|c| c.engine == Engine::Seq),
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn seeds_differ_per_cell_and_per_run_seed() {
        let seed_of = |seed, idx| match Params::derive(Radix, Scale::Test, seed, idx) {
            Params::Radix(p) => p.seed,
            _ => unreachable!(),
        };
        assert_eq!(seed_of(1, 0), seed_of(1, 0));
        assert_ne!(seed_of(1, 0), seed_of(1, 1));
        assert_ne!(seed_of(1, 0), seed_of(2, 0));
    }

    #[test]
    fn run_config_ignores_nothing_it_sets() {
        let c = Cell::new(Kv, PadAlign, Svm).diag(Diag::Layers { chrome: true });
        let cfg = c.run_config();
        assert!(cfg.trace && cfg.sharing_profile && cfg.metrics > 0);
        assert_eq!(cfg.shards, 1);
        let f = Cell::new(Lu, Alg, Svm).fused().run_config();
        assert_eq!(f.shards, 2);
        assert!(f.shard_fused && !f.trace && f.metrics == 0);
    }
}
