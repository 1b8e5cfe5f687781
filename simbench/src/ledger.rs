//! The per-layer ledger: host nanoseconds per operation for each layer of
//! the simulator, from small kernels timed from outside.
//!
//! A *scheduler kernel* is a closure run through `sim_core::run` on the
//! one-cycle [`ShardableNull`] platform, so only the engine's own per-op
//! path is left. A *platform kernel* is the same closure on a real
//! platform; the platform's self time is that minus the time on
//! `ShardableNull`. Each figure is `(median T(n) - median T(0)) / n` over
//! [`Sizes::batches`] batches: the same kernel with zero operations takes
//! thread spawn/join, allocation and the timing rendezvous out.
//!
//! Data-structure kernels (`Cache`, `Resource`, `Diff`) are called
//! directly in a loop.

use crate::host::{set_affinity, speed_factor};
use crate::workloads::{run_config, Cell, Diag, Engine, Params};
use crate::{dsm, median, null, smp, svm, tmk};
use apps::{App, OptClass, Scale};
use sim_core::alloc::PlacementMap;
use sim_core::cache::{Cache, CacheGeom, LineState};
use sim_core::{
    Addr, NullPlatform, Placement, Platform, Proc, ProcStats, Resource, RunConfig, RunStats,
    Timing, HEAP_BASE, PAGE_SIZE,
};
use std::hint::black_box;
use std::time::Instant;
use svm_hlrc::Diff;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Append a metric.
pub fn push(out: &mut Vec<Metric>, name: impl Into<String>, unit: &'static str, value: f64) {
    out.push(Metric {
        name: name.into(),
        unit,
        value,
    });
}

/// [`NullPlatform`] plus the certificate the sharded engine asks for.
///
/// `NullPlatform` does not report a `min_cross_node_latency`, so
/// `with_shards(2)` would silently fall back to the sequential engine and
/// the `fused.*` rows would measure the wrong thing. Every way its
/// processors interact *is* a trait call (it has no side channels; its
/// latencies are simply zero), which is all the engine's event-bounded
/// window needs, so this wrapper may truthfully return `Some`.
pub struct ShardableNull(NullPlatform);

impl ShardableNull {
    /// A null platform for `nprocs` processors.
    pub fn new(nprocs: usize) -> Self {
        Self(NullPlatform::new(nprocs))
    }
}

impl Platform for ShardableNull {
    fn nprocs(&self) -> usize {
        self.0.nprocs()
    }
    fn load(&mut self, t: &mut Timing, addr: Addr, len: u8) -> u64 {
        self.0.load(t, addr, len)
    }
    fn store(&mut self, t: &mut Timing, addr: Addr, len: u8, val: u64) {
        self.0.store(t, addr, len, val)
    }
    fn acquire_request(&mut self, t: &mut Timing, lock: u32) -> u64 {
        self.0.acquire_request(t, lock)
    }
    fn acquire_grant(
        &mut self,
        pid: usize,
        lock: u32,
        grant_at: u64,
        stats: &mut ProcStats,
        placement: &mut PlacementMap,
        timing_on: bool,
    ) -> u64 {
        self.0
            .acquire_grant(pid, lock, grant_at, stats, placement, timing_on)
    }
    fn release(&mut self, t: &mut Timing, lock: u32) -> u64 {
        self.0.release(t, lock)
    }
    fn barrier_arrive(&mut self, t: &mut Timing, barrier: u32) -> u64 {
        self.0.barrier_arrive(t, barrier)
    }
    fn barrier_release(
        &mut self,
        barrier: u32,
        arrivals: &[u64],
        stats: &mut [ProcStats],
        placement: &mut PlacementMap,
        timing_on: bool,
    ) -> Vec<u64> {
        self.0
            .barrier_release(barrier, arrivals, stats, placement, timing_on)
    }
    fn reset_timing(&mut self) {
        self.0.reset_timing()
    }
    fn min_cross_node_latency(&self) -> Option<u64> {
        Some(0)
    }
}

/// How much work the ledger does: full size for a real run, a fraction
/// for the smoke test.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Batches per kernel; the median is reported.
    pub batches: usize,
    /// Divisor applied to every kernel's operation count.
    pub shrink: u64,
    /// Repetitions of each diagnostic-layer run.
    pub diag_reps: usize,
    /// Scale of the KV cell the diagnostic rows run.
    pub scale: Scale,
}

impl Sizes {
    /// The sizes of a real traced run.
    pub const FULL: Sizes = Sizes {
        batches: 31,
        shrink: 1,
        diag_reps: 3,
        scale: Scale::Default,
    };
    /// Seconds, not minutes: for `--scale test`.
    pub const QUICK: Sizes = Sizes {
        batches: 3,
        shrink: 8,
        diag_reps: 1,
        scale: Scale::Test,
    };
}

type MakePlatform = fn(usize) -> Box<dyn Platform>;
type Kernel = fn(&mut Proc, u64);

/// What one "operation" of a kernel is, for the per-operation figure.
#[derive(Clone, Copy)]
enum Per {
    /// Each of the `n` iterations.
    Iteration,
    /// Each iteration of each of the two processors.
    IterationOfEither,
    /// Each remote fetch the run counted. The bus-based SMP has no remote
    /// memory and counts none; there, each of the consumer's cache misses.
    Transfer,
}

/// A kernel: its body, how many processors it needs, its full-size
/// iteration count, and the row it fills in each group (`sched.*` on the
/// null platform, `fused.*`, `<crate>.*`), if any.
#[derive(Clone, Copy)]
struct KernelSpec {
    body: Kernel,
    nprocs: usize,
    n: u64,
    per: Per,
    sched: Option<&'static str>,
    fused: Option<&'static str>,
    platform: Option<&'static str>,
}

impl KernelSpec {
    /// Host nanoseconds per operation, given the seconds the operations of
    /// a run added and that run's statistics.
    fn ns_per_op(&self, secs: f64, stats: &RunStats, sz: Sizes) -> f64 {
        let n = (self.n / sz.shrink) as f64;
        let ops = match self.per {
            Per::Iteration => n,
            Per::IterationOfEither => 2.0 * n,
            Per::Transfer => {
                let c = stats.sum_counters();
                let transfers = if c.remote_fetches > 0 {
                    c.remote_fetches
                } else {
                    c.cache_misses
                };
                transfers.max(1) as f64
            }
        };
        secs * 1e9 / ops
    }
}

/// Words touched by the access kernels: 8 KiB, inside every modelled L1.
const HOT_WORDS: u64 = 1024;

fn alloc_then_time(p: &mut Proc, bytes: u64) {
    if p.pid() == 0 {
        p.alloc_shared(bytes, PAGE_SIZE, Placement::Node(0));
    }
    p.barrier(100);
    p.start_timing();
}

/// `n` scalar loads of L1-resident words by one processor.
fn k_load(p: &mut Proc, n: u64) {
    alloc_then_time(p, HOT_WORDS * 8);
    // No warming pass: the 256 cold lines are under 1% of the loads.
    for i in 0..n {
        black_box(p.load(HEAP_BASE + (i % HOT_WORDS) * 8, 8));
    }
}

/// `n` words read through `read_f64_slice`, `HOT_WORDS` per call.
fn k_slice(p: &mut Proc, n: u64) {
    alloc_then_time(p, HOT_WORDS * 8);
    let mut buf = [0f64; HOT_WORDS as usize];
    for _ in 0..n / HOT_WORDS {
        p.read_f64_slice(HEAP_BASE, 8, &mut buf);
        black_box(&buf);
    }
}

/// Two processors that must hand the turn over after every `work` call:
/// each call advances the caller 6000 cycles while the two clocks stay
/// 3000 apart, and the min-clock rule yields past a 2000-cycle lead.
/// `n` calls each = `2n` hand-offs.
fn k_yield(p: &mut Proc, n: u64) {
    p.start_timing();
    if p.pid() == 1 {
        p.work(3000);
    }
    for _ in 0..n {
        p.work(6000);
    }
}

/// Two processors taking one lock `n` times each, dirtying one shared
/// word (one page or line) per critical section.
fn k_lock(p: &mut Proc, n: u64) {
    alloc_then_time(p, PAGE_SIZE);
    for i in 0..n {
        p.lock(1);
        p.store(HEAP_BASE, 8, i);
        p.work(10);
        p.unlock(1);
    }
    p.barrier(0);
}

/// Sixteen processors meeting at `n` barriers, each dirtying one word of
/// its own page (all homed on node 0) before every barrier.
fn k_barrier(p: &mut Proc, n: u64) {
    alloc_then_time(p, p.nprocs() as u64 * PAGE_SIZE);
    let mine = HEAP_BASE + p.pid() as u64 * PAGE_SIZE;
    for i in 0..n {
        p.store(mine, 8, i);
        p.barrier((i % 7) as u32);
    }
}

/// Producer -> barrier -> consumer: processor 0 writes one word in each of
/// `n` pages it homes, processor 1 then reads one word from each.
fn k_remote(p: &mut Proc, n: u64) {
    alloc_then_time(p, n.max(1) * PAGE_SIZE);
    if p.pid() == 0 {
        for i in 0..n {
            p.store(HEAP_BASE + i * PAGE_SIZE, 8, i + 1);
        }
    }
    p.barrier(1);
    if p.pid() == 1 {
        for i in 0..n {
            black_box(p.load(HEAP_BASE + i * PAGE_SIZE, 8));
        }
    }
    p.barrier(2);
}

/// Every kernel, in reporting order.
const KERNELS: [KernelSpec; 6] = [
    KernelSpec {
        body: k_load,
        nprocs: 1,
        n: 32 * HOT_WORDS,
        per: Per::Iteration,
        sched: Some("seq_load_ns"),
        fused: Some("load_ns"),
        platform: Some("load_hit_ns"),
    },
    KernelSpec {
        body: k_slice,
        nprocs: 1,
        n: 256 * HOT_WORDS,
        per: Per::Iteration,
        sched: Some("seq_slice_ns_per_word"),
        fused: Some("slice_ns_per_word"),
        platform: Some("bulk_ns_per_word"),
    },
    KernelSpec {
        body: k_yield,
        nprocs: 2,
        n: 512,
        per: Per::IterationOfEither,
        sched: Some("seq_yield_ns"),
        fused: None,
        platform: None,
    },
    KernelSpec {
        body: k_remote,
        nprocs: 2,
        n: 256,
        per: Per::Transfer,
        sched: None,
        fused: None,
        platform: Some("remote_miss_ns"),
    },
    KernelSpec {
        body: k_lock,
        nprocs: 2,
        n: 512,
        per: Per::IterationOfEither,
        sched: Some("seq_lock_pingpong_ns"),
        fused: Some("lock_pingpong_ns"),
        platform: Some("lock_handoff_ns"),
    },
    KernelSpec {
        body: k_barrier,
        nprocs: 16,
        n: 64,
        per: Per::Iteration,
        sched: Some("seq_barrier16_ns"),
        fused: Some("barrier16_ns"),
        platform: Some("barrier16_ns"),
    },
];

/// Nothing at all, on sixteen processors: what starting and joining the
/// simulated processors costs.
const EMPTY: KernelSpec = KernelSpec {
    body: |_, _| {},
    nprocs: 16,
    n: 0,
    per: Per::Iteration,
    sched: None,
    fused: None,
    platform: None,
};

/// The configuration the timed cells use, for `nprocs` processors.
fn config(nprocs: usize, engine: Engine) -> RunConfig {
    let mut cfg = run_config(engine, Diag::Off);
    cfg.nprocs = nprocs;
    cfg
}

/// Median host seconds of `batches` runs of `k` with `n` operations —
/// divided, like every timed region of this benchmark, by the host's
/// speed factor around them — and the statistics of the last run.
fn time_runs(
    mk: MakePlatform,
    engine: Engine,
    k: KernelSpec,
    n: u64,
    batches: usize,
) -> (f64, RunStats) {
    let mut secs = Vec::with_capacity(batches);
    let mut last = None;
    let before = speed_factor();
    for _ in 0..batches {
        let platform = mk(k.nprocs);
        let cfg = config(k.nprocs, engine);
        let t = Instant::now();
        let stats = sim_core::run(platform, cfg, |p| (k.body)(p, n));
        secs.push(t.elapsed().as_secs_f64());
        last = Some(stats);
    }
    let factor = (before + speed_factor()) / 2.0;
    (median(&secs) / factor, last.expect("at least one batch"))
}

/// Host seconds `n` operations of `k` add over the empty kernel, and the
/// statistics of a full run.
fn kernel_secs(mk: MakePlatform, engine: Engine, k: KernelSpec, sz: Sizes) -> (f64, RunStats) {
    let (full, stats) = time_runs(mk, engine, k, k.n / sz.shrink, sz.batches);
    let (empty, _) = time_runs(mk, engine, k, 0, sz.batches);
    (full - empty, stats)
}

/// Median nanoseconds per call of `f`, over `batches` batches of `iters`.
fn micro(batches: usize, iters: u64, mut f: impl FnMut()) -> f64 {
    let mut ns = Vec::with_capacity(batches);
    let before = speed_factor();
    for _ in 0..batches {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        ns.push(t.elapsed().as_secs_f64() * 1e9 / iters as f64);
    }
    median(&ns) / ((before + speed_factor()) / 2.0)
}

/// `sched.*`, `fused.*` and the four platform crates' rows. Sequential
/// kernels run confined to the first of `cpus`, fused kernels on all of
/// them — the conditions the timed cells of the respective workloads run
/// under, whichever workload's process this is.
fn engine_and_platform_rows(out: &mut Vec<Metric>, sz: Sizes, cpus: &[usize]) {
    let one_cpu = &cpus[..cpus.len().min(1)];

    // Sequential engine on the null platform. The seconds are kept: the
    // platform rows subtract them.
    set_affinity(one_cpu);
    let mut on_null = Vec::with_capacity(KERNELS.len());
    for k in KERNELS {
        let (secs, stats) = kernel_secs(null, Engine::Seq, k, sz);
        if let Some(row) = k.sched {
            let ns = k.ns_per_op(secs, &stats, sz);
            push(out, format!("sched.{row}"), "ns", ns);
        }
        on_null.push(secs);
    }
    let (spawn, _) = time_runs(null, Engine::Seq, EMPTY, 0, sz.batches);
    push(out, "sched.spawn_join_ns", "ns", spawn * 1e9);

    // The same kernels through generation threads and the fused loop.
    set_affinity(cpus);
    for k in KERNELS {
        if let Some(row) = k.fused {
            let (secs, stats) = kernel_secs(null, Engine::Fused, k, sz);
            let ns = k.ns_per_op(secs, &stats, sz);
            push(out, format!("fused.{row}"), "ns", ns);
        }
    }
    let (spawn, _) = time_runs(null, Engine::Fused, EMPTY, 0, sz.batches);
    push(out, "fused.spawn_join_ns", "ns", spawn * 1e9);

    // Platform self time: sequential engine, platform minus null.
    set_affinity(one_cpu);
    let platforms: [(&str, MakePlatform); 4] = [
        ("svm-hlrc", svm),
        ("lrc-tmk", tmk),
        ("cc-numa", dsm),
        ("smp-bus", smp),
    ];
    for (name, mk) in platforms {
        for (k, null_secs) in KERNELS.into_iter().zip(&on_null) {
            if let Some(row) = k.platform {
                let (secs, stats) = kernel_secs(mk, Engine::Seq, k, sz);
                let ns = k.ns_per_op(secs - null_secs, &stats, sz);
                push(out, format!("{name}.{row}"), "ns", ns);
            }
        }
    }
}

/// `cache.*`, `resource.*` and the HLRC diff rows: direct calls.
fn data_structure_rows(out: &mut Vec<Metric>, sz: Sizes) {
    let iters = 131_072 / sz.shrink;
    // The paper's second-level cache.
    let geom = CacheGeom {
        size: 512 << 10,
        line: 32,
        ways: 2,
    };
    let hot: Addr = HEAP_BASE;
    let mut cache = Cache::new(geom);
    cache.fill(hot, LineState::Exclusive);
    let hit = micro(sz.batches, iters, || {
        black_box(cache.access(black_box(hot), false));
    });
    push(out, "cache.hit_ns", "ns", hit);

    let mut cache = Cache::new(geom);
    let mut a = hot;
    let miss = micro(sz.batches, iters, || {
        a += geom.line;
        black_box(cache.access(black_box(a), true));
        black_box(cache.fill(a, LineState::Modified));
    });
    push(out, "cache.miss_fill_ns", "ns", miss);

    // Eight words per call: two per 32-byte line would flatter the tag
    // walk, a whole page would hide it.
    const RUN: u64 = 8;
    let mut cache = Cache::new(geom);
    cache.fill(hot, LineState::Exclusive);
    let run = micro(sz.batches, iters, || {
        cache.hit_run(black_box(hot), false, RUN);
    });
    black_box(cache.hits);
    push(out, "cache.hit_run_ns_per_word", "ns", run / RUN as f64);

    let mut r = Resource::new();
    let mut t = 0u64;
    let serve = micro(sz.batches, iters, || {
        t += 10;
        black_box(r.serve(black_box(t), 7));
    });
    push(out, "resource.serve_ns", "ns", serve);

    let page = PAGE_SIZE as usize;
    let twin = vec![0u8; page];
    // Scattered: one byte in every 64 differs. Contiguous: the first
    // quarter of the page differs.
    let mut scattered = twin.clone();
    for b in scattered.iter_mut().step_by(64) {
        *b = 1;
    }
    let mut contiguous = twin.clone();
    contiguous[..page / 4].fill(1);
    let iters = iters / 16;
    let create_s = micro(sz.batches, iters, || {
        black_box(Diff::create(black_box(&twin), black_box(&scattered)));
    });
    push(out, "svm-hlrc.diff_create_scattered_ns", "ns", create_s);
    let create_c = micro(sz.batches, iters, || {
        black_box(Diff::create(black_box(&twin), black_box(&contiguous)));
    });
    push(out, "svm-hlrc.diff_create_contig_ns", "ns", create_c);
    let d = Diff::create(&twin, &contiguous);
    let mut target = twin.clone();
    let apply = micro(sz.batches, iters, || {
        d.apply(black_box(&mut target));
    });
    push(out, "svm-hlrc.diff_apply_ns", "ns", apply);
}

/// The diagnostic layers' rows, all on KV/P-A on SVM: each layer's host
/// time over the plain run, then one run with sharing + trace + metrics on
/// for the post-hoc analyses.
fn diagnostic_rows(out: &mut Vec<Metric>, sz: Sizes, seed: u64) {
    let cell = Cell {
        app: App::Kv,
        class: OptClass::PadAlign,
        platform: apps::Platform::Svm,
        engine: Engine::Seq,
        diag: Diag::Off,
    };
    let mut params = Params::derive(cell.app, sz.scale, seed, 0);
    if let (Params::Kv(p), Scale::Default) = (&mut params, sz.scale) {
        // A quarter of the default request count: five configurations
        // times `diag_reps` must fit beside the timed passes.
        p.reqs_per_proc /= 4;
    }
    let base = cell.run_config();
    let configs: [(&str, RunConfig); 5] = [
        ("plain", base.clone()),
        ("detector", base.clone().with_race_detection()),
        ("sharing", base.clone().with_sharing_profile()),
        ("trace", base.clone().with_trace()),
        (
            "metrics",
            base.clone()
                .with_metrics(sim_core::metrics::DEFAULT_INTERVAL),
        ),
    ];
    let mut secs = vec![Vec::new(); configs.len()];
    for _ in 0..sz.diag_reps {
        for (i, (_, cfg)) in configs.iter().enumerate() {
            let t = Instant::now();
            black_box(params.run(cell.class, cell.platform, cfg.clone()));
            secs[i].push(t.elapsed().as_secs_f64());
        }
    }
    let plain = median(&secs[0]);
    for (i, (name, _)) in configs.iter().enumerate().skip(1) {
        push(
            out,
            format!("{name}.overhead_ratio"),
            "ratio",
            median(&secs[i]) / plain,
        );
    }

    let mut stats = params.run(
        cell.class,
        cell.platform,
        base.with_sharing_profile()
            .with_trace()
            .with_metrics(sim_core::metrics::DEFAULT_INTERVAL),
    );
    let before = speed_factor();
    let t = Instant::now();
    black_box(sim_core::advise(&stats));
    let advise_s = t.elapsed().as_secs_f64();
    let tr = stats.trace.take().expect("tracing was requested");
    let t = Instant::now();
    let cp = sim_core::analyze(&tr);
    let analyze_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    black_box(tr.to_chrome_json());
    let chrome_s = t.elapsed().as_secs_f64();
    let factor = (before + speed_factor()) / 2.0;
    push(out, "trace.events", "count", tr.total_events() as f64);
    push(out, "trace.dropped", "count", tr.dropped_events() as f64);
    push(out, "critpath.edges", "count", cp.edges as f64);
    push(out, "critpath.analyze_s", "s", analyze_s / factor);
    push(out, "advisor.advise_s", "s", advise_s / factor);
    push(out, "trace.chrome_json_s", "s", chrome_s / factor);
}

/// Run every ledger kernel and return its rows in reporting order. `cpus`
/// are the CPUs the process may use; the calling thread is left confined
/// to the first of them (see [`set_affinity`]).
pub fn run(sz: Sizes, seed: u64, cpus: &[usize]) -> Vec<Metric> {
    let mut out = Vec::new();
    engine_and_platform_rows(&mut out, sz, cpus);
    data_structure_rows(&mut out, sz);
    diagnostic_rows(&mut out, sz, seed);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shardable_null_really_runs_the_sharded_engine_and_matches_sequential() {
        // `Proc::now` panics under the sharded engine only, which makes it
        // a probe for which engine a configuration selected.
        let probe = |engine| {
            std::panic::catch_unwind(|| {
                sim_core::run(null(1), config(1, engine), |p| {
                    black_box(p.now());
                })
            })
            .is_ok()
        };
        assert!(probe(Engine::Seq));
        assert!(
            !probe(Engine::Fused),
            "fused kernels fell back to sequential"
        );

        for k in KERNELS {
            let run = |engine| {
                sim_core::run(null(k.nprocs), config(k.nprocs, engine), |p| {
                    (k.body)(p, 64)
                })
            };
            assert_eq!(run(Engine::Seq), run(Engine::Fused));
        }
    }

    #[test]
    fn remote_kernel_moves_one_transfer_per_page() {
        for (mk, name) in [(svm as MakePlatform, "svm"), (tmk, "tmk"), (dsm, "dsm")] {
            let stats = sim_core::run(mk(2), config(2, Engine::Seq), |p| k_remote(p, 32));
            let c = stats.sum_counters();
            assert!(c.remote_fetches >= 32, "{name}: {}", c.remote_fetches);
        }
        let stats = sim_core::run(smp(2), config(2, Engine::Seq), |p| k_remote(p, 32));
        assert!(stats.sum_counters().cache_misses >= 32);
    }

    #[test]
    fn quick_ledger_reports_every_row_once_with_finite_values() {
        let rows = run(Sizes::QUICK, 1, &crate::host::allowed_cpus());
        assert_eq!(rows.len(), 48);
        for (i, m) in rows.iter().enumerate() {
            assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
            assert!(rows[..i].iter().all(|o| o.name != m.name), "{}", m.name);
        }
    }
}
