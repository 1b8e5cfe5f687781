//! Differential proof harness for the sharded (generate/replay) engine:
//! `RunConfig::with_shards(n)` must produce **bit-identical** `RunStats` —
//! clocks, every bucket and counter, sharing profiles, full trace event
//! streams — to the sequential engine (`shards = 1`), for every
//! application × optimization class × platform cell, for every shard
//! count, with every diagnostic layer enabled, and across randomized
//! platform/scheduler configuration points.
//!
//! The argument for *why* this holds (the fused replay loop drives the
//! sequential engine's scheduler transitions, consuming operation streams
//! that are deterministic for data-race-free programs) is in DESIGN.md
//! §2b–2c; this file is the evidence.

use apps::{App, AppSpec, OptClass};
use sim_core::critpath::analyze;
use sim_core::util::XorShift64;
use sim_core::{run, Placement, RunConfig, RunStats, HEAP_BASE};
use svm_hlrc::{SvmConfig, SvmPlatform};
use svm_restructure::prelude::*;

const PLATFORMS: [PlatformKind; 4] = [
    PlatformKind::Svm,
    PlatformKind::Dsm,
    PlatformKind::Smp,
    PlatformKind::Tmk,
];

fn cell(app: App, class: OptClass, pf: PlatformKind, cfg: RunConfig) -> RunStats {
    AppSpec { app, class }.run_cfg(pf, cfg.nprocs, Scale::Test, cfg)
}

/// The headline acceptance criterion: the full grid — every application,
/// all 4 optimization classes, all 4 platform models — with shards ∈
/// {2, 4 = P}, each compared structurally against the sequential oracle.
#[test]
fn full_grid_is_bit_identical_across_shard_counts() {
    for pf in PLATFORMS {
        for app in App::ALL {
            for class in OptClass::ALL {
                let oracle = cell(app, class, pf, RunConfig::new(4));
                for shards in [2, 4] {
                    assert_eq!(
                        oracle,
                        cell(app, class, pf, RunConfig::new(4).with_shards(shards)),
                        "{}/{} on {}: shards={shards} diverged from the sequential oracle",
                        app.name(),
                        class.label(),
                        pf.name()
                    );
                }
            }
        }
    }
}

/// Shard counts above, at, and below the processor count on a wider run
/// (P = 8): oversubscription and undersubscription are both just gate
/// widths and must not be observable.
#[test]
fn shard_count_is_invisible_at_eight_processors() {
    for pf in [PlatformKind::Svm, PlatformKind::Smp] {
        for app in [App::Lu, App::Radix] {
            let oracle = cell(
                app,
                OptClass::Algorithm,
                pf,
                RunConfig::new(8).with_shards(1),
            );
            for shards in [2, 8, 16] {
                let sharded = cell(
                    app,
                    OptClass::Algorithm,
                    pf,
                    RunConfig::new(8).with_shards(shards),
                );
                assert_eq!(
                    oracle,
                    sharded,
                    "{} on {} at P=8: shards={shards} diverged",
                    app.name(),
                    pf.name()
                );
            }
        }
    }
}

/// Every diagnostic layer at once — race detector, per-page sharing
/// profiler, full event trace — under sharding, compared field-for-field
/// (trace event streams and sharing pages included) against the identically
/// instrumented sequential run.
#[test]
fn diagnostics_laden_runs_are_bit_identical_under_sharding() {
    let instrumented = |shards: usize| {
        RunConfig::new(4)
            .with_shards(shards)
            .with_race_detection()
            .with_sharing_profile()
            .with_trace()
    };
    for pf in PLATFORMS {
        for app in [App::Ocean, App::Barnes] {
            let oracle = cell(app, OptClass::Orig, pf, instrumented(1));
            let sharded = cell(app, OptClass::Orig, pf, instrumented(4));
            assert!(
                sharded.trace.as_ref().is_some_and(|t| t.total_events() > 0),
                "{}: sharded run produced an empty trace",
                pf.name()
            );
            assert_eq!(
                oracle,
                sharded,
                "{} on {}: diagnostics diverged under sharding",
                app.name(),
                pf.name()
            );
        }
    }
}

/// The critical-path analyzer's defining invariant (`total == end`) holds
/// on traces recorded under sharding — the dependency-edge stream is the
/// sequential engine's, bit for bit.
#[test]
fn critpath_invariant_holds_on_sharded_traces() {
    for pf in PLATFORMS {
        let stats = cell(
            App::Lu,
            OptClass::Algorithm,
            pf,
            RunConfig::new(4).with_shards(4).with_trace(),
        );
        let tr = stats.trace.expect("tracing was requested");
        let cp = analyze(&tr);
        assert_eq!(
            cp.total,
            cp.end,
            "{}: sharded trace broke the critical-path telescoping invariant",
            pf.name()
        );
        assert!(cp.total > 0, "{}: degenerate critical path", pf.name());
    }
}

/// A data-race-free stress kernel, deterministic by construction: the
/// parameter stream is derived from the seed alone (identical on every
/// processor and engine), indices are partitioned by pid, and the shared
/// accumulator is consistently lock-protected.
fn stress_body(seed: u64, words: u64, iters: u64) -> impl Fn(&mut sim_core::Proc) + Sync {
    move |p| {
        let mut rng = XorShift64::new(seed);
        let n = p.nprocs() as u64;
        let pid = p.pid() as u64;
        let acc = HEAP_BASE + words * 8; // word index `words`, see alloc below
        if p.pid() == 0 {
            p.alloc_shared_labeled("stress", (words + 1) * 8, 8, Placement::RoundRobin);
        }
        p.barrier(0);
        p.start_timing();
        for it in 0..iters {
            // Partitioned strided writes over the array body.
            let mut i = pid;
            while i < words {
                p.store(HEAP_BASE + i * 8, 8, i.wrapping_mul(0x9E37) ^ it);
                i += n;
            }
            p.work(rng.below(500));
            p.barrier(10 + it as u32);
            // Bulk-read a rotated partition (written by a neighbour, now
            // visible across the barrier), then charge fused per-element
            // compute for it.
            let mut buf = vec![0u64; (words / n) as usize];
            p.load_slice(HEAP_BASE + ((pid + 1) % n) * 8, n * 8, 8, &mut buf);
            p.work_fused(1 + rng.below(4), buf.len() as u64);
            // Lock-protected read-modify-write of the shared accumulator.
            p.lock(1);
            let v = p.load(acc, 8);
            p.store(acc, 8, v.wrapping_add(buf.iter().sum()));
            p.unlock(1);
            // Occasionally clear a stripe with the bulk fill.
            if rng.below(2) == 0 {
                p.fill(HEAP_BASE + pid * 8, 8, 1 + words / (4 * n), 0);
            }
            p.barrier(100 + it as u32);
        }
        p.stop_timing();
        p.barrier(999);
    }
}

/// The fused replay engine against the sequential oracle with every
/// diagnostic layer stacked, on two cells the other grids run bare: it
/// must be bit-identical on every platform.
#[test]
fn fused_replay_with_every_layer_is_bit_identical() {
    let instrumented = |shards: usize| {
        RunConfig::new(4)
            .with_shards(shards)
            .with_race_detection()
            .with_sharing_profile()
            .with_trace()
    };
    for pf in PLATFORMS {
        for (app, class) in [(App::Lu, OptClass::Algorithm), (App::Radix, OptClass::Orig)] {
            assert_eq!(
                cell(app, class, pf, instrumented(1)),
                cell(app, class, pf, instrumented(4)),
                "{}/{} on {}: fused replay diverged from the oracle",
                app.name(),
                class.label(),
                pf.name()
            );
        }
    }
}

/// The descriptor batch size is a pure channel-granularity knob: sweeping
/// it from degenerate (1 descriptor per message) through large must be
/// invisible in the statistics.
#[test]
fn shard_batch_size_is_invisible() {
    let body = stress_body(0xBA7C4, 256, 2);
    let oracle = run(
        SvmPlatform::boxed(SvmConfig::paper(4)),
        RunConfig::new(4).with_shards(1).with_trace(),
        &body,
    );
    for batch in [None, Some(1), Some(7), Some(512), Some(16384)] {
        let mut cfg = RunConfig::new(4).with_shards(4).with_trace();
        if let Some(b) = batch {
            cfg = cfg.with_shard_batch(b);
        }
        let sharded = run(SvmPlatform::boxed(SvmConfig::paper(4)), cfg, &body);
        assert_eq!(
            oracle, sharded,
            "batch={batch:?}: batch size leaked into the statistics"
        );
    }
}

/// Out-of-range batch sizes are rejected at configuration time, not
/// discovered as hangs or misbehavior mid-run.
#[test]
#[should_panic(expected = "shard_batch must be in")]
fn zero_shard_batch_is_rejected() {
    let _ = RunConfig::new(4).with_shard_batch(0);
}

/// A sharded run with the public fields set directly, past the builders.
fn sharded_run_with(edit: impl FnOnce(&mut RunConfig)) -> RunStats {
    let mut cfg = RunConfig::new(2).with_shards(2);
    edit(&mut cfg);
    run(SvmPlatform::boxed(SvmConfig::paper(2)), cfg, |p| {
        p.barrier(0)
    })
}

/// `shard_batch` is a public field: a zero set past the builder is caught
/// when the engine starts instead of behaving like 1.
#[test]
#[should_panic(expected = "shard_batch must be in")]
fn directly_set_zero_shard_batch_is_rejected_at_run_start() {
    sharded_run_with(|c| c.shard_batch = 0);
}

/// A huge batch set past the builder is caught before any generation
/// thread starts, instead of every one of them failing to allocate it.
#[test]
#[should_panic(expected = "shard_batch must be in")]
fn directly_set_huge_shard_batch_is_rejected_at_run_start() {
    sharded_run_with(|c| c.shard_batch = usize::MAX);
}

/// The classic replay side `shard_fused = false` selected is gone; asking
/// for it fails loudly rather than running the fused engine instead.
#[test]
#[should_panic(expected = "classic replay engine, which was removed")]
fn classic_replay_request_names_its_removal() {
    let _ = run(
        SvmPlatform::boxed(SvmConfig::paper(2)),
        RunConfig::new(2).with_shards(2).with_shard_fused(false),
        |p| p.barrier(0),
    );
}

// ---- teardown: panics, poison, deadlock ----
//
// A replay engine that leaks parked generation threads turns an
// application panic into a process hang. These tests pass only if `run`
// unwinds promptly (the harness would time out otherwise) with the same
// panic message the sequential engine produces.

/// An application panic mid-timed-phase under the fused engine: the
/// `Poison` descriptor must propagate through replay, unwind the event
/// loop, abort every generation thread, and re-raise with the sequential
/// engine's message format.
#[test]
fn app_panic_mid_phase_unwinds_cleanly_under_fused_replay() {
    let result = std::panic::catch_unwind(|| {
        run(
            SvmPlatform::boxed(SvmConfig::paper(4)),
            RunConfig::new(4).with_shards(2),
            |p| {
                p.barrier(0);
                p.start_timing();
                p.work(500);
                p.barrier(1);
                if p.pid() == 2 {
                    panic!("injected failure in phase");
                }
                // The survivors head for a barrier the panicked
                // processor will never reach.
                p.barrier(2);
                p.stop_timing();
            },
        )
    });
    let payload = result.expect_err("the simulated panic must propagate");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        msg.contains("simulated processor panicked") && msg.contains("injected failure"),
        "unexpected panic message: {msg}"
    );
    assert!(
        msg.contains("p2"),
        "panic not attributed to the failing processor: {msg}"
    );
}

/// A simulated deadlock (lock held by a finished processor) under the
/// fused engine: detected, reported with the sequential engine's message,
/// and all generation threads released.
#[test]
fn deadlock_is_detected_under_fused_replay() {
    let result = std::panic::catch_unwind(|| {
        run(
            SvmPlatform::boxed(SvmConfig::paper(2)),
            RunConfig::new(2).with_shards(2),
            |p| {
                p.barrier(0);
                p.start_timing(); // clocks live: the order below is forced
                if p.pid() == 0 {
                    p.lock(1); // acquired at clock 0, never unlocked
                } else {
                    p.work(10_000); // guarantees p0 wins the lock race
                    p.lock(1); // waits forever: the holder is done
                    p.unlock(1);
                }
            },
        )
    });
    let payload = result.expect_err("the deadlock must be detected");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        msg.contains("simulated deadlock: no runnable processor"),
        "unexpected deadlock message: {msg}"
    );
}

/// A panic before the application emits a single descriptor (early drop of
/// the run): the replay side sees only a `Poison` stream and must still
/// unwind without stranding the other generation threads mid-stream.
#[test]
fn immediate_panic_unwinds_cleanly_under_fused_replay() {
    let result = std::panic::catch_unwind(|| {
        run(
            SvmPlatform::boxed(SvmConfig::paper(4)),
            RunConfig::new(4).with_shards(4),
            |p| {
                if p.pid() == 0 {
                    panic!("failed before first op");
                }
                // The other generators keep streaming large batches so
                // the unwind races live channel traffic.
                for i in 0..50_000u64 {
                    p.store(HEAP_BASE + (i % 512) * 8, 8, i);
                }
                p.barrier(0);
            },
        )
    });
    let payload = result.expect_err("the simulated panic must propagate");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        msg.contains("simulated processor panicked") && msg.contains("failed before first op"),
        "unexpected panic message: {msg}"
    );
}

/// Seeded randomized sweep over platform and scheduler configuration
/// points — processors per node, latencies, page sizes, quanta, trace
/// caps — comparing sharded against sequential on the stress kernel. A
/// failure names the seed so the point can be replayed in isolation.
#[test]
fn randomized_config_points_stay_bit_identical() {
    for case in 0..12u64 {
        let seed = 0x5AD_C0DE ^ (case << 16);
        let mut rng = XorShift64::new(seed);
        let nprocs = [2usize, 4, 8][rng.below(3) as usize];
        let mut svm = SvmConfig::paper(nprocs);
        // Random platform point.
        svm.procs_per_node = *[1usize, 2, nprocs]
            .iter()
            .filter(|&&ppn| nprocs.is_multiple_of(ppn))
            .nth(rng.below(2) as usize % 2)
            .unwrap();
        svm.wire_latency = 50 + rng.below(400);
        svm.handler_cost = 100 + rng.below(500);
        svm.fault_trap = 200 + rng.below(1500);
        svm.page_size = 1024 << rng.below(3);
        svm.barrier_manager_salt = rng.below(16) as u32;
        // Random scheduler point.
        let quantum = 100 + rng.below(4000);
        let trace_cap = 32 + rng.below(512) as usize;
        let words = 128 + rng.below(768);
        let iters = 2 + rng.below(3);
        let shards = [2usize, 4, nprocs][rng.below(3) as usize];
        let build = |s: usize| {
            let mut c = RunConfig::new(nprocs)
                .with_shards(s)
                .with_trace()
                .with_diag_cap(trace_cap)
                .named(format!("stress-{seed:#x}"));
            c.quantum = quantum;
            c
        };
        let body = stress_body(seed, words, iters);
        let oracle = run(SvmPlatform::boxed(svm.clone()), build(1), &body);
        let sharded = run(SvmPlatform::boxed(svm), build(shards), &body);
        assert_eq!(
            oracle, sharded,
            "seed {seed:#x} (case {case}, nprocs={nprocs}, shards={shards}): \
             sharded run diverged — replay with XorShift64::new({seed:#x})"
        );
    }
}
