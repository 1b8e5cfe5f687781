//! End-to-end tests of the happens-before race detector (tentpole of the
//! self-checking test harness): seeded racy kernels must be flagged and
//! their correctly-synchronized twins must pass, on all three platform
//! models; every application version must be data-race-free; and enabling
//! detection must not perturb timing by a single cycle.

use apps::{App, AppSpec, OptClass};
use sim_core::HEAP_BASE;
use svm_restructure::prelude::*;

const PLATFORMS: [PlatformKind; 3] = [PlatformKind::Svm, PlatformKind::Dsm, PlatformKind::Smp];

fn detecting(nprocs: usize, label: &str) -> RunConfig {
    RunConfig::new(nprocs).with_race_detection().named(label)
}

/// Two processors increment a shared counter with no synchronization.
fn unsync_counter(pf: PlatformKind, locked: bool) -> RunStats {
    run(
        pf.boxed(2),
        detecting(
            2,
            if locked {
                "counter-locked"
            } else {
                "counter-racy"
            },
        ),
        |p| {
            if p.pid() == 0 {
                let a = p.alloc_shared_labeled("counter", 8, 8, Placement::Node(0));
                p.store(a, 8, 0);
            }
            p.barrier(0);
            if locked {
                p.lock(7);
            }
            let v = p.load(HEAP_BASE, 8);
            p.work(50);
            p.store(HEAP_BASE, 8, v + 1);
            if locked {
                p.unlock(7);
            }
            p.barrier(1);
        },
    )
}

#[test]
fn unsynchronized_counter_is_flagged_on_every_platform() {
    for pf in PLATFORMS {
        let stats = unsync_counter(pf, false);
        assert!(
            stats.races() > 0,
            "{}: unsynchronized counter not flagged",
            pf.name()
        );
        // The report names the allocation and the run.
        let text = stats.race_summary();
        assert!(text.contains("counter"), "unhelpful report: {text}");
        assert!(text.contains("counter-racy"), "missing run label: {text}");
    }
}

#[test]
fn locked_counter_twin_is_clean_on_every_platform() {
    for pf in PLATFORMS {
        let stats = unsync_counter(pf, true);
        assert_eq!(
            stats.races(),
            0,
            "{}: locked counter flagged:\n{}",
            pf.name(),
            stats.race_summary()
        );
    }
}

/// A producer fills an array; consumers read it. `synced` inserts the
/// barrier between the phases; without it every consumer read races.
fn producer_consumer(pf: PlatformKind, synced: bool) -> RunStats {
    const WORDS: u64 = 64;
    run(pf.boxed(4), detecting(4, "producer-consumer"), |p| {
        if p.pid() == 0 {
            p.alloc_shared_labeled("feed", WORDS * 8, 8, Placement::RoundRobin);
        }
        p.barrier(0);
        if p.pid() == 0 {
            for i in 0..WORDS {
                p.store(HEAP_BASE + i * 8, 8, i * 3);
            }
        }
        if synced {
            p.barrier(1);
        }
        if p.pid() != 0 {
            for i in 0..WORDS {
                p.load(HEAP_BASE + i * 8, 8);
            }
        }
        p.barrier(2);
    })
}

#[test]
fn missing_barrier_is_flagged_on_every_platform() {
    for pf in PLATFORMS {
        let stats = producer_consumer(pf, false);
        assert!(
            stats.races() > 0,
            "{}: missing barrier not flagged",
            pf.name()
        );
        assert!(stats.race_summary().contains("feed"));
    }
}

#[test]
fn barrier_synchronized_twin_is_clean_on_every_platform() {
    for pf in PLATFORMS {
        let stats = producer_consumer(pf, true);
        assert_eq!(
            stats.races(),
            0,
            "{}: synchronized producer/consumer flagged:\n{}",
            pf.name(),
            stats.race_summary()
        );
    }
}

/// One side takes the lock, the other writes bare: the classic
/// inconsistently-protected variable.
fn lock_one_side(pf: PlatformKind, both: bool) -> RunStats {
    run(pf.boxed(2), detecting(2, "one-sided-lock"), |p| {
        if p.pid() == 0 {
            p.alloc_shared_labeled("flag", 8, 8, Placement::Node(0));
        }
        p.barrier(0);
        if p.pid() == 0 || both {
            p.lock(3);
            let v = p.load(HEAP_BASE, 8);
            p.store(HEAP_BASE, 8, v + 1);
            p.unlock(3);
        } else {
            let v = p.load(HEAP_BASE, 8);
            p.store(HEAP_BASE, 8, v + 1);
        }
        p.barrier(1);
    })
}

#[test]
fn one_sided_locking_is_flagged_on_every_platform() {
    for pf in PLATFORMS {
        assert!(
            lock_one_side(pf, false).races() > 0,
            "{}: one-sided locking not flagged",
            pf.name()
        );
        assert_eq!(
            lock_one_side(pf, true).races(),
            0,
            "{}: two-sided locking flagged",
            pf.name()
        );
    }
}

/// The load-bearing claim behind the simulator's determinism argument: the
/// whole application suite, in every optimization class, really is
/// data-race-free on every platform model.
#[test]
fn every_app_and_class_is_race_free_on_every_platform() {
    for pf in PLATFORMS {
        for app in App::ALL {
            for class in OptClass::ALL {
                let spec = AppSpec { app, class };
                let stats =
                    spec.run_cfg(pf, 4, Scale::Test, RunConfig::new(4).with_race_detection());
                assert_eq!(
                    stats.races(),
                    0,
                    "{} on {} raced:\n{}",
                    spec.label(),
                    pf.name(),
                    stats.race_summary()
                );
            }
        }
    }
}

/// Sharding must not blind the detector: the seeded racy counter is still
/// flagged when the run executes on the generate/replay engine (the op
/// streams of these kernels are value-independent, so the access pattern
/// the detector sees is the classic one).
#[test]
fn racy_kernels_are_still_flagged_under_sharding() {
    for pf in PLATFORMS {
        let stats = run(
            pf.boxed(2),
            RunConfig::new(2)
                .with_shards(2)
                .with_race_detection()
                .named("counter-racy-sharded"),
            |p| {
                if p.pid() == 0 {
                    let a = p.alloc_shared_labeled("counter", 8, 8, Placement::Node(0));
                    p.store(a, 8, 0);
                }
                p.barrier(0);
                let v = p.load(HEAP_BASE, 8);
                p.work(50);
                p.store(HEAP_BASE, 8, v + 1);
                p.barrier(1);
            },
        );
        assert!(
            stats.races() > 0,
            "{}: sharded engine lost the race report",
            pf.name()
        );
        assert!(stats.race_summary().contains("counter-racy-sharded"));
    }
}

/// Satellite invariance under sharding: with shards > 1, a detector-on run
/// must be bit-identical (timed `RunStats`, race list empty) to the
/// detector-off sharded run — the observer property holds on the parallel
/// engine too.
#[test]
fn detection_is_invisible_under_sharding() {
    for pf in PLATFORMS {
        for app in [App::Lu, App::Ocean] {
            let spec = AppSpec {
                app,
                class: OptClass::Orig,
            };
            let off = spec.run_cfg(pf, 4, Scale::Test, RunConfig::new(4).with_shards(4));
            let on = spec.run_cfg(
                pf,
                4,
                Scale::Test,
                RunConfig::new(4).with_shards(4).with_race_detection(),
            );
            assert!(on.races.is_empty());
            assert_eq!(
                off,
                on,
                "{} on {}: detector perturbed the sharded run",
                app.name(),
                pf.name()
            );
        }
    }
}

/// Detection must be an observer: enabling it cannot move a single cycle of
/// virtual time or any counter.
#[test]
fn detection_does_not_perturb_timing() {
    for pf in PLATFORMS {
        for app in [App::Lu, App::Ocean, App::Radix] {
            let spec = AppSpec {
                app,
                class: OptClass::Orig,
            };
            let off = spec.run(pf, 4, Scale::Test);
            let on = spec.run_cfg(pf, 4, Scale::Test, RunConfig::new(4).with_race_detection());
            assert!(on.races.is_empty());
            // Full structural equality: clocks, buckets, phases, counters.
            assert_eq!(
                off,
                on,
                "{} on {}: detector perturbed the run",
                app.name(),
                pf.name()
            );
        }
    }
}

/// A kernel that feeds the detector every event it reads — bulk and scalar
/// accesses, lock grants and releases, barriers and both timing
/// rendezvous: each processor fills its own row in bulk, reads its
/// neighbour's after a barrier, then bumps a shared counter, under a lock
/// unless `racy`.
fn stacked_kernel(pf: PlatformKind, racy: bool, cfg: RunConfig) -> RunStats {
    const ROW: usize = 64; // words per processor
    let n = cfg.nprocs;
    let row = |pid: usize| HEAP_BASE + (pid * ROW * 8) as u64;
    let counter = row(n);
    run(pf.boxed(n), cfg, move |p| {
        if p.pid() == 0 {
            let bytes = (n * ROW * 8 + 8) as u64;
            p.alloc_shared_labeled("cells", bytes, 8, Placement::RoundRobin);
        }
        p.barrier(0);
        p.start_timing();
        let mine: Vec<u64> = (0..ROW as u64).map(|i| i + p.pid() as u64).collect();
        p.store_slice(row(p.pid()), 8, 8, &mine);
        p.barrier(1);
        let mut seen = vec![0u64; ROW];
        p.load_slice(row((p.pid() + 1) % n), 8, 8, &mut seen);
        p.work(100);
        if !racy {
            p.lock(1);
        }
        let v = p.load(counter, 8);
        p.store(counter, 8, v + seen[0]);
        if !racy {
            p.unlock(1);
        }
        p.stop_timing();
    })
}

/// The detector is one consumer of the event stream among four: stacked
/// with the tracer, the metrics engine and the sharing profiler it reports
/// exactly what it reports alone, and the other three report exactly what
/// they report without it.
#[test]
fn detector_stacked_with_the_stream_layers_changes_no_layer() {
    let detecting = || RunConfig::new(4).with_race_detection().named("stacked");
    let streams = |cfg: RunConfig| cfg.with_trace().with_metrics(1024).with_sharing_profile();
    for pf in [PlatformKind::Svm, PlatformKind::Dsm] {
        for racy in [true, false] {
            let what = format!("{} racy={racy}", pf.name());
            let alone = stacked_kernel(pf, racy, detecting());
            let stacked = stacked_kernel(pf, racy, streams(detecting()));
            let without = stacked_kernel(pf, racy, streams(RunConfig::new(4).named("stacked")));
            assert_eq!(
                alone.races.is_empty(),
                !racy,
                "{what}: {}",
                alone.race_summary()
            );
            assert_eq!(
                alone.races, stacked.races,
                "{what}: the layers moved a report"
            );
            assert!(without.trace.is_some() && without.metrics.is_some());
            assert!(without.sharing.is_some(), "{what}");
            let mut streams_only = stacked;
            streams_only.races.clear();
            assert_eq!(streams_only, without, "{what}: the detector moved a layer");
        }
    }
}

/// The detector's window is the whole run, not the timed region: a race
/// during warm-up, before `start_timing`, is reported though the timed
/// region after it is clean — with the windowed layers on as well, whose
/// reset at `start_timing` must leave the detector alone.
#[test]
fn warm_up_race_before_start_timing_is_reported() {
    for pf in PLATFORMS {
        for stacked in [false, true] {
            let mut cfg = RunConfig::new(2).with_race_detection().named("warm-up");
            if stacked {
                cfg = cfg.with_trace().with_metrics(1024).with_sharing_profile();
            }
            let stats = run(pf.boxed(2), cfg, |p| {
                if p.pid() == 0 {
                    p.alloc_shared_labeled("warm", 24, 8, Placement::Node(0));
                }
                p.barrier(0);
                // Both processors write word 0 with nothing ordering them.
                p.store(HEAP_BASE, 8, p.pid() as u64);
                p.start_timing();
                // The timed region writes disjoint words only.
                p.store(HEAP_BASE + 8 * (1 + p.pid() as u64), 8, 1);
                p.barrier(1);
                p.stop_timing();
            });
            let text = stats.race_summary();
            assert!(
                stats.races() > 0,
                "{} stacked={stacked}: warm-up race lost",
                pf.name()
            );
            assert!(text.contains("warm"), "{text}");
            assert!(
                stats.races.iter().all(|r| r.addr < HEAP_BASE + 8),
                "{}: the timed region is clean:\n{text}",
                pf.name()
            );
        }
    }
}
