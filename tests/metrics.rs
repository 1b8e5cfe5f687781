//! Interval-metrics invariants (diagnostics layer 4): the metrics engine
//! must be invisible (statistics bit-identical with it on or off, even when
//! its buffers overflow), deterministic, identical field-for-field across
//! the sequential and fused engines at equal caps, and its
//! trajectory classifier must tell seeded migratory pages from their
//! false-sharing twins on the page-based platforms.

use apps::{App, AppSpec, OptClass};
use sim_core::{PageTrajectory, RunConfig, HEAP_BASE, PAGE_SIZE};
use svm_restructure::prelude::*;

const PLATFORMS: [PlatformKind; 4] = [
    PlatformKind::Svm,
    PlatformKind::Dsm,
    PlatformKind::Smp,
    PlatformKind::Tmk,
];

/// Small sampling interval so the test-scale cells span many intervals.
const IV: u64 = 1 << 12;

fn run_cell(pf: PlatformKind, app: App, cfg: RunConfig) -> RunStats {
    AppSpec {
        app,
        class: OptClass::Orig,
    }
    .run_cfg(pf, 4, Scale::Test, cfg)
}

#[test]
fn metrics_are_invisible_on_all_platforms() {
    for pf in PLATFORMS {
        let plain = run_cell(pf, App::Ocean, RunConfig::new(4));
        assert!(plain.metrics.is_none(), "{pf:?}: metrics must be opt-in");
        let mut on = run_cell(pf, App::Ocean, RunConfig::new(4).with_metrics(IV));
        let m = on.metrics.take().expect("metrics were requested");
        assert!(
            m.procs.iter().all(|p| p.samples.len() >= 2),
            "{pf:?}: every proc samples at least start and settle"
        );
        assert_eq!(m.total_dropped(), 0, "{pf:?}: default caps overflowed");
        // With the report stripped, the runs must be bit-identical.
        assert_eq!(on, plain, "{pf:?}: metrics perturbed the run");
    }
}

#[test]
fn metrics_runs_are_deterministic() {
    let a = run_cell(
        PlatformKind::Svm,
        App::Ocean,
        RunConfig::new(4).with_metrics(IV),
    );
    let b = run_cell(
        PlatformKind::Svm,
        App::Ocean,
        RunConfig::new(4).with_metrics(IV),
    );
    assert_eq!(a, b, "same metrics run twice must match, report included");
}

#[test]
fn reports_are_identical_across_engines() {
    // Samples are taken inside the shared step API at virtual times both
    // engines reproduce exactly, so the whole RunStats — report included —
    // must agree.
    for pf in PLATFORMS {
        let cfg = || RunConfig::new(4).with_metrics(IV);
        let seq = run_cell(pf, App::Ocean, cfg());
        let fused = run_cell(pf, App::Ocean, cfg().with_shards(4));
        assert!(seq.metrics.is_some());
        assert_eq!(seq, fused, "{pf:?}: fused report differs");
    }
}

#[test]
fn cap_drops_are_counted_and_shard_count_independent() {
    // All metrics buffers live on the replay side, so at equal caps the
    // drop totals cannot depend on the shard count — and a full buffer
    // must not perturb the run.
    let tight = |shards: usize| {
        RunConfig::new(4)
            .with_shards(shards)
            .with_metrics(IV)
            .with_diag_cap(2)
    };
    let plain = run_cell(PlatformKind::Svm, App::Ocean, RunConfig::new(4));
    let mut seq = run_cell(PlatformKind::Svm, App::Ocean, tight(1));
    let m = seq.metrics.take().expect("metrics were requested");
    assert!(m.total_dropped() > 0, "cap of 2 should overflow");
    for p in &m.procs {
        assert!(p.samples.len() <= 2, "per-proc cap not enforced");
    }
    assert!(
        m.pages.len() <= 2 && m.locks.len() <= 2,
        "caps not enforced"
    );
    assert_eq!(seq, plain, "full metrics buffers perturbed the run");
    for shards in [2, 4] {
        let shd = run_cell(PlatformKind::Svm, App::Ocean, tight(shards))
            .metrics
            .expect("metrics were requested");
        assert_eq!(
            m, shd,
            "shards={shards}: capped report depends on shard count"
        );
    }
}

#[test]
fn max_interval_counts_the_event_series() {
    // One sample per processor fits the cap, so the processor series ends
    // at interval 0; only the event series reaches interval 10. Sparklines
    // are sized from `max_interval`, so it must see the event.
    let cfg = RunConfig::new(1).with_metrics(10).with_diag_cap(1);
    let stats = sim_core::run(Box::new(sim_core::NullPlatform::new(1)), cfg, |p| {
        p.start_timing();
        p.work(100);
        p.metric_add("x", 1);
    });
    let m = stats.metrics.expect("metrics were requested");
    assert_eq!(m.events.len(), 1);
    assert_eq!(m.events[0].procs[0], vec![(10, 1)]);
    assert_eq!(m.max_interval(), 10);
}

/// Seeded trajectory kernels on one shared labeled page: in the migratory
/// version, rounds take turns — exactly one processor rewrites the page per
/// round — while in the false-sharing twin every processor writes its own
/// disjoint word range every round. Whole-run sharing profiles cannot tell
/// these apart (both have 4 writers and word-disjoint write sets); the
/// interval classifier must.
fn trajectory_twin(pf: PlatformKind, false_twin: bool) -> sim_core::MetricsReport {
    let n = 4usize;
    // Diffs flush at barrier-entry times, which spread over the serialized
    // page-fetch stalls (~16k cycles on SVM); the interval must dwarf that
    // spread so one round's concurrent writers share an interval.
    const KIV: u64 = 1 << 17;
    let stats = run(
        pf.boxed(n),
        RunConfig::new(n).with_metrics(KIV).named(if false_twin {
            "steady-false-twin"
        } else {
            "migratory-kernel"
        }),
        move |p| {
            if p.pid() == 0 {
                let a = p.alloc_shared_labeled("grid", PAGE_SIZE, PAGE_SIZE, Placement::Node(0));
                for w in 0..32u64 {
                    p.store(a + w * 4, 4, 0);
                }
            }
            p.barrier(0);
            p.start_timing();
            for round in 0..12u64 {
                if false_twin {
                    for w in 0..8u64 {
                        let a = HEAP_BASE + (p.pid() as u64 * 8 + w) * 4;
                        p.store(a, 4, round + 1);
                    }
                } else if round % n as u64 == p.pid() as u64 {
                    for w in 0..32u64 {
                        p.store(HEAP_BASE + w * 4, 4, round + 1);
                    }
                }
                // Two interval lengths of compute: consecutive rounds land
                // in distinct sampling intervals on every processor.
                p.work(2 * KIV);
                p.barrier(1 + round as u32);
            }
            p.stop_timing();
        },
    );
    stats.metrics.expect("metrics were requested")
}

#[test]
fn migratory_and_false_sharing_twins_are_told_apart() {
    for pf in [PlatformKind::Svm, PlatformKind::Tmk] {
        let mig = trajectory_twin(pf, false);
        let pg = mig.page(HEAP_BASE).expect("grid page saw traffic");
        assert_eq!(pg.label, "grid");
        assert!(pg.writers.len() >= 2, "{pf:?}: ownership never migrated");
        assert_eq!(
            pg.trajectory,
            PageTrajectory::Migratory,
            "{pf:?}: turn-taking writers misclassified \
             (single={}, multi={})",
            pg.single_intervals,
            pg.multi_intervals
        );
        assert_eq!(
            mig.label_trajectory("grid"),
            Some(PageTrajectory::Migratory)
        );

        let fs = trajectory_twin(pf, true);
        let pg = fs.page(HEAP_BASE).expect("grid page saw traffic");
        // All four write every round, but on home-based HLRC the page's
        // home node updates its copy in place and never flushes a diff, so
        // it is invisible to the writer footprint.
        assert!(pg.writers.len() >= 3, "{pf:?}: concurrent writers missing");
        assert!(!pg.overlap, "{pf:?}: word ranges are disjoint");
        assert_eq!(
            pg.trajectory,
            PageTrajectory::SteadyFalse,
            "{pf:?}: concurrent disjoint writers misclassified \
             (single={}, multi={})",
            pg.single_intervals,
            pg.multi_intervals
        );
    }
}

#[test]
fn ocean_orig_psi_is_phase_shifting_at_default_scale() {
    // Ocean Orig's unpadded psi grid alternates between migratory interior
    // turns and concurrent boundary writes as red-black sweeps proceed: at
    // an interval matched to the sweep period the classifier must call the
    // label phase-shifting — the signature the whole-run profile (which
    // just says "false sharing") cannot see.
    let stats = AppSpec {
        app: App::Ocean,
        class: OptClass::Orig,
    }
    .run_cfg(
        PlatformKind::Svm,
        16,
        Scale::Default,
        RunConfig::new(16).with_metrics(1 << 18),
    );
    let m = stats.metrics.expect("metrics were requested");
    assert_eq!(
        m.label_trajectory("psi"),
        Some(PageTrajectory::PhaseShifting),
        "psi trajectory changed"
    );
}

#[test]
fn kv_request_events_are_recorded_and_engine_identical() {
    let cfg = || RunConfig::new(4).with_metrics(IV);
    let seq = run_cell(PlatformKind::Svm, App::Kv, cfg());
    let m = seq.metrics.as_ref().expect("metrics were requested");
    let ev = m
        .events
        .iter()
        .find(|e| e.name == "kv_requests")
        .expect("KV store reports served requests");
    assert!(ev.total() > 0);
    // Requests served are workload-conserving: every generated request is
    // served exactly once, whatever the interleaving.
    let fused = run_cell(PlatformKind::Svm, App::Kv, cfg().with_shards(4));
    assert_eq!(seq, fused, "fused KV metrics differ");
}
