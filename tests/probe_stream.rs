//! Completeness of the protocol event stream: every protocol action the
//! platforms *count* must also be *reported*. One seeded data-race-free
//! kernel that touches shared memory only inside the timed region runs on
//! all four platforms with tracing on and nothing dropped; the traced
//! events are then summed against the `RunStats` counters.
//!
//! Where the definitions legitimately differ:
//! * **smp-bus** has no `remote_fetches` (memory is centralized): it
//!   marks a `RemoteMiss` event `traced` only for cache-to-cache
//!   transfers, while *every* bus-serviced miss is recorded (it is a stall
//!   for the critical path) and lands in the fetch-wait histogram. The
//!   test pins exactly that.
//! * **svm-hlrc** home-node writes happen in place: no diff, no event, no
//!   counter — consistent on both sides, so the sums still agree.

use sim_core::util::XorShift64;
use sim_core::{run, EventKind, Placement, RunConfig, RunStats, HEAP_BASE, PAGE_SIZE};
use svm_restructure::prelude::*;

const NPROCS: usize = 4;
const PAGES: u64 = 8;
const ROUNDS: u64 = 6;
/// The lock-protected counter lives in a page of its own.
const COUNTER: u64 = HEAP_BASE + PAGES * PAGE_SIZE;

/// Each round: every processor writes its own word slots of random pages
/// (word-disjoint, page-shared), bumps a lock-protected counter while still
/// holding dirty pages (so write notices hit dirty copies), then — between
/// two barriers, when nobody writes — reads random words of any page.
fn kernel(p: &mut Proc) {
    if p.pid() == 0 {
        p.alloc_shared((PAGES + 1) * PAGE_SIZE, 8, Placement::RoundRobin);
    }
    p.barrier(0);
    p.start_timing();
    let me = p.pid() as u64;
    let mut rng = XorShift64::new(0x5EED ^ (me << 16));
    for round in 0..ROUNDS {
        for _ in 0..12 {
            let (page, slot) = (rng.below(PAGES), rng.below(32));
            let word = slot * NPROCS as u64 + me;
            p.store(HEAP_BASE + page * PAGE_SIZE + word * 8, 8, round);
        }
        p.lock(1);
        let v = p.load(COUNTER, 8);
        p.store(COUNTER, 8, v + 1);
        p.unlock(1);
        p.barrier(1);
        for _ in 0..12 {
            let (page, word) = (rng.below(PAGES), rng.below(PAGE_SIZE / 8));
            p.load(HEAP_BASE + page * PAGE_SIZE + word * 8, 8);
        }
        p.barrier(2);
    }
    p.stop_timing();
}

/// Traced events matching `pick`, summed over processors.
fn events(stats: &RunStats, pick: impl Fn(&EventKind) -> bool) -> u64 {
    let trace = stats.trace.as_ref().expect("tracing was requested");
    assert_eq!(trace.dropped_events(), 0, "the kernel must fit the cap");
    let all = trace.procs.iter().flat_map(|p| &p.events);
    all.filter(|e| pick(&e.kind)).count() as u64
}

fn fetch_samples(stats: &RunStats) -> u64 {
    stats.trace.as_ref().unwrap().merged_hists().0.count()
}

fn traced(pf: PlatformKind, shards: usize) -> RunStats {
    let cfg = RunConfig::new(NPROCS).with_shards(shards).with_trace();
    run(pf.boxed(NPROCS), cfg, kernel)
}

#[test]
fn page_platforms_report_every_counted_action() {
    for pf in [PlatformKind::Svm, PlatformKind::Tmk] {
        for shards in [1, 2] {
            let stats = traced(pf, shards);
            let c = stats.sum_counters();
            let what = format!("{pf:?} shards={shards}");
            assert!(
                c.remote_fetches > 0 && c.diffs_created > 0 && c.invalidations > 0,
                "{what}: the kernel must exercise the protocol"
            );
            let n = |pick: fn(&EventKind) -> bool| events(&stats, pick);
            assert_eq!(
                n(|k| matches!(k, EventKind::PageFetchDone { .. })),
                c.remote_fetches,
                "{what}: page fetches"
            );
            assert_eq!(fetch_samples(&stats), c.remote_fetches, "{what}: samples");
            assert_eq!(
                n(|k| matches!(k, EventKind::DiffCreated { .. })),
                c.diffs_created,
                "{what}: diffs created"
            );
            assert_eq!(
                n(|k| matches!(k, EventKind::DiffApplied { .. })),
                c.diffs_applied,
                "{what}: diffs applied"
            );
            assert_eq!(
                n(|k| matches!(k, EventKind::Invalidation { .. })),
                c.invalidations,
                "{what}: invalidations"
            );
        }
    }
}

#[test]
fn hardware_platforms_report_every_counted_miss() {
    let is_miss = |k: &EventKind| matches!(k, EventKind::RemoteMiss { traced: true, .. });
    let any_miss = |k: &EventKind| matches!(k, EventKind::RemoteMiss { .. });
    for shards in [1, 2] {
        let dsm = traced(PlatformKind::Dsm, shards);
        let remote = dsm.sum_counters().remote_fetches;
        assert!(remote > 0, "DSM shards={shards}: no remote misses");
        assert_eq!(events(&dsm, is_miss), remote, "DSM shards={shards}");
        assert_eq!(fetch_samples(&dsm), remote, "DSM shards={shards}");

        // See the module docs: the bus marks cache-to-cache transfers,
        // records and samples every bus-serviced miss, and counts no
        // remote fetches.
        let smp = traced(PlatformKind::Smp, shards);
        let c2c = events(&smp, is_miss);
        assert_eq!(smp.sum_counters().remote_fetches, 0);
        assert!(c2c > 0, "SMP shards={shards}: no cache-to-cache transfer");
        assert!(c2c < fetch_samples(&smp), "SMP shards={shards}");
        assert_eq!(
            events(&smp, any_miss),
            fetch_samples(&smp),
            "SMP shards={shards}"
        );
    }
}
