//! Lazy-release-consistency semantics litmus tests run through the public
//! facade: the LRC platforms must deliver exactly the guarantees
//! data-race-free programs rely on. The litmus tests run on HLRC, on
//! TreadMarks, and on HLRC with two-processor nodes; the home-placement and
//! lock-fairness tests are about HLRC alone.

use sim_core::platform::Platform;
use sim_core::{run, Placement, RunConfig, HEAP_BASE, PAGE_SIZE};
use svm_hlrc::{SvmConfig, SvmPlatform, TmkPlatform};

fn svm<F: Fn(&mut sim_core::Proc) + Sync>(n: usize, f: F) -> sim_core::RunStats {
    run(
        SvmPlatform::boxed(SvmConfig::paper(n)),
        RunConfig::new(n),
        f,
    )
}

/// Every LRC platform a litmus test runs on, by name, for `n` processors.
fn lrc_platforms(n: usize) -> [(&'static str, Box<dyn Platform>); 3] {
    [
        ("hlrc", SvmPlatform::boxed(SvmConfig::paper(n))),
        ("tmk", TmkPlatform::boxed(SvmConfig::paper(n))),
        (
            "hlrc ppn=2",
            SvmPlatform::boxed(SvmConfig::paper_smp_nodes(n, 2)),
        ),
    ]
}

#[test]
fn message_passing_through_a_lock_chain() {
    // p0 -> p1 -> p2 -> p3: each forwards a value one page over, all under
    // the same lock. Causality must carry all previous writes.
    for (name, platform) in lrc_platforms(4) {
        let final_val = std::sync::Mutex::new(0u64);
        run(platform, RunConfig::new(4), |p| {
            if p.pid() == 0 {
                p.alloc_shared(4 * PAGE_SIZE, 8, Placement::RoundRobin);
            }
            p.barrier(0);
            p.start_timing();
            let slot = |i: usize| HEAP_BASE + (i as u64) * PAGE_SIZE;
            if p.pid() == 0 {
                p.lock(1);
                p.store(slot(0), 8, 1000);
                p.unlock(1);
            }
            // Token-style handoff via barriers between stages, writes via lock.
            for stage in 1..4 {
                p.barrier(stage as u32);
                if p.pid() == stage {
                    p.lock(1);
                    let v = p.load(slot(stage - 1), 8);
                    p.store(slot(stage), 8, v + 1);
                    p.unlock(1);
                }
            }
            p.barrier(9);
            if p.pid() == 3 {
                *final_val.lock().unwrap() = p.load(slot(3), 8);
            }
            p.barrier(10);
        });
        assert_eq!(final_val.into_inner().unwrap(), 1003, "{name}");
    }
}

#[test]
fn concurrent_writers_on_one_page_never_lose_updates() {
    // Heavy word-level false sharing: 8 processors repeatedly increment
    // disjoint counters that all live on one page, under distinct locks,
    // across several barrier epochs.
    let n = 8;
    for (name, platform) in lrc_platforms(n) {
        let sums = std::sync::Mutex::new(vec![0u64; n]);
        run(platform, RunConfig::new(n), |p| {
            if p.pid() == 0 {
                p.alloc_shared(PAGE_SIZE, 8, Placement::Node(3));
            }
            p.barrier(0);
            p.start_timing();
            let mine = HEAP_BASE + 8 * p.pid() as u64;
            for epoch in 0..5u32 {
                for _ in 0..3 {
                    let v = p.load(mine, 8);
                    p.store(mine, 8, v + 1);
                }
                p.barrier(1 + epoch);
            }
            // NB: perform the simulated load *before* taking the host-side
            // mutex — Proc operations may suspend the calling simulated
            // processor to run another one, and that processor might itself
            // try to take the host mutex.
            let v = p.load(mine, 8);
            sums.lock().unwrap()[p.pid()] = v;
            p.barrier(100);
        });
        assert_eq!(*sums.into_inner().unwrap(), vec![15u64; 8], "{name}");
    }
}

#[test]
fn reader_sees_all_prior_epochs_after_barrier() {
    // Each epoch a different writer appends; after each barrier all
    // processors must observe the full history.
    let n = 4;
    for (name, platform) in lrc_platforms(n) {
        run(platform, RunConfig::new(n), |p| {
            if p.pid() == 0 {
                p.alloc_shared(PAGE_SIZE, 8, Placement::Node(1));
            }
            p.barrier(0);
            p.start_timing();
            for epoch in 0..4usize {
                if p.pid() == epoch {
                    p.store(HEAP_BASE + 8 * epoch as u64, 8, 70 + epoch as u64);
                }
                p.barrier(1 + epoch as u32);
                for k in 0..=epoch {
                    assert_eq!(
                        p.load(HEAP_BASE + 8 * k as u64, 8),
                        70 + k as u64,
                        "{name}: p{} epoch {epoch} slot {k}",
                        p.pid()
                    );
                }
            }
        });
    }
}

#[test]
fn lock_grant_order_is_fair_in_virtual_time() {
    // With a tight quantum, lock grants follow virtual request order.
    let order = std::sync::Mutex::new(Vec::new());
    run(
        SvmPlatform::boxed(SvmConfig::paper(4)),
        RunConfig {
            quantum: 50,
            ..RunConfig::new(4)
        },
        |p| {
            p.start_timing();
            p.work(1 + 5_000 * p.pid() as u64);
            p.lock(2);
            order.lock().unwrap().push(p.pid());
            p.work(60_000);
            p.unlock(2);
            p.barrier(0);
        },
    );
    assert_eq!(*order.into_inner().unwrap(), vec![0, 1, 2, 3]);
}

#[test]
fn home_pages_are_never_fetched_by_their_owner() {
    let stats = svm(2, |p| {
        if p.pid() == 0 {
            p.alloc_shared(8 * PAGE_SIZE, 8, Placement::Node(0));
        }
        p.barrier(0);
        p.start_timing();
        if p.pid() == 0 {
            for i in 0..8u64 {
                p.store(HEAP_BASE + i * PAGE_SIZE, 8, i);
            }
        }
        p.barrier(1);
    });
    assert_eq!(stats.procs[0].counters.remote_fetches, 0);
    assert_eq!(
        stats.procs[0].counters.twins_created, 0,
        "home writes in place"
    );
}
