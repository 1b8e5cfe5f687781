//! The run drivers: [`run`], the one engine dispatch, and the sequential
//! engine it defaults to, with the set-up and harvest every engine shares.

use std::sync::Arc;

use crate::inner::Inner;
use crate::platform::Platform;
use crate::probe::Probe;
use crate::proc::{Backend, Proc, Shared};
use crate::stats::RunStats;
use crate::RunConfig;

/// The message of a caught panic, as `panic!` produced it.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "simulated processor panicked".into())
}

/// Execute `body` on `cfg.nprocs` simulated processors over `platform` and
/// return the per-processor statistics of the timed region.
///
/// The body is invoked once per processor. The conventional shape is:
///
/// ```text
/// if p.pid() == 0 { allocate + initialize shared data }
/// p.barrier(INIT_BARRIER);
/// p.start_timing();
/// ... parallel computation ...
/// p.barrier(FINAL_BARRIER);
/// ```
pub fn run<F>(platform: Box<dyn Platform>, cfg: RunConfig, body: F) -> RunStats
where
    F: Fn(&mut Proc) + Sync,
{
    // The sharded engine requires the platform to certify (via the
    // min-cross-node-latency hook) that all cross-processor interactions
    // are mediated by replayed protocol actions; platforms that do not
    // fall back to the sequential engine.
    if cfg.shards > 1 && platform.min_cross_node_latency().is_some() {
        crate::shard::run_sharded(platform, cfg, body)
    } else {
        run_classic(platform, cfg, body)
    }
}

/// Build the scheduler state both engines (sequential and fused replay)
/// drive, its platform wired to the run's probe.
pub(crate) fn build_inner(mut platform: Box<dyn Platform>, cfg: &RunConfig) -> Inner {
    assert_eq!(
        platform.nprocs(),
        cfg.nprocs,
        "platform and RunConfig disagree on processor count"
    );
    assert!(cfg.nprocs >= 1);
    let probe = Probe::for_run(cfg);
    platform.set_probe(probe.clone());
    Inner::new(platform, probe, cfg)
}

/// Harvest a completed run's `Inner` into `RunStats`: platform
/// finalization and the frozen diagnostic consumers, race reports
/// included, with addresses attributed to allocation labels. Shared by
/// both engines.
pub(crate) fn collect_stats(mut inner: Inner, cfg: &RunConfig) -> RunStats {
    inner.platform.finalize(&mut inner.stats);
    inner.flush();
    let sinks = inner.probe.map(|p| p.finish()).unwrap_or_default();
    let alloc = &inner.alloc;
    let label_of = |addr| alloc.label_of(addr);
    RunStats {
        sharing: sinks.sharing.map(|s| s.into_profile(label_of)),
        trace: sinks.trace.map(|t| {
            t.into_trace(
                cfg.label.clone(),
                cfg.phase_names.clone(),
                &inner.clocks,
                alloc.labeled_spans(),
            )
        }),
        metrics: sinks.metrics.map(|m| m.into_report(label_of)),
        races: (sinks.races.map(|d| d.into_reports(label_of))).unwrap_or_default(),
        procs: inner.stats,
        clocks: inner.clocks,
        phase_names: cfg.phase_names.clone(),
    }
}

/// The sequential engine: one coroutine per simulated processor, all on the
/// calling host thread, exactly one running at a time, every simulated
/// event priced inline: the `shards = 1` oracle, and the engine every run
/// on a platform without a cross-node latency bound uses.
pub(crate) fn run_classic<F>(platform: Box<dyn Platform>, cfg: RunConfig, body: F) -> RunStats
where
    F: Fn(&mut Proc) + Sync,
{
    let shared = Arc::new(Shared::new(cfg.nprocs, build_inner(platform, &cfg)));

    // Processor 0 starts with the turn (see `build_inner`). A panic inside a
    // simulated processor (an application assertion, a detected deadlock)
    // comes back as `Err` once every other processor has been unwound out
    // of the call it was suspended in, its destructors run.
    let outcome = shared.drive(0, &|pid| {
        let mut proc = Proc::new(pid, &cfg, Backend::Classic(Arc::clone(&shared)));
        body(&mut proc);
        proc.finish()
    });

    let mut inner = Arc::try_unwrap(shared)
        .ok()
        .expect("every simulated processor dropped its handle")
        .into_state();
    if let Err((pid, payload)) = outcome {
        // A deadlock is nobody's fault in particular: no `p{pid}` prefix.
        let msg = inner
            .deadlock
            .take()
            .unwrap_or_else(|| format!("p{pid}: {}", panic_message(&*payload)));
        panic!("simulated processor panicked: {msg}");
    }
    collect_stats(inner, &cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coro::tests::CountDrop;
    use crate::platform::NullPlatform;
    use crate::stats::Bucket;
    use crate::HEAP_BASE;

    fn null_run<F: Fn(&mut Proc) + Sync>(n: usize, f: F) -> RunStats {
        run(Box::new(NullPlatform::new(n)), RunConfig::new(n), f)
    }

    #[test]
    fn single_proc_runs_to_completion() {
        let stats = null_run(1, |p| {
            p.start_timing();
            p.work(100);
        });
        assert_eq!(stats.total_cycles(), 100);
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        let stats = null_run(4, |p| {
            p.start_timing();
            p.work((p.pid() as u64 + 1) * 100);
            p.barrier(0);
        });
        // All procs resume at the max arrival (400).
        for c in &stats.clocks {
            assert_eq!(*c, 400);
        }
        // Proc 0 waited 300 cycles at the barrier.
        assert_eq!(stats.procs[0].get(Bucket::BarrierWait), 300);
        assert_eq!(stats.procs[3].get(Bucket::BarrierWait), 0);
    }

    #[test]
    fn locks_provide_mutual_exclusion_in_virtual_time() {
        // All procs increment a shared counter under a lock; final value must
        // equal nprocs * iters, which only holds if the lock serializes.
        let n = 8;
        let iters = 25;
        let stats = null_run(n, |p| {
            p.start_timing();
            for _ in 0..iters {
                p.lock(7);
                let v = p.load(HEAP_BASE, 8);
                p.work(5);
                p.store(HEAP_BASE, 8, v + 1);
                p.unlock(7);
            }
            p.barrier(1);
        });
        // Re-run to read the value: instead assert via a writer-proc trick.
        // (Value lives inside the platform; verify using observable effects:
        // total lock acquisitions and absence of deadlock.)
        let c = stats.sum_counters();
        assert_eq!(c.lock_acquires, (n * iters) as u64);
    }

    #[test]
    fn lock_serialization_result_is_correct() {
        // Verify the final counter value via an extra read phase.
        let n = 4;
        let iters = 10;
        let observed = std::sync::Mutex::new(0u64);
        null_run(n, |p| {
            p.start_timing();
            for _ in 0..iters {
                p.lock(7);
                let v = p.load(HEAP_BASE, 8);
                p.store(HEAP_BASE, 8, v + 1);
                p.unlock(7);
            }
            p.barrier(1);
            if p.pid() == 0 {
                *observed.lock().unwrap() = p.load(HEAP_BASE, 8);
            }
        });
        assert_eq!(*observed.lock().unwrap(), (n * iters) as u64);
    }

    #[test]
    fn runs_are_deterministic() {
        let go = || {
            null_run(6, |p| {
                p.start_timing();
                for i in 0..50u64 {
                    p.work(i % 7);
                    p.store(HEAP_BASE + 8 * (p.pid() as u64), 8, i);
                    if i % 10 == 0 {
                        p.lock(3);
                        p.work(2);
                        p.unlock(3);
                    }
                }
                p.barrier(0);
            })
        };
        let a = go();
        let b = go();
        assert_eq!(a.clocks, b.clocks);
        for (x, y) in a.procs.iter().zip(&b.procs) {
            for bkt in Bucket::ALL {
                assert_eq!(x.get(bkt), y.get(bkt));
            }
        }
    }

    #[test]
    fn start_timing_resets_clocks_and_stats() {
        let stats = null_run(2, |p| {
            p.work(10_000); // before timing: ignored (timing off anyway)
            p.barrier(9);
            p.start_timing();
            p.work(50);
            p.barrier(10);
        });
        assert_eq!(stats.total_cycles(), 50);
    }

    #[test]
    fn data_written_before_barrier_is_visible_after() {
        let seen = std::sync::Mutex::new(vec![0u64; 4]);
        null_run(4, |p| {
            p.start_timing();
            p.store(HEAP_BASE + 8 * p.pid() as u64, 8, 100 + p.pid() as u64);
            p.barrier(0);
            let neighbour = (p.pid() + 1) % 4;
            let v = p.load(HEAP_BASE + 8 * neighbour as u64, 8);
            seen.lock().unwrap()[p.pid()] = v;
            p.barrier(1);
        });
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen, vec![101, 102, 103, 100]);
    }

    #[test]
    fn contended_lock_grants_by_virtual_arrival_order() {
        // Proc 0 grabs the lock first (it starts Running), works a long
        // time inside, and everyone else queues. Order of grants must follow
        // virtual arrival times, which equal request issue times here.
        let order = std::sync::Mutex::new(Vec::new());
        // A tight quantum keeps virtual-time ordering exact for this test.
        let cfg = RunConfig {
            quantum: 10,
            ..RunConfig::new(4)
        };
        run(Box::new(NullPlatform::new(4)), cfg, |p| {
            p.start_timing();
            // Stagger arrivals: pid k issues acquire at ~k*10 cycles.
            p.work(p.pid() as u64 * 10 + 1);
            p.lock(0);
            order.lock().unwrap().push(p.pid());
            p.work(1000); // long critical section forces queueing
            p.unlock(0);
            p.barrier(0);
        });
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn work_before_start_timing_is_free() {
        let stats = null_run(2, |p| {
            p.work(1_000_000);
            p.store(HEAP_BASE, 8, 1);
            p.start_timing();
            p.work(10);
            p.barrier(0);
        });
        assert_eq!(stats.total_cycles(), 10);
        // The pre-timing store still took effect on state, not on stats.
        assert_eq!(stats.sum(Bucket::Compute), 20);
    }

    #[test]
    fn stop_timing_freezes_clock() {
        let stats = null_run(2, |p| {
            p.start_timing();
            p.work(100);
            p.stop_timing();
            p.work(1_000_000); // untimed epilogue
            p.load(HEAP_BASE, 8);
        });
        assert_eq!(stats.total_cycles(), 100);
    }

    #[test]
    #[should_panic(expected = "simulated processor panicked")]
    fn deadlock_is_detected() {
        null_run(2, |p| {
            p.start_timing();
            if p.pid() == 0 {
                p.lock(0);
                p.barrier(0); // holds the lock across a barrier p1 never reaches
            } else {
                p.lock(0); // blocks forever
                p.barrier(0);
            }
        });
    }

    /// The panic `run` ends with.
    fn run_panic_message(f: impl FnOnce() -> RunStats) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the run must panic");
        panic_message(&*payload)
    }

    #[test]
    fn panic_unwinds_every_suspended_processor() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let n = 4;
        let (drops, at_barrier) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let msg = run_panic_message(|| {
            null_run(n, |p| {
                let _guard = CountDrop(&drops);
                p.start_timing();
                if p.pid() == 0 {
                    // Long enough to yield to 1..n, who all reach the
                    // barrier and block there before p0 gets the turn back.
                    p.work(10_000);
                    assert_eq!(at_barrier.load(Ordering::Relaxed), n - 1);
                    panic!("boom");
                }
                at_barrier.fetch_add(1, Ordering::Relaxed);
                p.barrier(0);
            })
        });
        assert_eq!(msg, "simulated processor panicked: p0: boom");
        assert_eq!(drops.load(Ordering::Relaxed), n, "one drop per guard");

        // Nothing of the poisoned run lingers on this host thread.
        let stats = null_run(n, |p| {
            p.start_timing();
            p.work(5);
            p.barrier(0);
        });
        assert_eq!(stats.total_cycles(), 5);
    }

    #[test]
    fn deadlock_unwinds_every_suspended_processor() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let drops = AtomicUsize::new(0);
        let msg = run_panic_message(|| {
            // The kernel of `deadlock_is_detected`.
            null_run(2, |p| {
                let _guard = CountDrop(&drops);
                p.start_timing();
                p.lock(0); // p1 blocks here forever...
                p.barrier(0); // ...because p0 waits here holding the lock
            })
        });
        assert!(
            msg.starts_with("simulated processor panicked: simulated deadlock: no runnable"),
            "{msg}"
        );
        assert_eq!(drops.load(Ordering::Relaxed), 2, "one drop per guard");
    }
}
