//! Misusing a lock is an application bug the scheduler reports, on every
//! engine, as the run's panic naming the processor at fault:
//! `simulated processor panicked: p{pid}: …`.

use sim_core::{run, Proc, RunConfig};
use svm_hlrc::{SvmConfig, SvmPlatform};

/// The panic a two-processor SVM run of `body` ends with, on the
/// sequential engine (`shards = 1`) or the sharded one with fused replay.
fn panic_of(shards: usize, body: impl Fn(&mut Proc) + Sync) -> String {
    let cfg = RunConfig::new(2).with_shards(shards);
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run(SvmPlatform::boxed(SvmConfig::paper(2)), cfg, &body)
    }))
    .expect_err("lock misuse must fail the run");
    payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default()
}

#[test]
fn lock_misuse_panics_name_the_processor_on_both_engines() {
    for shards in [1, 2] {
        let msg = panic_of(shards, |p| {
            if p.pid() == 0 {
                p.lock(0);
            }
            p.barrier(0);
            if p.pid() == 1 {
                p.unlock(0); // held by p0
            }
            p.barrier(1);
        });
        assert!(
            msg.starts_with("simulated processor panicked: p1: ")
                && msg.contains("unlock by non-holder p1"),
            "shards={shards}: {msg}"
        );

        let msg = panic_of(shards, |p| {
            if p.pid() == 0 {
                p.unlock(7); // never taken by anyone
            }
            p.barrier(0);
        });
        assert!(
            msg.starts_with("simulated processor panicked: p0: ")
                && msg.contains("unlock of never-locked lock"),
            "shards={shards}: {msg}"
        );
    }
}
