//! Differential check of the fused replay engine on the SMP platform:
//! a sharded run — replayed by the fused (single-thread event-loop)
//! engine — must produce bit-identical `RunStats`, traces included, to the
//! sequential oracle.
//!
//! The cross-platform grid lives in `tests/shard_equivalence.rs`; this is
//! the platform crate's own smoke check so a protocol change that breaks
//! replay determinism fails here, next to the code that caused it.

use sim_core::{run, Placement, Proc, RunConfig, HEAP_BASE};
use smp_bus::{SmpConfig, SmpPlatform};

const WORDS: u64 = 2048;
const ACC: u64 = HEAP_BASE + 4000 * 8;

fn kernel(p: &mut Proc) {
    let n = p.nprocs() as u64;
    let pid = p.pid() as u64;
    if p.pid() == 0 {
        p.alloc_shared_labeled("grid", 4096 * 8, 8, Placement::RoundRobin);
    }
    p.barrier(0);
    p.start_timing();
    for it in 0..3u64 {
        let mut i = pid;
        while i < WORDS {
            p.store(HEAP_BASE + i * 8, 8, i ^ it);
            i += n;
        }
        p.barrier(1 + it as u32);
        let mut buf = vec![0u64; (WORDS / n) as usize];
        p.load_slice(HEAP_BASE + ((pid + 1) % n) * 8, n * 8, 8, &mut buf);
        p.work_fused(3, buf.len() as u64);
        p.lock(7);
        let v = p.load(ACC, 8);
        p.store(ACC, 8, v.wrapping_add(buf.iter().sum()));
        p.unlock(7);
        p.barrier(100 + it as u32);
    }
    p.stop_timing();
    p.barrier(999);
}

fn cfg(shards: usize) -> RunConfig {
    RunConfig::new(4).with_shards(shards).with_trace()
}

#[test]
fn fused_replay_is_bit_identical_on_smp() {
    let mk = || SmpPlatform::boxed(SmpConfig::paper(4));
    let oracle = run(mk(), cfg(1), kernel);
    let fused = run(mk(), cfg(4), kernel);
    assert_eq!(oracle, fused, "fused replay diverged on smp");
}
