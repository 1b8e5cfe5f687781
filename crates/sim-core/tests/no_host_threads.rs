//! On x86_64 Linux the sequential engine runs every simulated processor as
//! a coroutine on the host thread that called `run`: it spawns no OS
//! thread. This file holds exactly one test, so nothing else in the process
//! starts or ends threads while it counts them.

#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use sim_core::{run, NullPlatform, RunConfig};
use std::sync::atomic::{AtomicUsize, Ordering};

/// `Threads:` of `/proc/self/status`.
fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("a Threads: line")
        .trim()
        .parse()
        .expect("a thread count")
}

#[test]
fn sequential_run_spawns_no_os_thread() {
    let n = 8;
    let before = os_threads();
    let host = std::thread::current().id();
    let sampled = AtomicUsize::new(0);
    let stats = run(Box::new(NullPlatform::new(n)), RunConfig::new(n), |p| {
        assert_eq!(std::thread::current().id(), host);
        p.start_timing();
        p.work(100 * (p.pid() as u64 + 1));
        p.barrier(0);
        // Every processor has started and none has finished: a thread per
        // processor, had there been any, would be alive right now.
        assert_eq!(os_threads(), before);
        sampled.fetch_add(1, Ordering::Relaxed);
        p.barrier(1);
    });
    assert_eq!(sampled.load(Ordering::Relaxed), n);
    assert_eq!(stats.total_cycles(), 100 * n as u64);
    assert_eq!(os_threads(), before);
}
