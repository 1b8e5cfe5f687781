use sim_core::{run, Placement, RunConfig, HEAP_BASE, PAGE_SIZE};
use svm_hlrc::{SvmConfig, SvmPlatform};

#[test]
fn scattered_multiwriter_readback() {
    let n_words: u64 = 1024; // 2 pages
    let got = std::sync::Mutex::new(vec![0u64; n_words as usize]);
    run(
        SvmPlatform::boxed(SvmConfig::paper(2)),
        RunConfig::new(2),
        |p| {
            if p.pid() == 0 {
                let a = p.alloc_shared(
                    n_words * 8,
                    PAGE_SIZE,
                    Placement::Blocked { chunk_pages: 1 },
                );
                assert_eq!(a, HEAP_BASE);
                for i in 0..n_words {
                    p.store(a + i * 8, 8, 1_000_000 + i);
                }
            }
            p.barrier(0);
            p.start_timing();
            for i in 0..n_words {
                if i % 2 == p.pid() as u64 {
                    p.store(HEAP_BASE + i * 8, 8, 2_000_000 + i);
                }
            }
            p.barrier(1);
            p.stop_timing();
            if p.pid() == 0 {
                let mut g = got.lock().unwrap();
                for i in 0..n_words {
                    g[i as usize] = p.load(HEAP_BASE + i * 8, 8);
                }
            }
        },
    );
    let g = got.into_inner().unwrap();
    for i in 0..n_words {
        assert_eq!(g[i as usize], 2_000_000 + i, "word {i}");
    }
}

#[test]
fn page_profile_records_activity() {
    let stats = sim_core::run(
        SvmPlatform::boxed(SvmConfig::paper(2)),
        RunConfig::new(2).with_sharing_profile(),
        |p| {
            if p.pid() == 0 {
                p.alloc_shared(PAGE_SIZE, 8, Placement::Node(0));
            }
            p.barrier(0);
            p.start_timing();
            if p.pid() == 1 {
                p.store(HEAP_BASE, 8, 42); // remote write -> twin + diff
            }
            p.barrier(1);
            p.load(HEAP_BASE, 8);
            p.barrier(2);
        },
    );
    let profile = stats.sharing.expect("SVM must produce a profile");
    assert_eq!(profile.page_bytes, PAGE_SIZE);
    // The written page must show a nonzero diff word count.
    let page = profile
        .pages
        .iter()
        .find(|p| p.page_base == HEAP_BASE)
        .expect("the written page is profiled");
    assert!(page.diff_words > 0, "diff words missing: {profile:?}");
}

#[test]
fn smp_nodes_share_frames_hardware_coherently() {
    // 4 processors in 2 SMP nodes: siblings see each other's writes
    // immediately (shared frame), remote nodes only after synchronization.
    let cfg = SvmConfig::paper_smp_nodes(4, 2);
    let got = std::sync::Mutex::new(vec![0u64; 4]);
    sim_core::run(SvmPlatform::boxed(cfg), RunConfig::new(4), |p| {
        if p.pid() == 0 {
            p.alloc_shared(PAGE_SIZE, 8, Placement::Node(0));
        }
        p.barrier(0);
        p.start_timing();
        if p.pid() == 0 {
            p.store(HEAP_BASE, 8, 11);
        }
        p.barrier(1);
        // Everyone reads; siblings of p0 (p1, same node) read the shared
        // frame locally with no remote fetch.
        let v = p.load(HEAP_BASE, 8);
        got.lock().unwrap()[p.pid()] = v;
        p.barrier(2);
    });
    assert_eq!(*got.lock().unwrap(), vec![11; 4]);
}

#[test]
fn smp_nodes_reduce_page_fetches() {
    // The same all-read-one-page workload: 16x1 fetches the page at 15
    // nodes; 4x4 fetches it at 3.
    let fetches = |ppn: usize| {
        let cfg = SvmConfig::paper_smp_nodes(16, ppn);
        let stats = sim_core::run(SvmPlatform::boxed(cfg), RunConfig::new(16), |p| {
            if p.pid() == 0 {
                p.alloc_shared(PAGE_SIZE, 8, Placement::Node(0));
            }
            p.barrier(0);
            p.start_timing();
            p.load(HEAP_BASE + 8 * p.pid() as u64, 8);
            p.barrier(1);
        });
        stats.sum_counters().remote_fetches
    };
    assert_eq!(fetches(1), 15);
    assert_eq!(fetches(4), 3);
}

#[test]
fn smp_node_runs_are_deterministic_and_correct() {
    let go = || {
        let cfg = SvmConfig::paper_smp_nodes(8, 4);
        sim_core::run(SvmPlatform::boxed(cfg), RunConfig::new(8), |p| {
            if p.pid() == 0 {
                p.alloc_shared(2 * PAGE_SIZE, 8, Placement::RoundRobin);
            }
            p.barrier(0);
            p.start_timing();
            for i in 0..24u64 {
                p.store(HEAP_BASE + ((i * 88 + p.pid() as u64 * 128) % 8192), 8, i);
                if i % 6 == 0 {
                    p.lock(2);
                    p.work(4);
                    p.unlock(2);
                }
            }
            p.barrier(1);
        })
        .clocks
    };
    assert_eq!(go(), go());
}
