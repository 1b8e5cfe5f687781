//! HLRC's policy (Zhou, Iftode & Li): every page has a home node whose
//! copy is kept current, a fault fetches the whole page from the home, and
//! a diff is applied at the home when its interval closes.

use crate::lrc::{LrcPlatform, Policy};
use crate::page::{Diff, Frame, PageEntry};
use crate::SvmConfig;
use sim_core::platform::Timing;
use sim_core::probe::{self, ProtoEvent};
use sim_core::stats::Bucket;
use std::sync::Arc;

/// The home-based policy. It keeps no state of its own: a home copy is the
/// home node's page-table entry.
pub struct Hlrc;

/// The home's copy of `page`, created zeroed on the first touch anywhere.
fn home_frame(lrc: &mut LrcPlatform<Hlrc>, home: usize, page: u64) -> &mut Frame {
    let ps = lrc.m.cfg.page_size;
    let entry = lrc.nodes[home]
        .pages
        .get_or_insert_with(page, || PageEntry::zeroed(ps));
    &mut entry.frame
}

impl Policy for Hlrc {
    const HOME_BASED: bool = true;

    fn new(_: &SvmConfig) -> Self {
        Hlrc
    }

    /// A remote fault fetches the page from its home; a first touch at the
    /// home is a cheap minor fault that zero-fills it.
    fn fetch(
        lrc: &mut LrcPlatform<Self>,
        t: &mut Timing,
        page: u64,
        home: Option<usize>,
    ) -> Option<(Arc<[u8]>, usize, u64)> {
        let home = home.expect("every HLRC page has a home");
        let nd = lrc.m.cfg.node_of(t.pid);
        if nd == home {
            return None;
        }
        let cfg = &lrc.m.cfg;
        let wire = cfg.page_size + cfg.ctrl_msg_bytes;
        // Timing: trap, request message, home service, page transfer.
        t.charge(Bucket::DataWait, cfg.fault_trap);
        if t.timing_on {
            let pg = cfg.page_size * cfg.io_cyc_per_byte;
            let copy = cfg.page_size / 2 * cfg.memcpy_cyc_per_2bytes;
            let in_end = lrc.m.round_trip(nd, *t.now, home, cfg.handler_cost, pg);
            t.advance_to(Bucket::DataWait, in_end + copy);
        }
        t.stats.counters.bytes_transferred += wire;
        // Map the home frame's current version — shared, not copied, with
        // every other reader of it. The home node's first processor stands
        // in for the home.
        let src = home * lrc.m.cfg.procs_per_node;
        Some((home_frame(lrc, home, page).share(), src, wire))
    }

    /// Apply the diff at the home, which reports it applied when its
    /// handler is done; the diff is reported created at `at`, before the
    /// maker's scan.
    fn put_diff(
        lrc: &mut LrcPlatform<Self>,
        pid: usize,
        page: u64,
        home: Option<usize>,
        diff: Diff,
        at: u64,
        own_clock: bool,
        timing_on: bool,
    ) -> (u64, u64, u64) {
        let home = home.expect("every HLRC page has a home");
        let nd = lrc.m.cfg.node_of(pid);
        let now = if own_clock { at } else { 0 };
        let nwords = diff.len() as u64;
        let nruns = diff.run_count() as u64;
        // Apply to home frame (state). The applier is remote: count the
        // application at the home via its debt counter, drained at finalize.
        diff.apply(home_frame(lrc, home, page).own_mut());
        lrc.nodes[home].applied_debt += 1;
        // The home's processors may hold stale lines for the words just
        // patched; conservatively drop the page's lines there.
        let base = page << lrc.m.page_shift;
        lrc.m.drop_page_lines(home, base);
        let cfg = &lrc.m.cfg;
        let wire_bytes = diff.wire_bytes() + cfg.ctrl_msg_bytes;
        let mut priced = (0, now, 0);
        if timing_on {
            let scan = cfg.words_per_page() * cfg.diff_scan_per_word;
            let local = scan + nwords * cfg.diff_scan_per_word + nruns * 8;
            let io = wire_bytes * cfg.io_cyc_per_byte;
            let apply = cfg.handler_cost + nwords * cfg.diff_apply_per_word + nruns * 8;
            let arr = lrc.m.nics[nd].io_out.serve(now + local, io).1 + cfg.wire_latency;
            let (_, in_end) = lrc.m.nics[home].io_in.serve(arr, io);
            let (_, applied) = lrc.m.nics[home].handler.serve(in_end, apply);
            lrc.m.nics[home].debt += apply;
            // Attribute the application to the home node's first processor,
            // at the virtual time the home handler finished applying it.
            probe::emit(
                &lrc.probe,
                timing_on,
                ProtoEvent::DiffApplied {
                    pid: home * cfg.procs_per_node,
                    page: base,
                    at: applied,
                },
            );
            priced = (local, applied, wire_bytes);
        }
        probe::emit(
            &lrc.probe,
            timing_on,
            ProtoEvent::DiffCreated {
                pid,
                writer_node: nd,
                page: base,
                at,
                span: own_clock.then_some((at, at + priced.0)),
                word_runs: diff.runs(),
                wire_bytes,
            },
        );
        priced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lrc::tests::Rig;
    use crate::SvmPlatform;
    use sim_core::mem::load_le;
    use sim_core::platform::Platform;
    use sim_core::stats::ProcStats;
    use sim_core::{run, Placement, RunConfig, HEAP_BASE, PAGE_SIZE};

    fn svm_run<F: Fn(&mut sim_core::Proc) + Sync>(n: usize, f: F) -> sim_core::RunStats {
        run(
            SvmPlatform::boxed(SvmConfig::paper(n)),
            RunConfig::new(n),
            f,
        )
    }

    #[test]
    fn single_node_data_round_trips() {
        let got = std::sync::Mutex::new(0.0f64);
        svm_run(1, |p| {
            let a = p.alloc_shared(4096, 8, Placement::Node(0));
            p.start_timing();
            p.write_f64(a, 42.5);
            *got.lock().unwrap() = p.read_f64(a);
        });
        assert_eq!(*got.lock().unwrap(), 42.5);
    }

    #[test]
    fn remote_fetch_costs_much_more_than_local_access() {
        // Node 1 reads data homed at node 0: one remote fault then hits.
        let stats = svm_run(2, |p| {
            if p.pid() == 0 {
                let a = p.alloc_shared(PAGE_SIZE, 8, Placement::Node(0));
                assert_eq!(a, HEAP_BASE);
            }
            p.barrier(0);
            p.start_timing();
            if p.pid() == 1 {
                for i in 0..16u64 {
                    p.load(HEAP_BASE + i * 8, 8);
                }
            }
            p.barrier(1);
        });
        let c = &stats.procs[1];
        assert_eq!(c.counters.remote_fetches, 1, "one page fault expected");
        assert!(
            c.get(Bucket::DataWait) > 10_000,
            "remote fetch should cost >10k cycles, got {}",
            c.get(Bucket::DataWait)
        );
        // Node 0 did not fetch anything.
        assert_eq!(stats.procs[0].counters.remote_fetches, 0);
    }

    #[test]
    fn write_creates_twin_and_release_creates_diff() {
        let stats = svm_run(2, |p| {
            if p.pid() == 0 {
                p.alloc_shared(PAGE_SIZE, 8, Placement::Node(0));
            }
            p.barrier(0);
            p.start_timing();
            if p.pid() == 1 {
                p.lock(0);
                p.store(HEAP_BASE, 8, 5);
                p.unlock(0);
            }
            p.barrier(1);
        });
        assert_eq!(stats.procs[1].counters.twins_created, 1);
        assert_eq!(stats.procs[1].counters.diffs_created, 1);
        // The diff is applied at the home (node 0), counted via finalize.
        assert_eq!(stats.procs[0].counters.diffs_applied, 1);
        assert_eq!(stats.procs[1].counters.diffs_applied, 0);
        // Home node writes never twin.
        assert_eq!(stats.procs[0].counters.twins_created, 0);
    }

    #[test]
    fn home_placement_avoids_remote_fetches() {
        // Each node works on its own partition homed locally: zero fetches.
        let stats = svm_run(4, |p| {
            if p.pid() == 0 {
                for n in 0..4 {
                    p.alloc_shared(PAGE_SIZE, 8, Placement::Node(n));
                }
            }
            p.barrier(0);
            p.start_timing();
            let mine = HEAP_BASE + p.pid() as u64 * PAGE_SIZE;
            for i in 0..64u64 {
                p.store(mine + i * 8, 8, i);
            }
            p.barrier(1);
            for i in 0..64u64 {
                assert_eq!(p.load(mine + i * 8, 8), i);
            }
            p.barrier(2);
        });
        assert_eq!(stats.sum_counters().remote_fetches, 0);
    }

    #[test]
    fn barriers_are_expensive() {
        let stats = svm_run(16, |p| {
            p.start_timing();
            p.barrier(1);
        });
        // A 16-way barrier should cost thousands of cycles even with no data.
        assert!(stats.total_cycles() > 5_000, "got {}", stats.total_cycles());
    }

    #[test]
    fn dirty_page_invalidation_preserves_local_writes() {
        // p1 writes word A of a page; p0 writes word B under a lock that p1
        // then acquires (invalidating p1's dirty copy). p1's own write must
        // survive: flush-before-invalidate.
        let got = std::sync::Mutex::new((0u64, 0u64));
        svm_run(2, |p| {
            if p.pid() == 0 {
                p.alloc_shared(PAGE_SIZE, 8, Placement::Node(0));
            }
            p.barrier(0);
            p.start_timing();
            if p.pid() == 0 {
                p.lock(9);
                p.store(HEAP_BASE, 8, 11);
                p.unlock(9);
                p.barrier(1);
            } else {
                p.store(HEAP_BASE + 8, 8, 22); // dirty word B, unreleased
                p.barrier(1); // closes p1's interval too (flush at arrive)
                p.lock(9);
                let a = p.load(HEAP_BASE, 8);
                let b = p.load(HEAP_BASE + 8, 8);
                *got.lock().unwrap() = (a, b);
                p.unlock(9);
            }
            p.barrier(2);
        });
        assert_eq!(*got.lock().unwrap(), (11, 22));
    }

    #[test]
    fn untimed_barriers_collect_the_interval_log() {
        // Initialisation runs untimed: its write+barrier rounds must not
        // pile up intervals until the first timed barrier. Driven through
        // the trait by hand, since a finished `run` takes the platform
        // with it.
        let mut p = SvmPlatform::new(SvmConfig::paper(2));
        let mut alloc = sim_core::GlobalAlloc::new(2);
        alloc.alloc(PAGE_SIZE, 8, Placement::Node(0));
        let (mut clocks, mut stats) = ([0u64; 2], [ProcStats::default(), ProcStats::default()]);
        for round in 0..100 {
            let mut arrivals = [0u64; 2];
            for pid in 0..2 {
                let mut t = Timing {
                    pid,
                    now: &mut clocks[pid],
                    stats: &mut stats[pid],
                    placement: alloc.map(),
                    timing_on: false,
                };
                p.store(&mut t, HEAP_BASE + 8 * pid as u64, 8, round);
                arrivals[pid] = p.barrier_arrive(&mut t, 0);
                assert_eq!(p.m.log_len(), pid + 1);
                // Both writes of the previous round crossed the barrier.
                let seen = [
                    p.load(&mut t, HEAP_BASE, 8),
                    p.load(&mut t, HEAP_BASE + 8, 8),
                ];
                assert!(seen.iter().all(|&v| v + 1 >= round), "{seen:?}");
            }
            p.barrier_release(0, &arrivals, &mut stats, alloc.map(), false);
            assert_eq!(p.m.log_len(), 0, "round {round}");
        }
    }

    #[test]
    fn lines_are_cached_only_while_the_page_is_mapped() {
        // Two nodes of two processors; the page is homed at node 0 and
        // nodes[1] = {p2, p3} fetch, cache, lose and refetch it.
        let mut r = Rig::<Hlrc>::new(SvmConfig::paper_smp_nodes(4, 2));
        let a = r.alloc.alloc(PAGE_SIZE, 8, Placement::Node(0));
        let page = a >> r.p.m.page_shift;
        let check = |r: &Rig<Hlrc>, mapped: bool| {
            assert_eq!(r.p.nodes[1].pages.contains(page), mapped);
            assert_eq!(r.p.m.caches_page(1, a), mapped);
        };
        check(&r, false);
        r.on(2, |p, t| p.load(t, a, 8));
        check(&r, true);
        // The sibling's caches count too: p3 alone holds this line.
        r.on(3, |p, t| p.load(t, a + 1024, 8));
        r.on(0, |p, t| p.store(t, a, 8, 7));
        r.barrier();
        check(&r, false);
        assert!(r.p.m.caches_page(0, a), "the home copy is never unmapped");
        // A notice for a page the node no longer maps: nothing to drop.
        r.on(0, |p, t| p.store(t, a, 8, 8));
        r.barrier();
        check(&r, false);
        assert_eq!(r.on(3, |p, t| p.load(t, a, 8)), 8);
        check(&r, true);
        assert_eq!(r.stats[2].counters.remote_fetches, 1);
        assert_eq!(r.stats[3].counters.remote_fetches, 1);
    }

    #[test]
    fn readers_of_a_page_share_one_version() {
        // Three nodes read a page homed at node 0: one version among them.
        // The home then writes; on re-fault they share the new version and
        // the old one keeps the bytes it had.
        let mut r = Rig::<Hlrc>::new(SvmConfig::paper(4));
        let a = r.alloc.alloc(PAGE_SIZE, 8, Placement::Node(0));
        let page = a >> r.p.m.page_shift;
        r.on(0, |p, t| p.store(t, a, 8, 1));
        r.barrier();
        let versions = |r: &Rig<Hlrc>| -> Vec<Arc<[u8]>> {
            (1..4)
                .map(|nd| match &r.p.nodes[nd].pages.get(page).unwrap().frame {
                    Frame::Shared(v) => v.clone(),
                    Frame::Own(..) => panic!("node {nd} copied the page"),
                })
                .collect()
        };
        let one_version = |vs: &[Arc<[u8]>]| vs.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1]));
        for pid in 1..4 {
            assert_eq!(r.on(pid, |p, t| p.load(t, a, 8)), 1);
        }
        let old = versions(&r);
        assert!(one_version(&old), "one allocation for three readers");
        r.on(0, |p, t| p.store(t, a, 8, 2));
        r.barrier();
        for pid in 1..4 {
            assert_eq!(r.on(pid, |p, t| p.load(t, a, 8)), 2);
        }
        let new = versions(&r);
        assert!(one_version(&new), "the new version is shared too");
        assert!(!Arc::ptr_eq(&old[0], &new[0]));
        assert_eq!(load_le(&old[0], 8), 1, "the old version is unchanged");
        assert_eq!(r.stats[1].counters.remote_fetches, 2);
    }

    #[test]
    fn first_touch_home_is_resolved_by_the_first_fault() {
        // The home is looked up only on the fault path; the first access to
        // a page anywhere is a fault, so first touch still decides it.
        let mut r = Rig::<Hlrc>::new(SvmConfig::paper(4));
        let a = r.alloc.alloc(PAGE_SIZE, 8, Placement::FirstTouch);
        r.on(3, |p, t| p.load(t, a, 8));
        r.on(3, |p, t| p.load(t, a + 8, 8)); // mapped: no lookup
        r.on(1, |p, t| p.store(t, a, 8, 5));
        r.barrier();
        assert_eq!(r.alloc.map().home_of_resolved(a), Some(3));
        // p1 fetched from, twinned against and flushed its diff to node 3.
        assert_eq!(r.stats[3].counters.remote_fetches, 0);
        assert_eq!(r.stats[1].counters.remote_fetches, 1);
        assert_eq!(r.stats[1].counters.twins_created, 1);
        assert_eq!(r.stats[1].counters.diffs_created, 1);
        assert_eq!(r.on(3, |p, t| p.load(t, a, 8)), 5);
        assert_eq!(r.stats[3].counters.remote_fetches, 0, "home reads in place");
    }

    #[test]
    #[should_panic(expected = "does not divide nprocs")]
    fn construction_rejects_non_divisible_grouping() {
        let _ = SvmPlatform::new(SvmConfig::paper_smp_nodes(8, 3));
    }
}
