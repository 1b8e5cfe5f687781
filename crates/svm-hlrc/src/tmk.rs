//! TreadMarks' policy: the non-home-based LRC the paper's §2.1.1 contrasts
//! HLRC against (Keleher et al.; the comparison is Zhou, Iftode & Li,
//! OSDI'96).
//!
//! * There is **no home copy**. Writers create diffs at releases but keep
//!   them; a faulting reader must *gather diffs from every writer* whose
//!   intervals it has not yet applied, then apply them in causal order.
//! * Diffs accumulate until a garbage-collection point. A faulting reader
//!   is priced for the chain it misses, so a page's chain is kept until it
//!   grows past a threshold at a barrier (TreadMarks ran periodic GC for
//!   the same reason) — the memory- and message-overhead this protocol
//!   pays for multiple-writer pages is exactly the weakness HLRC was
//!   designed to fix, and it reproduces here: page faults on multi-writer
//!   pages cost one round-trip **per writer** instead of one fetch from
//!   the home.
//!
//! The simulator keeps each page's *head* — its current contents, every
//! archived diff already applied — as one shared version: a fault maps it
//! without copying or replaying anything, and the chain is read only by
//! the cost model (who wrote, how many words and runs). GC therefore only
//! truncates the chain. A faulting node never holds a copy of the page
//! (the fault path runs only for an unmapped page, and a write notice
//! unmaps the page), so a fault always moves the base copy and the whole
//! chain; real TreadMarks keeps the invalidated copy and fetches only the
//! diffs it misses (DESIGN.md §8).

use crate::lrc::{LrcPlatform, Policy};
use crate::page::{Diff, Frame};
use crate::SvmConfig;
use sim_core::platform::Timing;
use sim_core::probe::{self, ProtoEvent};
use sim_core::stats::Bucket;
use sim_core::util::FxMap;
use std::sync::Arc;

/// One archived diff: who wrote it and what changed.
struct ArchivedDiff {
    writer: usize,
    diff: Diff,
}

/// Global (conceptually distributed) per-page diff chain plus the page's
/// current contents.
struct PageLog {
    /// The head: the page with every diff ever archived applied, in archive
    /// order. Faulting readers share its version.
    head: Frame,
    /// The diffs archived since the last GC, oldest first — read only to
    /// price a fault.
    chain: Vec<ArchivedDiff>,
}

/// A page's chain is truncated at a barrier once it holds this many diffs.
const GC_THRESHOLD: usize = 8;

/// The homeless policy: every written page's log.
pub struct Tmk {
    logs: FxMap<u64, PageLog>,
    page_size: usize,
}

impl Tmk {
    /// `page`'s log, created with a zeroed head and an empty chain.
    fn log(&mut self, page: u64) -> &mut PageLog {
        let ps = self.page_size;
        self.logs.entry(page).or_insert_with(|| PageLog {
            head: Frame::zeroed(ps),
            chain: Vec::new(),
        })
    }

    /// Archive `writer`'s `diff` of `page` into the page's chain and apply
    /// it to the page's head.
    fn archive(&mut self, writer: usize, page: u64, diff: Diff) {
        let log = self.log(page);
        diff.apply(log.head.own_mut());
        log.chain.push(ArchivedDiff { writer, diff });
    }

    /// Barrier-time garbage collection. TreadMarks collected diffs lazily;
    /// we drop a page's chain once it grows past [`GC_THRESHOLD`]
    /// (dropping eagerly would hide the protocol's signature multi-writer
    /// gather cost, which is exactly what the HLRC comparison is about).
    /// The head already holds every diff, so GC only truncates the chain.
    /// At a barrier every node has consumed every notice, so surviving
    /// copies equal the head and truncating is safe.
    fn gc(&mut self) {
        for log in self.logs.values_mut() {
            if log.chain.len() >= GC_THRESHOLD {
                log.chain = Vec::new();
            }
        }
    }
}

impl Policy for Tmk {
    const HOME_BASED: bool = false;

    /// TreadMarks-style nodes host one processor each, so the
    /// node-grouping knob of the shared [`SvmConfig`] must be left at 1.
    fn new(cfg: &SvmConfig) -> Self {
        assert_eq!(
            cfg.procs_per_node, 1,
            "TmkPlatform models one processor per node; procs_per_node = {} is not supported",
            cfg.procs_per_node
        );
        Tmk {
            logs: FxMap::default(),
            page_size: cfg.page_size as usize,
        }
    }

    /// A page no diff has reached is zero-filled. Otherwise the fault maps
    /// the page's head, and is priced as a base copy from one node plus a
    /// gather of the chain from each distinct writer (one round trip per
    /// writer!).
    fn fetch(
        lrc: &mut LrcPlatform<Self>,
        t: &mut Timing,
        page: u64,
        _: Option<usize>,
    ) -> Option<(Arc<[u8]>, usize, u64)> {
        let log = lrc.pol.logs.get_mut(&page)?;
        let version = log.head.share();
        let pid = t.pid;
        let cfg = &lrc.m.cfg;
        t.charge(Bucket::DataWait, cfg.fault_trap);
        // Distinct writers in the chain (pure reads over the chain, so
        // computing this outside the timing check changes nothing).
        let mut writers: Vec<usize> = Vec::new();
        let mut suffix_words = 0u64;
        let mut suffix_runs = 0u64;
        for a in &log.chain {
            if a.writer != pid && !writers.contains(&a.writer) {
                writers.push(a.writer);
            }
            suffix_words += a.diff.len() as u64;
            suffix_runs += a.diff.run_count() as u64;
        }
        let page_bytes = cfg.page_size;
        let suffix_bytes = suffix_runs * 8 + suffix_words * 4 + cfg.ctrl_msg_bytes;
        let wire = page_bytes + writers.len() as u64 * suffix_bytes;
        // No home in this protocol: report the round-robin base-copy source
        // the full-page transfer comes from.
        let src = (page % cfg.nprocs as u64) as usize;
        if t.timing_on {
            let io = cfg.io_cyc_per_byte;
            let svc = cfg.handler_cost + suffix_words * cfg.diff_scan_per_word;
            let apply = suffix_words * cfg.diff_apply_per_word + suffix_runs * 8;
            // Full page transfer from one node (round robin choice), copied
            // in at a flat cycle per 2 bytes: unlike HLRC's fetch, not
            // scaled by `memcpy_cyc_per_2bytes`.
            let pg = page_bytes * io;
            let in_end = lrc.m.round_trip(pid, *t.now, src, cfg.handler_cost, pg);
            let mut done = (*t.now).max(in_end + page_bytes / 2);
            // One request/response round trip per distinct writer, all
            // issued in sequence (TreadMarks pipelines some of this; we
            // charge the conservative serial cost for requests and let the
            // responses overlap at the I/O bus).
            for w in writers {
                let in_end = lrc.m.round_trip(pid, done, w, svc, suffix_bytes * io);
                done = done.max(in_end + apply);
                t.stats.counters.bytes_transferred += suffix_bytes;
            }
            t.advance_to(Bucket::DataWait, done);
        }
        t.stats.counters.bytes_transferred += page_bytes;
        Some((version, src, wire))
    }

    /// Archive the diff at its writer: only local work (this is where the
    /// protocol is *cheaper* than HLRC), no wire cost — bytes move at a
    /// faulting reader's gather. Archival is this protocol's application,
    /// so the diff is reported created and applied together, after the
    /// maker's scan.
    fn put_diff(
        lrc: &mut LrcPlatform<Self>,
        pid: usize,
        page: u64,
        _: Option<usize>,
        diff: Diff,
        at: u64,
        own_clock: bool,
        timing_on: bool,
    ) -> (u64, u64, u64) {
        let cfg = &lrc.m.cfg;
        let scan = match (timing_on, own_clock) {
            (false, _) => 0,
            (true, true) => (cfg.words_per_page() + diff.len() as u64) * cfg.diff_scan_per_word,
            (true, false) => cfg.words_per_page() * cfg.diff_scan_per_word,
        };
        // At a close the writer spent (at, done] creating and archiving the
        // diff; its own copy already reflects it.
        let done = if own_clock { at + scan } else { at };
        let base = page << lrc.m.page_shift;
        probe::emit(
            &lrc.probe,
            timing_on,
            ProtoEvent::DiffCreated {
                pid,
                writer_node: pid,
                page: base,
                at: done,
                span: own_clock.then_some((at, done)),
                word_runs: diff.runs(),
                wire_bytes: 0,
            },
        );
        let applied = ProtoEvent::DiffApplied {
            pid,
            page: base,
            at: done,
        };
        probe::emit(&lrc.probe, timing_on, applied);
        lrc.nodes[pid].applied_debt += 1;
        lrc.pol.archive(pid, page, diff);
        (scan, done, 0)
    }

    fn barrier_done(lrc: &mut LrcPlatform<Self>) {
        lrc.pol.gc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lrc::tests::Rig;
    use crate::TmkPlatform;
    use sim_core::platform::Platform;
    use sim_core::{run, Placement, RunConfig, HEAP_BASE, PAGE_SIZE};

    #[test]
    fn multi_writer_fault_costs_more_than_single_writer() {
        // The protocol's signature weakness: a reader faulting on a page
        // with k writers pays ~k round trips.
        let cost = |writers: usize| {
            let platform = TmkPlatform::boxed(SvmConfig::paper(8));
            let stats = run(platform, RunConfig::new(8), move |p| {
                if p.pid() == 0 {
                    p.alloc_shared(PAGE_SIZE, 8, Placement::RoundRobin);
                }
                p.barrier(0);
                p.start_timing();
                if p.pid() >= 1 && p.pid() <= writers {
                    p.store(HEAP_BASE + 8 * p.pid() as u64, 8, 1);
                }
                p.barrier(1);
                if p.pid() == 7 {
                    p.load(HEAP_BASE, 8);
                }
                p.barrier(2);
            });
            stats.procs[7].get(Bucket::DataWait)
        };
        let c1 = cost(1);
        let c5 = cost(5);
        assert!(
            c5 > c1 + 1000,
            "5 writers should cost several extra round trips: c1={c1} c5={c5}"
        );
    }

    #[test]
    fn gc_folds_chains_at_barriers() {
        // Four processors write a word each of one page per epoch, so its
        // chain holds 4 diffs after the first barrier and reaches
        // GC_THRESHOLD at the second, which truncates it. A fault after the
        // first barrier gathers the three other writers' diffs on top of
        // the base copy; a fault right after the GC moves one page and no
        // diff.
        let mut r = Rig::<Tmk>::new(SvmConfig::paper(4));
        let a = r.alloc.alloc(PAGE_SIZE, 8, Placement::RoundRobin);
        let page = a >> r.p.m.page_shift;
        let fault_bytes = |r: &mut Rig<Tmk>, epoch: u64| {
            let before = r.stats[0].counters.bytes_transferred;
            assert!(!r.p.nodes[0].pages.contains(page), "the fault faults");
            assert_eq!(r.on(0, |p, t| p.load(t, a + 24, 8)), epoch);
            r.stats[0].counters.bytes_transferred - before
        };
        let write_epoch = |r: &mut Rig<Tmk>, epoch: u64| {
            for pid in 0..4 {
                r.on(pid, |p, t| p.store(t, a + 8 * pid as u64, 8, epoch));
            }
            r.barrier();
        };
        write_epoch(&mut r, 1);
        assert_eq!(r.p.pol.logs[&page].chain.len(), 4);
        // Each diff is one word in one run: 8 + 4 bytes plus a message.
        let per_writer = 4 * (8 + 4) + r.p.m.cfg.ctrl_msg_bytes;
        assert_eq!(fault_bytes(&mut r, 1), PAGE_SIZE + 3 * per_writer);
        write_epoch(&mut r, 2);
        assert!(r.p.pol.logs[&page].chain.is_empty(), "truncated at 8");
        assert_eq!(fault_bytes(&mut r, 2), PAGE_SIZE, "one page, no diff");
        assert_eq!(r.stats[0].counters.remote_fetches, 2);
    }

    #[test]
    fn lines_are_cached_only_while_the_page_is_mapped() {
        // p1 fetches, caches, loses and refetches a page p0 keeps writing.
        let mut r = Rig::<Tmk>::new(SvmConfig::paper(2));
        let a = r.alloc.alloc(PAGE_SIZE, 8, Placement::RoundRobin);
        let page = a >> r.p.m.page_shift;
        let check = |r: &Rig<Tmk>, mapped: bool| {
            assert_eq!(r.p.nodes[1].pages.contains(page), mapped);
            assert_eq!(r.p.m.caches_page(1, a), mapped);
        };
        r.on(0, |p, t| p.store(t, a, 8, 7));
        r.barrier();
        check(&r, false);
        assert_eq!(r.on(1, |p, t| p.load(t, a, 8)), 7);
        check(&r, true);
        r.on(0, |p, t| p.store(t, a, 8, 8));
        r.barrier();
        check(&r, false);
        assert_eq!(r.on(1, |p, t| p.load(t, a, 8)), 8);
        check(&r, true);
        assert_eq!(r.stats[1].counters.remote_fetches, 2);
    }

    /// Reference reconstruction: `base` with `chain` applied in order, as a
    /// fault rebuilt a page before the head was kept current — the oracle
    /// the head is compared against.
    fn replay(base: &[u8], chain: &[ArchivedDiff]) -> Box<[u8]> {
        let mut buf: Box<[u8]> = base.into();
        for a in chain {
            a.diff.apply(&mut buf);
        }
        buf
    }

    #[test]
    fn the_head_is_the_folded_base_plus_the_chain() {
        // Random archives by random writers over three pages, random GCs
        // and reader faults: the head always equals the base the chain
        // would have been folded into, replayed with the chain; and a
        // head shared twice without an archive between is one version.
        let mut p = Tmk::new(&SvmConfig::paper(4));
        let first = HEAP_BASE >> sim_core::PAGE_SIZE.trailing_zeros();
        let words = (PAGE_SIZE / 4) as usize;
        let mut rng = sim_core::util::XorShift64::new(0x7E4D);
        let mut folded: FxMap<u64, Box<[u8]>> = FxMap::default();
        for step in 0..600u64 {
            let page = first + rng.below(3);
            match rng.below(10) {
                0 => {
                    for (pg, log) in &p.logs {
                        if log.chain.len() >= GC_THRESHOLD {
                            folded.insert(*pg, replay(&folded[pg], &log.chain));
                        }
                    }
                    p.gc();
                }
                1 => {
                    let (v1, v2) = (p.log(page).head.share(), p.log(page).head.share());
                    assert!(Arc::ptr_eq(&v1, &v2), "step {step}");
                }
                _ => {
                    let twin = p.log(page).head.share();
                    let (before, mut dirty) = (twin.to_vec(), twin.to_vec());
                    for _ in 0..1 + rng.below(12) {
                        let w = rng.below(words as u64) as usize;
                        let n = (1 + rng.below(6) as usize).min(words - w);
                        for b in &mut dirty[w * 4..(w + n) * 4] {
                            *b = rng.next_u64() as u8;
                        }
                    }
                    let diff = Diff::create(&twin, &dirty);
                    let writer = rng.below(4) as usize;
                    p.archive(writer, page, diff);
                    folded
                        .entry(page)
                        .or_insert_with(|| vec![0; words * 4].into());
                    assert_eq!(&p.logs[&page].head[..], &dirty[..], "step {step}");
                    assert_eq!(
                        &twin[..],
                        &before[..],
                        "step {step}: a version is never written"
                    );
                }
            }
            for (pg, log) in &p.logs {
                let replayed = replay(&folded[pg], &log.chain);
                assert_eq!(&log.head[..], &replayed[..], "step {step} page {pg:#x}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "one processor per node")]
    fn construction_rejects_multi_processor_nodes() {
        let _ = TmkPlatform::new(SvmConfig::paper_smp_nodes(8, 2));
    }
}
