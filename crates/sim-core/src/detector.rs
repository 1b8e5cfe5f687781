//! Dynamic happens-before data-race detection for simulated runs.
//!
//! The scheduler's determinism argument (see the crate docs) rests on every
//! supported application being **data-race-free at the word level**: only
//! then is the bounded virtual-time skew between processors guaranteed to
//! perturb timings and never results. This module checks that claim at run
//! time instead of assuming it.
//!
//! ## Algorithm
//!
//! A classic vector-clock happens-before analysis with FastTrack-style
//! epoch compression (Flanagan & Freund, PLDI'09; lineage back to Eraser):
//!
//! * every processor carries a vector clock `C_p`, advanced at each
//!   release-type operation;
//! * every lock carries the releaser's clock, joined into the acquirer at
//!   grant time; barriers (and the `start_timing`/`stop_timing` rendezvous)
//!   join **all** clocks;
//! * every aligned 4-byte shadow word remembers the epoch of its last write
//!   and either the epoch of its last read or — after concurrent readers —
//!   a full read vector clock ("read-share promotion").
//!
//! An access races when the shadow state it must supersede is not ordered
//! before the accessor's current clock. Word granularity (4 bytes) matches
//! the paper's "data-race-free at the word level" wording: two processors
//! writing different *bytes* of one word unsynchronized is flagged, exactly
//! the property the platforms' diff/merge machinery requires.
//!
//! The detector is a consumer of the protocol event stream
//! ([`crate::probe`]): the scheduler's accesses, lock grants and releases
//! and rendezvous joins, the same stream every platform charges for, so one
//! implementation covers the SVM, DSM and SMP models alike. Unlike the
//! tracer it is ungated and never reset: a race during warm-up is still a
//! race. Like every consumer it cannot advance clocks or statistics, so
//! detection leaves [`RunStats`] timing bit-identical (asserted by the
//! workspace tests).
//!
//! [`RunStats`]: crate::stats::RunStats

use crate::addr::{Addr, HEAP_BASE};
use crate::probe::ProtoEvent;
use crate::util::Capped;

/// Shadow-word granularity: the detector tracks aligned 4-byte words.
const WORD_SHIFT: u64 = 2;

/// Cap on retained [`RaceReport`]s per run. Races come in bursts (one racy
/// loop touches thousands of words); the first reports carry all the
/// diagnostic value. The total race count keeps counting past the cap.
pub(crate) const MAX_REPORTS: usize = 64;

/// A vector clock: one logical-time component per processor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct VectorClock(Vec<u32>);

impl VectorClock {
    /// The zero clock for `nprocs` processors.
    pub fn new(nprocs: usize) -> Self {
        VectorClock(vec![0; nprocs])
    }

    /// Component `p`.
    #[inline]
    pub fn get(&self, p: usize) -> u32 {
        self.0[p]
    }

    /// Pointwise maximum with `other`.
    #[inline]
    pub fn join(&mut self, other: &VectorClock) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(*b);
        }
    }

    /// Advance component `p` (a release-type event on processor `p`).
    #[inline]
    pub fn tick(&mut self, p: usize) {
        self.0[p] += 1;
    }
}

/// A FastTrack epoch: one component of a vector clock, `clk @ pid`.
/// `clk == 0` encodes "no such access yet".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Epoch {
    clk: u32,
    pid: u32,
}

impl Epoch {
    const NONE: Epoch = Epoch { clk: 0, pid: 0 };

    /// Does this epoch happen before clock `c` (or is it absent)?
    #[inline]
    fn before(self, c: &VectorClock) -> bool {
        self.clk <= c.get(self.pid as usize)
    }
}

/// Read state of a shadow word: none, one ordered reader, or a read-shared
/// vector clock after concurrent readers.
#[derive(Clone, Debug)]
enum ReadSt {
    One(Epoch),
    Many(Box<VectorClock>),
}

/// Per-word shadow state.
#[derive(Clone, Debug)]
struct Shadow {
    write: Epoch,
    read: ReadSt,
}

impl Shadow {
    const FRESH: Shadow = Shadow {
        write: Epoch::NONE,
        read: ReadSt::One(Epoch::NONE),
    };
}

/// The kind of conflicting access pair behind a race.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RaceKind {
    /// Two unordered writes.
    WriteWrite,
    /// A write unordered after a read.
    ReadWrite,
    /// A read unordered after a write.
    WriteRead,
}

impl RaceKind {
    /// Human-readable pair description.
    pub fn describe(self) -> &'static str {
        match self {
            RaceKind::WriteWrite => "write-write",
            RaceKind::ReadWrite => "read-write",
            RaceKind::WriteRead => "write-read",
        }
    }
}

/// One detected race: the first unordered access pair seen on a word.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RaceReport {
    /// Run label (typically `App/Class`, from [`crate::RunConfig::label`]).
    pub run: String,
    /// Address of the racy aligned word.
    pub addr: Addr,
    /// Conflict kind.
    pub kind: RaceKind,
    /// Processor of the earlier (shadow) access.
    pub prior_pid: usize,
    /// Processor of the later (current) access.
    pub pid: usize,
    /// Label of the allocation containing `addr` (empty if the allocation
    /// was not named or the address is outside every allocation).
    pub alloc: String,
}

impl std::fmt::Display for RaceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let run = if self.run.is_empty() {
            "<unnamed run>"
        } else {
            &self.run
        };
        let what = if self.alloc.is_empty() {
            "<unlabeled>"
        } else {
            &self.alloc
        };
        write!(
            f,
            "data race: {run}: {} on {:#x} in `{what}` between p{} and p{}",
            self.kind.describe(),
            self.addr,
            self.prior_pid,
            self.pid
        )
    }
}

/// The happens-before race detector attached to one run.
///
/// A consumer of the run's [`crate::probe::Probe`], present when
/// [`crate::RunConfig`] enables `detect_races`; when disabled, no instance
/// exists, no access event is built, and an undiagnosed run's only
/// per-access cost is the scheduler's one probe test.
#[derive(Debug)]
pub(crate) struct RaceDetector {
    nprocs: usize,
    run_label: String,
    /// Per-processor vector clocks.
    clocks: Vec<VectorClock>,
    /// Clock of the last release of each lock.
    lock_rel: crate::util::FxMap<u32, VectorClock>,
    /// Dense shadow memory, indexed by `(addr - HEAP_BASE) >> WORD_SHIFT`
    /// (the heap is bump-allocated, so the index space is compact).
    shadow: Vec<Shadow>,
    /// Words already reported (one report per word keeps output readable).
    reported: crate::util::FxSet<u64>,
    /// Retained reports, unlabelled until harvest (capped at
    /// [`MAX_REPORTS`] or the run's diagnostic cap, whichever is lower).
    reports: Capped<Vec<RaceReport>>,
    /// Total racy words detected, including past the report cap.
    nraces: u64,
}

impl RaceDetector {
    /// A detector for `nprocs` processors that retains at most `cap`
    /// reports; `run_label` tags them.
    pub(crate) fn new(nprocs: usize, run_label: String, cap: usize) -> Self {
        let clocks = (0..nprocs)
            .map(|p| {
                let mut c = VectorClock::new(nprocs);
                // Each processor starts in its own epoch 1: accesses before
                // any synchronization are unordered across processors.
                c.tick(p);
                c
            })
            .collect();
        RaceDetector {
            nprocs,
            run_label,
            clocks,
            lock_rel: Default::default(),
            shadow: Vec::new(),
            reported: Default::default(),
            reports: Capped::new(cap),
            nraces: 0,
        }
    }

    #[inline]
    fn word_span(addr: Addr, len: u8) -> (u64, u64) {
        debug_assert!(addr >= HEAP_BASE, "detector access below heap base");
        let first = (addr - HEAP_BASE) >> WORD_SHIFT;
        let last = (addr - HEAP_BASE + len as u64 - 1) >> WORD_SHIFT;
        (first, last)
    }

    /// Grow the shadow memory to cover word `last` (and every word before
    /// it: the heap is bump-allocated, so accesses climb).
    #[inline]
    fn cover(&mut self, last: u64) {
        if last as usize >= self.shadow.len() {
            let want = (last as usize + 1).next_power_of_two();
            self.shadow.resize(want, Shadow::FRESH);
        }
    }

    #[inline]
    fn epoch_of(&self, pid: usize) -> Epoch {
        Epoch {
            clk: self.clocks[pid].get(pid),
            pid: pid as u32,
        }
    }

    fn record(&mut self, w: u64, kind: RaceKind, prior_pid: usize, pid: usize) {
        if !self.reported.insert(w) {
            return;
        }
        self.nraces += 1;
        // Labelled at harvest, by `into_reports`.
        self.reports.push(RaceReport {
            run: String::new(),
            addr: HEAP_BASE + (w << WORD_SHIFT),
            kind,
            prior_pid,
            pid,
            alloc: String::new(),
        });
    }

    /// Consume one event of the run's stream: accesses are checked,
    /// lock grants and releases and rendezvous joins move the clocks. An
    /// access of one word takes the scalar path, the oracle the run forms
    /// are checked against.
    #[inline]
    pub(crate) fn on_event(&mut self, ev: &ProtoEvent<'_>) {
        use ProtoEvent as P;
        match *ev {
            P::Access {
                pid,
                base,
                stride,
                len,
                words,
                write,
            } => match (words, write) {
                (1, true) => self.on_write(pid, base, len),
                (1, false) => self.on_read(pid, base, len),
                (_, true) => self.on_write_run(pid, base, stride, len, words),
                (_, false) => self.on_read_run(pid, base, stride, len, words),
            },
            P::LockGrant { pid, lock, .. } => self.on_acquire(pid, lock),
            P::LockRelease { pid, lock, .. } => self.on_release(pid, lock),
            P::Join => self.on_barrier(),
            _ => {}
        }
    }

    /// A shared-memory write of `len` bytes at `addr` by `pid`.
    fn on_write(&mut self, pid: usize, addr: Addr, len: u8) {
        let (first, last) = Self::word_span(addr, len);
        self.cover(last);
        let me = self.epoch_of(pid);
        for w in first..=last {
            let c = &self.clocks[pid];
            let sh = &mut self.shadow[w as usize];
            // Write-write conflict.
            if !sh.write.before(c) {
                let prior = sh.write.pid as usize;
                sh.write = me;
                sh.read = ReadSt::One(Epoch::NONE);
                self.record(w, RaceKind::WriteWrite, prior, pid);
                continue;
            }
            // Read-write conflicts.
            let racer = match &sh.read {
                ReadSt::One(e) => (!e.before(c)).then_some(e.pid as usize),
                ReadSt::Many(v) => (0..self.nprocs).find(|&q| v.get(q) > c.get(q)),
            };
            // This write supersedes all ordered prior state: later accesses
            // ordered after it are transitively ordered after those, so the
            // read state can be dropped (FastTrack's write fast path).
            sh.write = me;
            sh.read = ReadSt::One(Epoch::NONE);
            if let Some(prior) = racer {
                self.record(w, RaceKind::ReadWrite, prior, pid);
            }
        }
    }

    /// A shared-memory read of `len` bytes at `addr` by `pid`.
    fn on_read(&mut self, pid: usize, addr: Addr, len: u8) {
        let (first, last) = Self::word_span(addr, len);
        self.cover(last);
        let me = self.epoch_of(pid);
        for w in first..=last {
            let c = &self.clocks[pid];
            let sh = &mut self.shadow[w as usize];
            // Write-read conflict.
            let racy = (!sh.write.before(c)).then_some(sh.write.pid as usize);
            // Update read state: stay in the cheap epoch representation
            // while reads are totally ordered; promote to a full vector
            // clock on the first concurrent reader pair.
            match &mut sh.read {
                ReadSt::One(e) => {
                    if e.pid as usize == pid || e.before(c) {
                        *e = me;
                    } else {
                        let mut v = VectorClock::new(self.nprocs);
                        v.0[e.pid as usize] = e.clk;
                        v.0[pid] = me.clk;
                        sh.read = ReadSt::Many(Box::new(v));
                    }
                }
                ReadSt::Many(v) => {
                    v.0[pid] = me.clk;
                }
            }
            if let Some(prior) = racy {
                self.record(w, RaceKind::WriteRead, prior, pid);
            }
        }
    }

    // ---- batched (run) checks for the bulk fast path ----
    //
    // The bulk access path performs a chunk of a slice's words under one
    // scheduler entry; feeding the detector one `on_read`/`on_write` call
    // per word made the detector the dominant cost of detector-on bulk
    // runs. The run variants below check an entire `base + i*stride`,
    // `i in 0..count` batch in one call: the shadow map is grown once for
    // the whole span, the accessor's epoch and clock are read once (data
    // accesses never advance the detector's clocks, so they are loop
    // constants), words this processor already owns in the current epoch
    // are skipped, and the rare race hits are recorded after the scan.
    //
    // Both must stay *observably identical* to the per-word path — same
    // shadow state, same reports in the same order, same counts —
    // `tests/equivalence.rs` sweeps detector-on runs on the scalar and bulk
    // paths and asserts bit-identical `RunStats` including race reports.

    /// Batched equivalent of calling [`RaceDetector::on_write`] once per
    /// access at `base + i*stride` for `i in 0..count` (`count >= 1`), in
    /// order.
    fn on_write_run(&mut self, pid: usize, base: Addr, stride: u64, len: u8, count: usize) {
        self.cover(Self::word_span(base + (count as u64 - 1) * stride, len).1);
        let me = self.epoch_of(pid);
        // (word, kind, prior_pid) hits, recorded after the scan; `record`
        // only touches the report side, so deferring it cannot change what
        // later words observe.
        let mut hits: Vec<(u64, RaceKind, usize)> = Vec::new();
        {
            let c = &self.clocks[pid];
            let nprocs = self.nprocs;
            for i in 0..count {
                let (first, last) = Self::word_span(base + i as u64 * stride, len);
                for w in first..=last {
                    let sh = &mut self.shadow[w as usize];
                    // Same-epoch skip: the word is already in exactly the
                    // post-write state (owned by `me`, read state clear), so
                    // the per-word path would be a no-op.
                    if sh.write == me && matches!(&sh.read, ReadSt::One(e) if *e == Epoch::NONE) {
                        continue;
                    }
                    if !sh.write.before(c) {
                        let prior = sh.write.pid as usize;
                        sh.write = me;
                        sh.read = ReadSt::One(Epoch::NONE);
                        hits.push((w, RaceKind::WriteWrite, prior));
                        continue;
                    }
                    let racer = match &sh.read {
                        ReadSt::One(e) => (!e.before(c)).then_some(e.pid as usize),
                        ReadSt::Many(v) => (0..nprocs).find(|&q| v.get(q) > c.get(q)),
                    };
                    sh.write = me;
                    sh.read = ReadSt::One(Epoch::NONE);
                    if let Some(prior) = racer {
                        hits.push((w, RaceKind::ReadWrite, prior));
                    }
                }
            }
        }
        for (w, kind, prior) in hits {
            self.record(w, kind, prior, pid);
        }
    }

    /// Batched equivalent of calling [`RaceDetector::on_read`] once per
    /// access at `base + i*stride` for `i in 0..count` (`count >= 1`), in
    /// order.
    fn on_read_run(&mut self, pid: usize, base: Addr, stride: u64, len: u8, count: usize) {
        self.cover(Self::word_span(base + (count as u64 - 1) * stride, len).1);
        let me = self.epoch_of(pid);
        let mut hits: Vec<(u64, usize)> = Vec::new();
        {
            let c = &self.clocks[pid];
            let nprocs = self.nprocs;
            for i in 0..count {
                let (first, last) = Self::word_span(base + i as u64 * stride, len);
                for w in first..=last {
                    let sh = &mut self.shadow[w as usize];
                    // Same-epoch skip: this processor is already the word's
                    // recorded reader in the current epoch. Any intervening
                    // write would have cleared the read state, so the write
                    // epoch is unchanged since the earlier (already checked,
                    // already reported-if-racy) read — a no-op on the
                    // per-word path too.
                    if matches!(&sh.read, ReadSt::One(e) if *e == me) {
                        continue;
                    }
                    let racy = (!sh.write.before(c)).then_some(sh.write.pid as usize);
                    match &mut sh.read {
                        ReadSt::One(e) => {
                            if e.pid as usize == pid || e.before(c) {
                                *e = me;
                            } else {
                                let mut v = VectorClock::new(nprocs);
                                v.0[e.pid as usize] = e.clk;
                                v.0[pid] = me.clk;
                                sh.read = ReadSt::Many(Box::new(v));
                            }
                        }
                        ReadSt::Many(v) => {
                            v.0[pid] = me.clk;
                        }
                    }
                    if let Some(prior) = racy {
                        hits.push((w, prior));
                    }
                }
            }
        }
        for (w, prior) in hits {
            self.record(w, RaceKind::WriteRead, prior, pid);
        }
    }

    /// Lock `id` granted to `pid`: join the last releaser's clock.
    fn on_acquire(&mut self, pid: usize, id: u32) {
        if let Some(rel) = self.lock_rel.get(&id) {
            self.clocks[pid].join(rel);
        }
    }

    /// `pid` releases lock `id`: publish its clock and enter a new epoch.
    fn on_release(&mut self, pid: usize, id: u32) {
        self.lock_rel.insert(id, self.clocks[pid].clone());
        self.clocks[pid].tick(pid);
    }

    /// A full-membership rendezvous (barrier, `start_timing`,
    /// `stop_timing`): everyone joins everyone, then each processor enters
    /// a new epoch.
    fn on_barrier(&mut self) {
        let mut all = VectorClock::new(self.nprocs);
        for c in &self.clocks {
            all.join(c);
        }
        for (p, c) in self.clocks.iter_mut().enumerate() {
            *c = all.clone();
            c.tick(p);
        }
    }

    /// Consume the detector, returning its retained reports with the
    /// racy words attributed to allocation labels via `label_of`.
    pub(crate) fn into_reports(self, label_of: impl Fn(Addr) -> &'static str) -> Vec<RaceReport> {
        let (mut reports, _) = self.reports.into_parts();
        for r in &mut reports {
            r.run.clone_from(&self.run_label);
            r.alloc = label_of(r.addr).to_string();
        }
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::{GlobalAlloc, Placement};

    #[test]
    fn unordered_writes_race() {
        let mut a = GlobalAlloc::new(2);
        let base = a.alloc_labeled("buf", 4096, 8, Placement::RoundRobin);
        let mut d = RaceDetector::new(2, "unit".into(), MAX_REPORTS);
        d.on_write(0, base, 8);
        d.on_write(1, base, 8);
        assert_eq!(d.nraces, 2); // both 4-byte words of the 8-byte store
        let reports = d.into_reports(|x| a.label_of(x));
        let r = &reports[0];
        assert_eq!(r.kind, RaceKind::WriteWrite);
        assert_eq!(r.alloc, "buf");
        assert_eq!((r.prior_pid, r.pid), (0, 1));
        assert!(r.to_string().contains("write-write"));
    }

    #[test]
    fn barrier_orders_write_then_read() {
        let base = HEAP_BASE;
        let mut d = RaceDetector::new(2, "unit".into(), MAX_REPORTS);
        d.on_write(0, base, 8);
        d.on_barrier();
        d.on_read(1, base, 8);
        d.on_write(1, base + 8, 4);
        assert_eq!(d.nraces, 0);
    }

    #[test]
    fn unordered_read_after_write_races() {
        let base = HEAP_BASE;
        let mut d = RaceDetector::new(2, "unit".into(), MAX_REPORTS);
        d.on_write(0, base, 4);
        d.on_read(1, base, 4);
        assert_eq!(d.nraces, 1);
        assert_eq!(d.reports.items()[0].kind, RaceKind::WriteRead);
    }

    #[test]
    fn lock_chain_orders_accesses() {
        let base = HEAP_BASE;
        let mut d = RaceDetector::new(3, "unit".into(), MAX_REPORTS);
        for pid in 0..3 {
            d.on_acquire(pid, 7);
            d.on_read(pid, base, 8);
            d.on_write(pid, base, 8);
            d.on_release(pid, 7);
        }
        assert_eq!(d.nraces, 0);
    }

    #[test]
    fn lock_on_only_one_side_races() {
        let base = HEAP_BASE;
        let mut d = RaceDetector::new(2, "unit".into(), MAX_REPORTS);
        d.on_acquire(0, 7);
        d.on_write(0, base, 8);
        d.on_release(0, 7);
        // p1 writes without the lock.
        d.on_write(1, base, 8);
        assert_eq!(d.nraces, 2);
    }

    #[test]
    fn concurrent_reads_do_not_race_and_promote() {
        let base = HEAP_BASE;
        let mut d = RaceDetector::new(4, "unit".into(), MAX_REPORTS);
        d.on_write(0, base, 4);
        d.on_barrier();
        for pid in 0..4 {
            d.on_read(pid, base, 4);
        }
        assert_eq!(d.nraces, 0);
        // A later unordered write must see all readers through the
        // promoted read vector clock.
        d.on_write(3, base, 4);
        assert_eq!(d.nraces, 1);
        assert_eq!(d.reports.items()[0].kind, RaceKind::ReadWrite);
    }

    #[test]
    fn racy_word_is_reported_once() {
        let base = HEAP_BASE;
        let mut d = RaceDetector::new(2, "unit".into(), MAX_REPORTS);
        for _ in 0..10 {
            d.on_write(0, base, 4);
            d.on_write(1, base, 4);
        }
        assert_eq!(d.nraces, 1);
        assert_eq!(d.into_reports(|_| "").len(), 1);
    }

    #[test]
    fn report_cap_keeps_counting() {
        let base = HEAP_BASE;
        let mut d = RaceDetector::new(2, "unit".into(), MAX_REPORTS);
        for i in 0..(MAX_REPORTS as u64 + 50) {
            d.on_write(0, base + i * 4, 4);
            d.on_write(1, base + i * 4, 4);
        }
        assert_eq!(d.nraces, MAX_REPORTS as u64 + 50);
        assert_eq!(d.into_reports(|_| "").len(), MAX_REPORTS);
    }

    #[test]
    fn run_batched_checks_match_per_word_oracle() {
        // Randomized access streams (reads/writes/sync, mixed strides and
        // widths, deliberately racy) fed to two detectors: one through the
        // per-word path, one through the batched run path. Reports, counts,
        // and subsequent behaviour must be identical.
        let base = HEAP_BASE;
        for seed in 1..6u64 {
            let mut rng = crate::util::XorShift64::new(seed);
            let mut scalar = RaceDetector::new(4, "oracle".into(), MAX_REPORTS);
            let mut batched = RaceDetector::new(4, "oracle".into(), MAX_REPORTS);
            for _ in 0..400 {
                let pid = rng.below(4) as usize;
                match rng.below(10) {
                    0 => {
                        let id = rng.below(3) as u32;
                        scalar.on_acquire(pid, id);
                        batched.on_acquire(pid, id);
                    }
                    1 => {
                        let id = rng.below(3) as u32;
                        scalar.on_release(pid, id);
                        batched.on_release(pid, id);
                    }
                    2 => {
                        scalar.on_barrier();
                        batched.on_barrier();
                    }
                    k => {
                        let len: u8 = if rng.below(2) == 0 { 4 } else { 8 };
                        let stride = match rng.below(3) {
                            0 => len as u64,     // contiguous
                            1 => len as u64 * 4, // strided
                            _ => len as u64 - 2, // overlapping word spans
                        };
                        let count = 1 + rng.below(40) as usize;
                        let addr = base + rng.below(1024) * 8;
                        if k % 2 == 0 {
                            for i in 0..count {
                                scalar.on_write(pid, addr + i as u64 * stride, len);
                            }
                            batched.on_write_run(pid, addr, stride, len, count);
                        } else {
                            for i in 0..count {
                                scalar.on_read(pid, addr + i as u64 * stride, len);
                            }
                            batched.on_read_run(pid, addr, stride, len, count);
                        }
                    }
                }
                assert_eq!(scalar.nraces, batched.nraces, "seed {seed}");
            }
            assert_eq!(
                scalar.reports.items(),
                batched.reports.items(),
                "seed {seed}"
            );
            assert!(scalar.nraces > 0, "seed {seed} exercised no races");
        }
    }

    #[test]
    fn vector_clock_join_and_tick() {
        let mut a = VectorClock::new(3);
        let mut b = VectorClock::new(3);
        a.tick(0);
        a.tick(0);
        b.tick(1);
        b.join(&a);
        assert_eq!(b.get(0), 2);
        assert_eq!(b.get(1), 1);
        assert_eq!(b.get(2), 0);
    }
}
