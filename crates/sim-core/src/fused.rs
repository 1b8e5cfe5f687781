//! The fused replay engine, the sharded engine's only replay side
//! (`crate::shard`, DESIGN.md §2c): every processor's replay is a
//! stackless state machine, and ONE host thread's virtual-time event loop
//! drives them all.
//!
//! ## Why a state machine?
//!
//! The sequential engine gives each simulated processor a full execution
//! context (a 16 MiB coroutine stack) so that arbitrary application code —
//! with its real call stack — can suspend mid-computation. Replay runs no
//! application code: a processor's entire continuation is "which
//! descriptor comes next plus at most one partially-consumed bulk
//! operation". That fits in a small enum, so the processors can be
//! stackless machines in one loop, and a hand-off is an index assignment.
//!
//! ## Bit-identity argument
//!
//! The loop drives the *same* scheduler state ([`Inner`]) through the
//! *same* reentrant step API (`Inner::op_*`) as the sequential engine's
//! `Proc` methods; the only thing replaced is how the returned [`Step`] is
//! realized. The sequential engine switches coroutines such that exactly
//! one processor runs at a time, chosen as: keep the current processor
//! until an op requests a yield check and some ready processor has fallen
//! more than a quantum behind (then switch to the min-clock ready
//! processor), or until it blocks (then dispatch the min-clock ready
//! processor). The event loop below implements precisely that policy on
//! machine indices instead of coroutines — same transitions, same FCFS
//! resource pricing order, same trace/sharing/detector hook sequence,
//! and therefore bit-identical `RunStats`. `tests/shard_equivalence.rs`
//! runs the full differential grid against the sequential oracle.
//!
//! A machine whose descriptor batch runs dry blocks on its channel *while
//! holding the turn*: virtual time cannot advance past this processor
//! anyway. This is deterministic (which host thread produces the bytes does
//! not matter) and deadlock-free (round-trip replies owed by this machine
//! are sent before the receive, and every other generation thread keeps
//! streaming independently).

use std::sync::mpsc::{Receiver, Sender};

use crate::addr::Addr;
use crate::inner::{Inner, Step};
use crate::platform::Platform;
use crate::run::{build_inner, collect_stats, panic_message};
use crate::shard::{Desc, Reply};
use crate::stats::RunStats;
use crate::RunConfig;

/// Mid-operation continuation of one processor's replay: what the
/// sequential engine keeps on the processor's stack between scheduler
/// entries of one `Proc` call.
enum MState {
    /// Ready to consume the next descriptor.
    Idle,
    /// A round-trip descriptor completed; the reply is sent the next time
    /// this machine runs — the moment the sequential engine's blocking
    /// `Proc` call (`lock`, `barrier`, `start_timing`, ...) would return to
    /// the application.
    OweReply(Reply),
    /// Partially consumed bulk load: `done` of `n` words performed.
    LoadSlice {
        addr: Addr,
        stride: u64,
        len: u8,
        n: usize,
        done: usize,
    },
    /// Partially consumed bulk store.
    StoreSlice {
        addr: Addr,
        stride: u64,
        len: u8,
        vals: Vec<u64>,
        done: usize,
    },
    /// Partially consumed fused compute batch.
    WorkFused { per_elem: u64, left: u64 },
}

/// One processor's replay as a state machine: its descriptor channel, the
/// batch being drained, and the mid-operation continuation.
struct Machine {
    rx: Receiver<Vec<Desc>>,
    reply_tx: Sender<Reply>,
    batch: std::vec::IntoIter<Desc>,
    st: MState,
    /// Discard buffer for replayed bulk loads (values live on the
    /// generation side's value plane; replay only prices the accesses).
    scratch: Vec<u64>,
    bulk: bool,
}

impl Machine {
    fn new(rx: Receiver<Vec<Desc>>, reply_tx: Sender<Reply>, bulk: bool) -> Self {
        Self {
            rx,
            reply_tx,
            batch: Vec::new().into_iter(),
            st: MState::Idle,
            scratch: Vec::new(),
            bulk,
        }
    }

    /// Advance this machine by one scheduler entry: finish an owed reply
    /// or a bulk chunk, else consume the next descriptor. Mirrors exactly
    /// one scheduler entry of the sequential engine's `Proc` method for
    /// that operation; `None` when the stream has ended (the body
    /// returning).
    fn step(&mut self, inner: &mut Inner, pid: usize) -> Option<Step> {
        match std::mem::replace(&mut self.st, MState::Idle) {
            MState::Idle => {}
            MState::OweReply(r) => {
                // A send error means the generation thread already died
                // (app panic being forwarded); replay just keeps draining
                // the stream.
                let _ = self.reply_tx.send(r);
                return Some(Step::Run);
            }
            MState::LoadSlice {
                addr,
                stride,
                len,
                n,
                done,
            } => return self.load_slice_step(inner, pid, addr, stride, len, n, done),
            MState::StoreSlice {
                addr,
                stride,
                len,
                vals,
                done,
            } => return self.store_slice_step(inner, pid, addr, stride, len, vals, done),
            MState::WorkFused { per_elem, left } => {
                return self.work_fused_step(inner, pid, per_elem, left)
            }
        }
        let d = match self.batch.next() {
            Some(d) => d,
            None => {
                let Ok(batch) = self.rx.recv() else {
                    return None;
                };
                self.batch = batch.into_iter();
                match self.batch.next() {
                    Some(d) => d,
                    None => return Some(Step::Run), // defensively: empty batch
                }
            }
        };
        match d {
            Desc::Work(c) => Some(inner.op_work(pid, c)),
            Desc::WorkFused(per_elem, count) => self.work_fused_step(inner, pid, per_elem, count),
            Desc::SetPhase(ph) => {
                inner.op_set_phase(pid, ph);
                Some(Step::Run)
            }
            Desc::Alloc(label, bytes, align, placement) => {
                let a = inner.op_alloc(label, bytes, align, placement);
                self.st = MState::OweReply(Reply::Addr(a));
                Some(Step::Run)
            }
            Desc::Load(addr, len) => {
                inner.op_load(pid, addr, len);
                Some(Step::MaybeYield)
            }
            Desc::Store(addr, len, val) => {
                inner.op_store(pid, addr, len, val);
                Some(Step::MaybeYield)
            }
            Desc::LoadSlice(addr, stride, len, n) => {
                self.load_slice_step(inner, pid, addr, stride, len, n, 0)
            }
            Desc::StoreSlice(addr, stride, len, vals) => {
                self.store_slice_step(inner, pid, addr, stride, len, vals, 0)
            }
            Desc::Lock(id) => {
                let s = inner.op_lock(pid, id);
                self.st = MState::OweReply(Reply::Sync);
                Some(s)
            }
            Desc::Unlock(id) => Some(inner.op_unlock(pid, id)),
            Desc::Barrier(id) => {
                let s = inner.op_barrier(pid, id);
                self.st = MState::OweReply(Reply::Sync);
                Some(s)
            }
            Desc::StartTiming => {
                let s = inner.op_start_timing(pid);
                self.st = MState::OweReply(Reply::Sync);
                Some(s)
            }
            Desc::StopTiming => {
                let s = inner.op_stop_timing(pid);
                self.st = MState::OweReply(Reply::Sync);
                Some(s)
            }
            Desc::MetricEvent(name, n) => {
                inner.op_metric_event(pid, name, n);
                Some(Step::Run)
            }
            Desc::Poison(msg) => panic!("{msg}"),
        }
    }

    /// One scheduler entry of a slice load: a bulk chunk, or one word
    /// (and one yield check) on the scalar reference path.
    #[allow(clippy::too_many_arguments)]
    fn load_slice_step(
        &mut self,
        inner: &mut Inner,
        pid: usize,
        addr: Addr,
        stride: u64,
        len: u8,
        n: usize,
        done: usize,
    ) -> Option<Step> {
        if n == 0 {
            return Some(Step::Run); // `Proc::load_slice` never enters its loop
        }
        let base = addr + done as u64 * stride;
        let k = if self.bulk {
            self.scratch.resize(n, 0);
            inner.op_load_chunk(pid, base, stride, len, &mut self.scratch[done..n])
        } else {
            inner.op_load(pid, base, len);
            1
        };
        let done = done + k;
        if done < n {
            self.st = MState::LoadSlice {
                addr,
                stride,
                len,
                n,
                done,
            };
        }
        Some(Step::MaybeYield)
    }

    /// One scheduler entry of a slice store (twin of `load_slice_step`).
    #[allow(clippy::too_many_arguments)]
    fn store_slice_step(
        &mut self,
        inner: &mut Inner,
        pid: usize,
        addr: Addr,
        stride: u64,
        len: u8,
        vals: Vec<u64>,
        done: usize,
    ) -> Option<Step> {
        if vals.is_empty() {
            return Some(Step::Run);
        }
        let base = addr + done as u64 * stride;
        let k = if self.bulk {
            inner.op_store_chunk(pid, base, stride, len, &vals[done..])
        } else {
            inner.op_store(pid, base, len, vals[done]);
            1
        };
        let done = done + k;
        if done < vals.len() {
            self.st = MState::StoreSlice {
                addr,
                stride,
                len,
                vals,
                done,
            };
        }
        Some(Step::MaybeYield)
    }

    fn work_fused_step(
        &mut self,
        inner: &mut Inner,
        pid: usize,
        per_elem: u64,
        left: u64,
    ) -> Option<Step> {
        if left == 0 {
            return Some(Step::Run);
        }
        // The scalar reference path charges one `work(per_elem)` per
        // element. With timing off every element is a no-op (timing cannot
        // toggle mid-batch: the rendezvous needs this processor), so the
        // whole batch is free.
        let k = if self.bulk {
            inner.op_work_fused_chunk(pid, per_elem, left)
        } else {
            (inner.op_work(pid, per_elem) != Step::Run).then_some(1)
        };
        let Some(k) = k else { return Some(Step::Run) };
        if k < left {
            self.st = MState::WorkFused {
                per_elem,
                left: left - k,
            };
        }
        Some(Step::MaybeYield)
    }
}

/// The single-threaded virtual-time event loop over all machines.
fn event_loop(inner: &mut Inner, machines: &mut [Machine], cur_cell: &std::cell::Cell<usize>) {
    let mut cur = 0usize; // processor 0 starts Running (see `build_inner`)
    loop {
        cur_cell.set(cur);
        match machines[cur].step(inner, cur) {
            Some(Step::Run) => {}
            Some(Step::MaybeYield) => {
                // `Proc::maybe_yield`: hand over only if some runnable
                // processor has fallen more than a quantum behind.
                if let Some(next) = inner.yield_target(cur) {
                    cur = next;
                }
            }
            Some(Step::Block) => {
                // The op already marked `cur` non-runnable.
                cur = inner.dispatch_or_deadlock().expect("`cur` is not done");
            }
            None => {
                inner.op_finish(cur);
                match inner.dispatch_or_deadlock() {
                    Some(next) => cur = next,
                    None => return,
                }
            }
        }
    }
}

/// Run the fused replay engine over the replay channel ends and harvest
/// the run exactly as the sequential engine would.
///
/// # Panics
/// Reproduces the sequential engine's outer panic protocol: application
/// panics forwarded via `Desc::Poison` (and replay-side assertion
/// failures) re-raise as `simulated processor panicked: p{pid}: {msg}`;
/// simulated deadlock re-raises its message unprefixed.
pub(crate) fn replay_fused(
    platform: Box<dyn Platform>,
    cfg: &RunConfig,
    ends: Vec<(Receiver<Vec<Desc>>, Sender<Reply>)>,
) -> RunStats {
    assert_eq!(ends.len(), cfg.nprocs);
    let mut inner = build_inner(platform, cfg);
    let mut machines: Vec<Machine> = ends
        .into_iter()
        .map(|(rx, reply_tx)| Machine::new(rx, reply_tx, cfg.bulk))
        .collect();
    let cur = std::cell::Cell::new(0usize);
    let looped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        event_loop(&mut inner, &mut machines, &cur)
    }));
    match looped {
        Ok(()) => {
            // Close the channels before harvesting; the generation threads
            // have all exited (their streams were drained to completion).
            drop(machines);
            collect_stats(inner, cfg)
        }
        Err(payload) => {
            // `machines` (and with it every channel half) is dropped by
            // this unwind, aborting the generation threads the caller's
            // scope is about to join.
            if let Some(msg) = inner.deadlock.take() {
                panic!("simulated processor panicked: {msg}");
            }
            let msg = panic_message(&*payload);
            panic!("simulated processor panicked: p{}: {msg}", cur.get());
        }
    }
}
