//! The fused replay engine: every replay interpreter as a stackless state
//! machine, all of them driven by ONE host thread's virtual-time event loop.
//!
//! ## Why fuse?
//!
//! The sharded engine's replay side (see [`crate::shard`]) originally ran
//! the *unmodified* classic scheduler: a full execution context per
//! simulated processor (an OS thread then, a 16 MiB coroutine stack now).
//! That machinery exists so arbitrary application code — with its real
//! call stack — can suspend mid-computation. But a replay interpreter has
//! no application stack: its entire continuation is "which descriptor
//! comes next plus at most one partially-consumed bulk operation". That
//! continuation fits in a small enum, so the interpreters can be stackless
//! state machines in one loop: a hand-off is an index assignment.
//!
//! ## Bit-identity argument
//!
//! The loop drives the *same* scheduler state ([`Inner`]) through the
//! *same* reentrant step API (`Inner::op_*`) as the classic engine; the
//! only thing replaced is how the returned [`Step`] is realized. The
//! classic engine switches coroutines such that exactly one processor
//! runs at a time, chosen as: keep the current processor until
//! an op requests a yield check and some ready processor has fallen more
//! than a quantum behind (then switch to the min-clock ready processor),
//! or until it blocks (then dispatch the min-clock ready processor). The
//! event loop below implements precisely that policy on machine indices
//! instead of coroutines — same transitions, same FCFS resource pricing
//! order, same trace/edge/sharing/detector hook sequence, and therefore
//! bit-identical `RunStats`. `tests/shard_equivalence.rs` runs the full
//! differential grid against both replay engines.
//!
//! A machine whose descriptor batch runs dry blocks on its channel *while
//! holding the turn* — exactly as the classic interpreter does on `recv`. This is deterministic (virtual time must advance through this
//! processor; which host thread produces the bytes does not matter) and
//! deadlock-free (round-trip replies owed by this machine are sent before
//! the receive, and every other generation thread keeps streaming
//! independently).

use std::sync::mpsc::{Receiver, Sender};

use crate::addr::Addr;
use crate::platform::Platform;
use crate::sched::{build_inner, collect_stats, panic_message, Inner, RunConfig, Step};
use crate::shard::{Desc, Reply};
use crate::stats::RunStats;

/// What the event loop should do after a machine step — [`Step`] plus the
/// end-of-stream case that the classic engine expresses as a returning
/// thread body.
enum Action {
    Run,
    MaybeYield,
    Block,
    Finished,
}

fn step_to_action(s: Step) -> Action {
    match s {
        Step::Run => Action::Run,
        Step::MaybeYield => Action::MaybeYield,
        Step::Block => Action::Block,
    }
}

/// Mid-operation continuation of one interpreter: everything the classic
/// interpreter would keep on its call stack between scheduler entries.
enum MState {
    /// Ready to consume the next descriptor.
    Idle,
    /// A round-trip descriptor completed; the reply is sent the next time
    /// this machine runs — the moment the classic interpreter thread,
    /// rescheduled after the blocking `Proc` call returned, would execute
    /// its `send`.
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

/// One replay interpreter as a state machine: its descriptor channel, the
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

/// Panic payload for the no-runnable-processor case, so the outer wrapper
/// can reproduce the classic engine's unprefixed deadlock message.
struct DeadlockMsg(String);

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
    /// one `Proc`-method scheduler entry of the classic interpreter.
    fn step(&mut self, inner: &mut Inner, pid: usize) -> Action {
        match std::mem::replace(&mut self.st, MState::Idle) {
            MState::Idle => {}
            MState::OweReply(r) => {
                // A send error means the generation thread already died
                // (app panic being forwarded); replay just keeps draining,
                // as the classic interpreter's ignored send result does.
                let _ = self.reply_tx.send(r);
                return Action::Run;
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
                    return Action::Finished;
                };
                self.batch = batch.into_iter();
                match self.batch.next() {
                    Some(d) => d,
                    None => return Action::Run, // defensively: empty batch
                }
            }
        };
        match d {
            Desc::Work(c) => step_to_action(inner.op_work(pid, c)),
            Desc::WorkFused { per_elem, count } => {
                self.work_fused_step(inner, pid, per_elem, count)
            }
            Desc::SetPhase(ph) => {
                inner.op_set_phase(pid, ph);
                Action::Run
            }
            Desc::Alloc {
                label,
                bytes,
                align,
                placement,
            } => {
                let a = inner.op_alloc(label, bytes, align, placement);
                self.st = MState::OweReply(Reply::Addr(a));
                Action::Run
            }
            Desc::Load { addr, len } => {
                inner.op_load(pid, addr, len);
                Action::MaybeYield
            }
            Desc::Store { addr, len, val } => {
                inner.op_store(pid, addr, len, val);
                Action::MaybeYield
            }
            Desc::LoadSlice {
                addr,
                stride,
                len,
                n,
            } => self.load_slice_step(inner, pid, addr, stride, len, n, 0),
            Desc::StoreSlice {
                addr,
                stride,
                len,
                vals,
            } => self.store_slice_step(inner, pid, addr, stride, len, vals, 0),
            Desc::Lock(id) => {
                let s = inner.op_lock(pid, id);
                self.st = MState::OweReply(Reply::Sync);
                step_to_action(s)
            }
            Desc::Unlock(id) => step_to_action(inner.op_unlock(pid, id)),
            Desc::Barrier(id) => {
                let s = inner.op_barrier(pid, id);
                self.st = MState::OweReply(Reply::Sync);
                step_to_action(s)
            }
            Desc::StartTiming => {
                let s = inner.op_start_timing(pid);
                self.st = MState::OweReply(Reply::Sync);
                step_to_action(s)
            }
            Desc::StopTiming => {
                let s = inner.op_stop_timing(pid);
                self.st = MState::OweReply(Reply::Sync);
                step_to_action(s)
            }
            Desc::MetricEvent(name, n) => {
                inner.op_metric_event(pid, name, n);
                Action::Run
            }
            Desc::Poison(msg) => panic!("{msg}"),
        }
    }

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
    ) -> Action {
        if n == 0 {
            return Action::Run; // classic: zero-length slice never enters the loop
        }
        if !self.bulk {
            // Scalar reference path: one load (and one yield check) per word.
            inner.op_load(pid, addr + done as u64 * stride, len);
            let done = done + 1;
            if done < n {
                self.st = MState::LoadSlice {
                    addr,
                    stride,
                    len,
                    n,
                    done,
                };
            }
            return Action::MaybeYield;
        }
        self.scratch.resize(n, 0);
        let base = addr + done as u64 * stride;
        let k = inner.op_load_chunk(pid, base, stride, len, &mut self.scratch[done..n]);
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
        Action::MaybeYield
    }

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
    ) -> Action {
        if vals.is_empty() {
            return Action::Run;
        }
        if !self.bulk {
            inner.op_store(pid, addr + done as u64 * stride, len, vals[done]);
            let done = done + 1;
            if done < vals.len() {
                self.st = MState::StoreSlice {
                    addr,
                    stride,
                    len,
                    vals,
                    done,
                };
            }
            return Action::MaybeYield;
        }
        let base = addr + done as u64 * stride;
        let k = inner.op_store_chunk(pid, base, stride, len, &vals[done..]);
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
        Action::MaybeYield
    }

    fn work_fused_step(
        &mut self,
        inner: &mut Inner,
        pid: usize,
        per_elem: u64,
        left: u64,
    ) -> Action {
        if left == 0 {
            return Action::Run;
        }
        if !self.bulk {
            // Scalar reference path: one `work(per_elem)` per element. With
            // timing off every element is a no-op (timing cannot toggle
            // mid-batch: the rendezvous needs this processor), so the rest
            // of the batch is skipped wholesale.
            let s = inner.op_work(pid, per_elem);
            if matches!(s, Step::Run) {
                return Action::Run;
            }
            if left > 1 {
                self.st = MState::WorkFused {
                    per_elem,
                    left: left - 1,
                };
            }
            return Action::MaybeYield;
        }
        match inner.op_work_fused_chunk(pid, per_elem, left) {
            None => Action::Run, // timing off: whole batch is free
            Some(k) => {
                if k < left {
                    self.st = MState::WorkFused {
                        per_elem,
                        left: left - k,
                    };
                }
                Action::MaybeYield
            }
        }
    }
}

/// Dispatch after the current machine gave up the turn: switch to the
/// min-clock ready machine, or detect deadlock (classic
/// `dispatch_next`'s panic, with the identical message).
fn dispatch(inner: &mut Inner) -> usize {
    match inner.dispatch() {
        Some(next) => next,
        None => {
            let msg = format!(
                "simulated deadlock: no runnable processor\n{}",
                inner.describe()
            );
            std::panic::panic_any(DeadlockMsg(msg));
        }
    }
}

/// The single-threaded virtual-time event loop over all machines.
fn event_loop(inner: &mut Inner, machines: &mut [Machine], cur_cell: &std::cell::Cell<usize>) {
    let nprocs = machines.len();
    let mut cur = 0usize; // processor 0 starts Running (see `build_inner`)
    loop {
        cur_cell.set(cur);
        match machines[cur].step(inner, cur) {
            Action::Run => {}
            Action::MaybeYield => {
                // Classic `maybe_yield`: hand over only if some runnable
                // processor has fallen more than a quantum behind.
                if let Some(next) = inner.yield_target(cur) {
                    cur = next;
                }
            }
            Action::Block => {
                // The op already marked `cur` non-runnable.
                cur = dispatch(inner);
            }
            Action::Finished => {
                inner.op_finish(cur);
                if inner.ndone == nprocs {
                    return;
                }
                cur = dispatch(inner);
            }
        }
    }
}

/// Run the fused replay engine over the claimed replay channel ends and
/// harvest the run exactly as the classic engine would.
///
/// # Panics
/// Reproduces the classic engine's outer panic protocol: application
/// panics forwarded via `Desc::Poison` (and interpreter-side assertion
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
            if let Some(d) = payload.downcast_ref::<DeadlockMsg>() {
                panic!("simulated processor panicked: {}", d.0);
            }
            let msg = panic_message(&*payload);
            panic!("simulated processor panicked: p{}: {msg}", cur.get());
        }
    }
}
