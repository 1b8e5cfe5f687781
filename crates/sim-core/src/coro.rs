//! Stackful coroutines for the sequential engine: a [`Set`] of contexts that
//! take turns on the calling OS thread, plus the scheduler state they share.
//!
//! This is the only file in the workspace that contains `unsafe` code or
//! assembly. It owns two things and no policy: *where a context's stack
//! lives* and *how control moves from one context to another*. Which context
//! runs next is decided entirely by the caller (`crate::proc`).
//!
//! ## The turn invariant
//!
//! At every instant exactly one party — one context, or the *driver* (the
//! code that called [`Set::drive`]) — **holds the turn**. The holder is the
//! only one that executes, and therefore the only one that touches the
//! set's interior (the shared state, the bookkeeping cells). The turn moves
//! only inside [`Set::switch_to`] / [`Set::drive`], and each move is a
//! happens-before edge: on the native backend both sides are the same OS
//! thread, on the thread backend the hand-off is a `Release` store paired
//! with the receiver's `Acquire` load. That is why `Set` may be `Sync` while
//! holding plain `Cell`s and a `RefCell` — no per-operation atomics — and
//! every entry point enforces it by checking that the caller is the OS
//! thread the turn currently lives on ([`Backend::assert_turn`]).
//!
//! ## Backends
//!
//! * **Native** (x86_64 Linux, the only platform the benchmark and CI run
//!   on): each context is a 16 MiB `mmap`ed stack and a switch is a dozen
//!   instructions that swap the callee-saved registers — about 20 ns, no
//!   system call, no other OS thread.
//! * **Threads** (every other target): a context is a parked OS thread and
//!   a switch is unpark + park. Slow, but it is plain `std`, so Miri and
//!   ThreadSanitizer can run the scheduler through it. It is selected by
//!   `cfg(target_arch, target_os)` alone — never at run time — and compiled
//!   into the test build on every target so the shared unit tests below
//!   exercise it too.
//!
//! ## Unwinding
//!
//! A panic inside a context is caught at the context's entry. When control
//! then returns to the driver while some contexts are still suspended
//! mid-call, the driver *cancels* them: each is resumed, its pending
//! `switch_to` unwinds (quietly, no panic message), its destructors run, and
//! its entry hands the turn back. `drive` therefore always returns
//! with every context finished and nothing leaked, and reports the first
//! panic to its caller.

use std::any::Any;
use std::cell::{Cell, RefCell, RefMut};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Stack size of one context. The thread-per-processor engine this replaces
/// ran each simulated processor on a 16 MiB thread stack; applications that
/// recurse (Barnes' tree walk) were sized against that limit.
pub(crate) const STACK_BYTES: usize = 16 << 20;

/// A captured panic payload.
pub(crate) type Payload = Box<dyn Any + Send + 'static>;

/// The backend selected for this target.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub(crate) type DefaultBackend = native::Native;
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
pub(crate) type DefaultBackend = threads::Threads;

/// Where contexts live and how control moves between them. Slot `i < n` is
/// context `i`; slot `n` is the driver.
pub(crate) trait Backend: Sized {
    /// A backend for `n` contexts, owned by the calling thread (which holds
    /// the turn, as the driver-to-be).
    fn new(n: usize) -> Self;

    /// Panic unless the calling OS thread is the one the turn lives on.
    /// This check is what makes the `Sync` impl of [`Set`] sound, so it is
    /// a real assertion in every build.
    fn assert_turn(&self);

    /// Bring the `n` contexts into existence, each running `main(i)` the
    /// first time it is transferred to, run `driver` on the calling thread,
    /// then tear the contexts down.
    ///
    /// # Safety
    /// The caller holds the turn as the driver, calls this at most once,
    /// and every context has made its [`Backend::exit`] by the time
    /// `driver` returns ([`Set::drive`] sees to it).
    unsafe fn scope(&self, main: &(dyn Fn(usize) + Sync), driver: &mut dyn FnMut());

    /// Move the turn from slot `from` to slot `to`, and return when some
    /// later transfer names `from` again.
    ///
    /// # Safety
    /// Called inside [`Backend::scope`], by the party that holds the turn,
    /// with `from` its own slot and `to` a slot that is fresh or parked in
    /// a `transfer` of its own — never one that has made its `exit`.
    unsafe fn transfer(&self, from: usize, to: usize);

    /// The last transfer of a finished context: like [`Backend::transfer`],
    /// but `from` is never resumed. The native backend does not return; the
    /// thread backend returns so that the thread can end.
    ///
    /// # Safety
    /// As for [`Backend::transfer`]; and nothing with a destructor is live
    /// on `from`'s stack above `main`, because it will never run.
    unsafe fn exit(&self, from: usize, to: usize);
}

/// A number that differs between any two live OS threads: the address of a
/// thread-local marker. The marker holds no state — nothing about a run is
/// kept in thread-locals or statics, so any number of host threads can each
/// drive their own [`Set`] at once.
#[inline]
fn thread_token() -> usize {
    thread_local! { static MARK: u8 = const { 0 } }
    MARK.with(|m| m as *const u8 as usize)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    /// Never run; `entry` has not been called.
    Fresh,
    /// Inside `entry`, parked in a `switch_to`.
    Suspended,
    /// Holds the turn.
    Running,
    /// `entry` returned or unwound; never resumed again.
    Finished,
}

/// The payload a cancelled context unwinds with. Raised with
/// `resume_unwind`, so the panic hook stays silent.
struct Cancelled;

/// `n` contexts, the driver, and the state `T` they share under the turn
/// invariant (see the module docs).
pub(crate) struct Set<T, B: Backend = DefaultBackend> {
    state: RefCell<T>,
    status: Vec<Cell<Status>>,
    /// The slot that holds the turn (`status.len()` = the driver).
    current: Cell<usize>,
    /// Set by the driver once it starts unwinding what is left.
    cancelled: Cell<bool>,
    /// The first panic caught at a context's entry, with that context's
    /// index.
    panicked: Cell<Option<(usize, Payload)>>,
    backend: B,
}

// SAFETY: every `&self` method starts with `Backend::assert_turn`, which
// panics unless the caller is the OS thread the turn lives on. The native
// backend never moves the turn off its creating thread; the thread backend
// moves it with a Release store / Acquire load pair (`Threads::turn`), so
// the previous holder's writes to `state`, `status`, `current`, `cancelled`
// and `panicked` happen-before the next holder's reads. These fields are
// therefore only ever accessed by one thread at a time, in a total order.
// `T: Send` because under the thread backend `T` really is used from
// several threads (one at a time); `B: Sync` is each backend's own claim.
unsafe impl<T: Send, B: Backend + Sync> Sync for Set<T, B> {}

impl<T: Send, B: Backend + Sync> Set<T, B> {
    /// A set of `n` fresh contexts sharing `state`. The calling thread
    /// becomes the driver and holds the turn.
    pub(crate) fn new(n: usize, state: T) -> Self {
        Self {
            state: RefCell::new(state),
            status: (0..n).map(|_| Cell::new(Status::Fresh)).collect(),
            current: Cell::new(n),
            cancelled: Cell::new(false),
            panicked: Cell::new(None),
            backend: B::new(n),
        }
    }

    /// Borrow the shared state. Turn holder only. The borrow must end
    /// before the next [`Set::switch_to`] (which asserts it): the context
    /// switched to will borrow the state itself.
    #[inline]
    pub(crate) fn state(&self) -> RefMut<'_, T> {
        self.backend.assert_turn();
        self.state.borrow_mut()
    }

    /// Take the state back out once the run is over.
    pub(crate) fn into_state(self) -> T {
        self.state.into_inner()
    }

    /// The driver slot's index.
    #[inline]
    pub(crate) fn driver(&self) -> usize {
        self.status.len()
    }

    /// From inside a context: suspend the caller and give the turn to
    /// context `to`, which must be fresh or suspended. Returns when a later
    /// `switch_to` names the caller.
    ///
    /// # Panics
    /// Unwinds (without a panic message) if the driver cancelled the run
    /// while the caller was suspended.
    #[inline]
    pub(crate) fn switch_to(&self, to: usize) {
        self.backend.assert_turn();
        let from = self.current.get();
        assert!(
            from < self.driver(),
            "the driver resumes; it does not switch"
        );
        assert!(
            self.state.try_borrow_mut().is_ok(),
            "shared state still borrowed across a context switch"
        );
        self.status[from].set(Status::Suspended);
        self.claim(to);
        // SAFETY: we hold the turn (asserted above) and are inside `scope`,
        // or no context would be running; `from` is the running slot by
        // the bookkeeping of `current`, and `claim` checked `to`.
        unsafe { self.backend.transfer(from, to) };
        if self.cancelled.get() {
            resume_unwind(Box::new(Cancelled));
        }
    }

    /// Mark `to` as the turn holder, checking it can be resumed.
    #[inline]
    fn claim(&self, to: usize) {
        let st = self.status.get(to).expect("not a context of this set");
        assert!(
            matches!(st.get(), Status::Fresh | Status::Suspended),
            "context {to} cannot be resumed: {:?}",
            st.get()
        );
        st.set(Status::Running);
        self.current.set(to);
    }

    /// Run the set to completion from the calling (driver) thread: start
    /// context `first`; every context's first activation calls `entry(i)`.
    ///
    /// `entry` returns the slot its context hands the turn to when it is
    /// done — another resumable context, or [`Set::driver`] when it was the
    /// last. Returning the target, instead of switching to it, is what
    /// guarantees that every local of the entry (handles, `Arc`s) is dropped
    /// *before* the context's final switch-away: a finished context never
    /// runs again, so anything it still owned would leak.
    ///
    /// Returns when the turn comes back to the driver. Contexts still
    /// unfinished at that point (the run panicked, or deadlocked) are
    /// cancelled one at a time — see the module docs — so on return every
    /// context has finished. `Err` carries the first panic and the index of
    /// the context that raised it.
    pub(crate) fn drive(
        &self,
        first: usize,
        entry: &(dyn Fn(usize) -> usize + Sync),
    ) -> Result<(), (usize, Payload)> {
        self.backend.assert_turn();
        let n = self.driver();
        assert!(
            self.current.get() == n && self.status.iter().all(|s| s.get() == Status::Fresh),
            "a Set is driven once, by its creator"
        );
        let main = |i: usize| self.context_main(i, entry);
        let mut driver = || {
            self.resume(first);
            // Normally everything has finished by now. Otherwise unwind
            // what is suspended; what never started gets the turn once too,
            // finds the run cancelled and ends without calling `entry`
            // (the thread backend needs that to end the thread).
            // Code in a context may catch the cancelling unwind and switch
            // again, so one pass is not enough in general: go on until
            // every context has finished.
            self.cancelled.set(true);
            let unfinished = || (0..n).find(|&i| self.status[i].get() != Status::Finished);
            while let Some(i) = unfinished() {
                self.resume(i);
            }
        };
        // SAFETY: we hold the turn as the driver and this is the only
        // `scope` of this set (both asserted above); the loop in `driver`
        // leaves no context short of its `exit`.
        unsafe { self.backend.scope(&main, &mut driver) };
        match self.panicked.take() {
            Some(p) => Err(p),
            None => Ok(()),
        }
    }

    /// Driver side of a switch: run context `i` until the turn comes back.
    fn resume(&self, i: usize) {
        let n = self.driver();
        self.claim(i);
        // SAFETY: only called by `drive`'s driver closure: inside `scope`,
        // holding the turn as slot `n`; `claim` checked `i`.
        unsafe { self.backend.transfer(n, i) };
        debug_assert_eq!(self.current.get(), n);
    }

    /// The whole life of context `i`, on its own stack: run `entry` under
    /// `catch_unwind` (the native boot frame is `extern "C"` and must not
    /// unwind), record a panic, hand the turn on for the last time.
    fn context_main(&self, i: usize, entry: &(dyn Fn(usize) -> usize + Sync)) {
        let n = self.driver();
        let to = if self.cancelled.get() {
            n // never started: there is nothing to unwind
        } else {
            match catch_unwind(AssertUnwindSafe(|| entry(i))) {
                Ok(to) => to,
                Err(payload) => {
                    if !payload.is::<Cancelled>() {
                        // Keep the first; a later one (a destructor that
                        // panics while its context is being cancelled) is
                        // dropped here, before the switch below.
                        let first = self.panicked.take().unwrap_or((i, payload));
                        self.panicked.set(Some(first));
                    }
                    n
                }
            }
        };
        // Nothing with a destructor is live past this point.
        self.status[i].set(Status::Finished);
        if to < n {
            self.claim(to);
        } else {
            self.current.set(n);
        }
        // SAFETY: as in `switch_to`; and the block above left no local
        // with a destructor alive.
        unsafe { self.backend.exit(i, to) };
    }
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod native {
    //! x86_64 System V: `mmap`ed stacks and a register-swapping switch.

    use super::{thread_token, Backend, STACK_BYTES};
    use std::cell::Cell;
    use std::ffi::c_void;

    // The C library std already links; the workspace stays dependency-free
    // by declaring the three calls it needs.
    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            off: i64,
        ) -> *mut c_void;
        fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
    const PROT_NONE: i32 = 0;
    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    const MAP_PRIVATE: i32 = 0x02;
    const MAP_ANONYMOUS: i32 = 0x20;
    const MAP_NORESERVE: i32 = 0x4000;
    const MAP_STACK: i32 = 0x2_0000;
    const MAP_FAILED: *mut c_void = !0usize as *mut c_void;
    /// x86_64 Linux has no other base page size.
    const PAGE: usize = 4096;

    /// One context's stack: `STACK_BYTES` usable, plus one `PROT_NONE` guard
    /// page at the low end, so running off the end faults (the process dies
    /// with SIGSEGV) instead of writing into whatever is mapped below.
    /// `MAP_NORESERVE`: only the pages a context touches are ever backed.
    pub(super) struct Stack {
        base: *mut u8,
    }

    impl Stack {
        const LEN: usize = STACK_BYTES + PAGE;

        pub(super) fn new() -> Self {
            // SAFETY: an anonymous private mapping at an address of the
            // kernel's choosing aliases nothing.
            let base = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    Self::LEN,
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                    -1,
                    0,
                )
            };
            assert!(
                base != MAP_FAILED,
                "mmap of a {} MiB context stack failed: {}",
                STACK_BYTES >> 20,
                std::io::Error::last_os_error()
            );
            let stack = Self { base: base.cast() };
            // SAFETY: the first page of the mapping just created.
            let rc = unsafe { mprotect(base, PAGE, PROT_NONE) };
            assert!(
                rc == 0,
                "mprotect of a context stack's guard page failed: {}",
                std::io::Error::last_os_error()
            );
            stack
        }

        /// One past the highest usable byte; page-aligned, hence 16-aligned.
        fn top(&self) -> *mut u8 {
            self.base.wrapping_add(Self::LEN)
        }
    }

    impl Drop for Stack {
        fn drop(&mut self) {
            // SAFETY: exactly the mapping `new` created; nothing runs on it
            // (`scope` drops its stacks only after its driver is done).
            let rc = unsafe { munmap(self.base.cast(), Self::LEN) };
            debug_assert_eq!(rc, 0, "munmap of a context stack failed");
        }
    }

    /// Push the six callee-saved registers, store the stack pointer through
    /// `save` (`rdi`), load `to` (`rsi`) as the stack pointer, pop the six
    /// registers found there and return into whatever called `switch` on
    /// that stack — or into [`boot_frame`], for a fresh one. Everything else
    /// is caller-saved and dead across a call by the ABI. The MXCSR and x87
    /// control words are not switched: Rust code never leaves them changed.
    ///
    /// # Safety
    /// `save` is writable; `to` is a stack pointer this function saved, or
    /// one [`Native::prime`] built, on a stack that is still mapped and on
    /// which nothing is running.
    #[unsafe(naked)]
    unsafe extern "C" fn switch(save: *mut *mut u8, to: *mut u8) {
        core::arch::naked_asm!(
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            "mov [rdi], rsp",
            "mov rsp, rsi",
            "pop r15",
            "pop r14",
            "pop r13",
            "pop r12",
            "pop rbx",
            "pop rbp",
            "ret",
        )
    }

    /// The base frame of a fresh context: [`switch`] "returns" here with
    /// `r12` = the boot function and `r13` = its argument (see
    /// [`Native::prime`]). It clears `rbp` so frame-pointer walks end here,
    /// and declares its return address undefined so the DWARF unwinder
    /// (panics, backtraces) treats it as the outermost frame.
    ///
    /// # Safety
    /// Never called; only ever entered by `switch`'s `ret`.
    #[unsafe(naked)]
    unsafe extern "C" fn boot_frame() {
        core::arch::naked_asm!(
            ".cfi_startproc",
            ".cfi_undefined rip",
            "xor ebp, ebp",
            "mov rdi, r13",
            "call r12",
            "ud2",
            ".cfi_endproc",
        )
    }

    /// What a fresh context needs to find its way into Rust.
    struct Boot<'a> {
        main: &'a (dyn Fn(usize) + Sync),
        index: usize,
    }

    /// First Rust frame of a context. `main` never returns here (its last
    /// act is `Backend::exit`, which on this backend never gets the turn
    /// back) and
    /// never unwinds (`Set::context_main` catches everything; an `extern
    /// "C"` function aborts on unwind regardless).
    unsafe extern "C" fn boot(arg: *const Boot<'_>) -> ! {
        // SAFETY: `prime` put a pointer to a `Boot` that outlives every
        // context (it lives in `scope`'s frame) into this context's `r13`.
        let boot = unsafe { &*arg };
        (boot.main)(boot.index);
        std::process::abort(); // a finished context was resumed
    }

    pub(crate) struct Native {
        /// The thread that created the set: the turn never leaves it.
        owner: usize,
        /// Saved stack pointer of every slot that is not running; they
        /// point into stacks that `scope` owns.
        sp: Vec<Cell<*mut u8>>,
    }

    // SAFETY: `owner` is immutable. `sp` is only touched by `scope`,
    // `transfer` and `exit`, whose contract is that the caller holds the
    // turn — and the turn never leaves the owner thread.
    unsafe impl Sync for Native {}
    // SAFETY: the pointers in `sp` are only followed inside `scope`, which
    // borrows the struct, so it cannot move to another thread meanwhile;
    // outside `scope` they are never followed.
    unsafe impl Send for Native {}

    impl Native {
        /// Lay out a fresh stack so that the first `switch` to it pops six
        /// registers and "returns" into `boot_frame`, with `rsp`
        /// 16-byte aligned there — so that boot's `call` leaves the callee
        /// the `rsp ≡ 8 (mod 16)` the ABI promises every function.
        fn prime(stack: &Stack, arg: *const Boot<'_>) -> *mut u8 {
            let top = stack.top().cast::<usize>();
            debug_assert_eq!(top as usize % 16, 0);
            // [top-1]: spare, [top-2]: a null return address above the base
            // frame, [top-3]: `ret` target, [top-4 .. top-9]: rbp rbx r12
            // r13 r14 r15 in push order.
            let frame: [usize; 9] = [
                0,                                // r15
                0,                                // r14
                arg as usize,                     // r13
                boot as *const () as usize,       // r12
                0,                                // rbx
                0,                                // rbp
                boot_frame as *const () as usize, // return address
                0,
                0,
            ];
            // SAFETY: the nine words below `top` are inside the fresh,
            // writable, otherwise unused stack mapping.
            unsafe {
                let sp = top.sub(frame.len());
                std::ptr::copy_nonoverlapping(frame.as_ptr(), sp, frame.len());
                sp.cast()
            }
        }
    }

    impl Backend for Native {
        fn new(n: usize) -> Self {
            Self {
                owner: thread_token(),
                sp: (0..=n).map(|_| Cell::new(std::ptr::null_mut())).collect(),
            }
        }

        #[inline]
        fn assert_turn(&self) {
            assert!(
                self.owner == thread_token(),
                "coroutine set used from a thread other than its creator"
            );
        }

        unsafe fn scope(&self, main: &(dyn Fn(usize) + Sync), driver: &mut dyn FnMut()) {
            let n = self.sp.len() - 1;
            let boots: Vec<Boot<'_>> = (0..n).map(|index| Boot { main, index }).collect();
            let stacks: Vec<Stack> = (0..n).map(|_| Stack::new()).collect();
            for (i, stack) in stacks.iter().enumerate() {
                self.sp[i].set(Self::prime(stack, &boots[i]));
            }
            driver();
            // Every context has made its final transfer: nothing runs on
            // the stacks any more, and they are unmapped here.
        }

        #[inline]
        unsafe fn transfer(&self, from: usize, to: usize) {
            // SAFETY: by this function's contract `from` is the running
            // slot, so the current stack pointer belongs in `sp[from]`, and
            // `to` is fresh or suspended, so `sp[to]` is what `prime` built
            // or what an earlier `transfer` saved, on a stack that is still
            // mapped (we are inside `scope`). The asm obeys the C ABI, so to
            // the compiler this is an ordinary call.
            unsafe { switch(self.sp[from].as_ptr(), self.sp[to].get()) }
        }

        unsafe fn exit(&self, from: usize, to: usize) {
            // SAFETY: the same contract. Nobody transfers to a slot that
            // has made its exit, so this does not return (`boot` aborts if
            // it ever does).
            unsafe { self.transfer(from, to) };
        }
    }

    #[cfg(test)]
    mod tests {
        use super::Stack;

        fn mappings() -> usize {
            std::fs::read_to_string("/proc/self/maps")
                .expect("/proc/self/maps")
                .lines()
                .count()
        }

        #[test]
        fn stacks_are_unmapped_on_drop() {
            // Other tests of this binary map and unmap stacks of their own
            // meanwhile (a few dozen at most), hence the slack; one leaked
            // mapping per stack would show as 10^4 lines.
            const SLACK: usize = 150;
            let before = mappings();
            let held: Vec<Stack> = (0..2 * SLACK).map(|_| Stack::new()).collect();
            // Each live stack is two lines: its guard page and the rest.
            assert!(mappings() >= before + 4 * SLACK - SLACK);
            drop(held);
            for _ in 0..10_000 {
                drop(Stack::new());
            }
            let after = mappings();
            assert!(
                after.abs_diff(before) < SLACK,
                "mappings went from {before} to {after}"
            );
        }
    }
}

#[cfg(any(test, not(all(target_arch = "x86_64", target_os = "linux"))))]
mod threads {
    //! The portable backend: a context is a parked OS thread.

    use super::{thread_token, Backend, STACK_BYTES};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::OnceLock;
    use std::thread::Thread;

    pub(crate) struct Threads {
        /// The slot whose turn it is. Stored with `Release` by the party
        /// giving the turn away, loaded with `Acquire` by the party waiting
        /// for it: the edge the turn invariant rests on.
        turn: AtomicUsize,
        /// `thread_token` of the OS thread the turn lives on; written by
        /// that thread itself when it takes the turn.
        owner: AtomicUsize,
        /// Handle of every slot's thread (the driver's last), for `unpark`.
        threads: Vec<OnceLock<Thread>>,
    }

    impl Threads {
        /// Park until it is slot `me`'s turn.
        fn wait_turn(&self, me: usize) {
            while self.turn.load(Ordering::Acquire) != me {
                std::thread::park(); // may wake spuriously: re-check
            }
            self.owner.store(thread_token(), Ordering::Relaxed);
        }

        fn give_turn(&self, to: usize) {
            // Nobody owns the turn while it is in flight.
            self.owner.store(0, Ordering::Relaxed);
            self.turn.store(to, Ordering::Release);
            self.threads[to]
                .get()
                .expect("every slot's thread is registered before the first transfer")
                .unpark();
        }
    }

    impl Backend for Threads {
        fn new(n: usize) -> Self {
            Self {
                turn: AtomicUsize::new(n),
                owner: AtomicUsize::new(thread_token()),
                threads: (0..=n).map(|_| OnceLock::new()).collect(),
            }
        }

        #[inline]
        fn assert_turn(&self) {
            assert!(
                self.owner.load(Ordering::Relaxed) == thread_token(),
                "coroutine set used by a thread that does not hold the turn"
            );
        }

        unsafe fn scope(&self, main: &(dyn Fn(usize) + Sync), driver: &mut dyn FnMut()) {
            let n = self.threads.len() - 1;
            let register = |slot: usize, t: Thread| {
                self.threads[slot]
                    .set(t)
                    .expect("a Set is driven once, by its creator");
            };
            register(n, std::thread::current());
            std::thread::scope(|s| {
                for i in 0..n {
                    let handle = std::thread::Builder::new()
                        .name(format!("simproc-{i}"))
                        .stack_size(STACK_BYTES)
                        .spawn_scoped(s, move || {
                            self.wait_turn(i);
                            main(i);
                        })
                        .expect("spawn a context thread");
                    register(i, handle.thread().clone());
                }
                driver();
                // The scope joins the context threads; `Set::drive` has
                // resumed every one of them to its end.
            });
        }

        // Nothing here is unsafe in itself; the contract is what keeps
        // `Set`'s cells single-threaded.
        unsafe fn transfer(&self, from: usize, to: usize) {
            self.give_turn(to);
            self.wait_turn(from);
        }

        unsafe fn exit(&self, _from: usize, to: usize) {
            self.give_turn(to);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Instantiate the backend-generic tests below for one backend.
    macro_rules! backend_tests {
        ($module:ident, $backend:ty) => {
            mod $module {
                use super::*;

                #[test]
                fn ping_pong_preserves_locals_and_a_checksum() {
                    super::ping_pong::<$backend>();
                }

                #[test]
                fn deep_recursion_fits_the_stack() {
                    super::deep_recursion::<$backend>();
                }

                #[test]
                fn panic_is_caught_and_suspended_contexts_unwind() {
                    super::panic_and_cancel::<$backend>();
                }

                #[test]
                fn never_started_contexts_never_call_entry() {
                    super::unstarted::<$backend>();
                }
            }
        };
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    backend_tests!(on_native, native::Native);
    backend_tests!(on_threads, threads::Threads);

    /// 10^5 switches between two contexts; each keeps live locals across
    /// every switch and both fold into one running checksum.
    fn ping_pong<B: Backend + Sync>() {
        const ROUNDS: u64 = 50_000;
        let set: Set<u64, B> = Set::new(2, 0);
        set.drive(0, &|me| {
            let other = 1 - me;
            let mut mine = me as u64; // live across every switch
            let salt = 0x9e37_79b9_u64 + me as u64;
            for round in 0..ROUNDS {
                {
                    let mut sum = set.state();
                    *sum = sum.wrapping_mul(31).wrapping_add(round ^ salt);
                }
                mine += 2;
                if !(me == 1 && round == ROUNDS - 1) {
                    set.switch_to(other);
                }
            }
            assert_eq!(mine, me as u64 + 2 * ROUNDS);
            // Context 1 runs the last round, while 0 is parked in its last
            // switch: 1 hands back to 0, which then finishes to the driver.
            if me == 1 {
                other
            } else {
                set.driver()
            }
        })
        .unwrap_or_else(|_| panic!("a context panicked"));
        let mut expect = 0u64;
        for round in 0..ROUNDS {
            for me in 0..2u64 {
                expect = expect
                    .wrapping_mul(31)
                    .wrapping_add(round ^ (0x9e37_79b9 + me));
            }
        }
        assert_eq!(set.into_state(), expect);
    }

    /// A context uses more than half of its 16 MiB and returns.
    fn deep_recursion<B: Backend + Sync>() {
        const DEPTH_BYTES: usize = 9 << 20;
        /// Recurse until the stack is `DEPTH_BYTES` below `base`; returns
        /// the number of frames that took.
        #[inline(never)]
        fn dive(base: usize, frames: usize) -> usize {
            let pad = std::hint::black_box([frames as u8; 512]);
            if base - pad.as_ptr() as usize >= DEPTH_BYTES {
                frames
            } else {
                dive(base, frames + 1) + (std::hint::black_box(pad[256]) as usize >> 8)
            }
        }
        let set: Set<usize, B> = Set::new(1, 0);
        set.drive(0, &|_| {
            let base = 0u8;
            let frames = dive(&base as *const u8 as usize, 1);
            *set.state() = frames;
            set.driver()
        })
        .unwrap_or_else(|_| panic!("the context panicked"));
        // Each frame holds at least its 512-byte pad.
        let frames = set.into_state();
        assert!(frames > 1 && frames <= DEPTH_BYTES / 512 + 1, "{frames}");
    }

    /// Counts its drops: a stand-in for whatever code keeps on a context's
    /// stack.
    pub(crate) struct CountDrop<'a>(pub(crate) &'a AtomicUsize);
    impl Drop for CountDrop<'_> {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Context 0 panics while 1 and 2 are suspended holding guards: the
    /// panic is reported with its index, both guards are dropped exactly
    /// once, and a fresh set on the same thread then runs normally.
    fn panic_and_cancel<B: Backend + Sync>() {
        let drops = AtomicUsize::new(0);
        let set: Set<Vec<usize>, B> = Set::new(3, Vec::new());
        let err = set
            .drive(1, &|me| {
                set.state().push(me);
                let _guard = CountDrop(&drops);
                match me {
                    1 => set.switch_to(2),
                    2 => set.switch_to(0),
                    _ => panic!("boom"),
                }
                unreachable!("a cancelled context must unwind out of switch_to");
            })
            .expect_err("context 0 panicked");
        assert_eq!(err.0, 0);
        assert_eq!(err.1.downcast_ref::<&str>(), Some(&"boom"));
        assert_eq!(drops.load(Ordering::Relaxed), 3);
        assert_eq!(set.into_state(), vec![1, 2, 0]);

        let again: Set<u32, B> = Set::new(1, 0);
        again
            .drive(0, &|_| {
                *again.state() = 7;
                again.driver()
            })
            .unwrap_or_else(|_| panic!("the fresh context panicked"));
        assert_eq!(again.into_state(), 7);
    }

    /// Contexts that never got the turn never call `entry`.
    fn unstarted<B: Backend + Sync>() {
        let set: Set<Vec<usize>, B> = Set::new(4, Vec::new());
        set.drive(2, &|me| {
            set.state().push(me);
            set.driver()
        })
        .unwrap_or_else(|_| panic!("the context panicked"));
        assert_eq!(set.into_state(), vec![2]);
    }
}
