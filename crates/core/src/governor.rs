//! The resource governor: deadlines, fuel, memory ceilings and cooperative
//! cancellation for every search loop in the evaluation stack.
//!
//! CXRPQ evaluation is PSPACE-hard in general (Theorem 1), so a single
//! adversarial — or merely unlucky — query can otherwise pin a core
//! indefinitely. A [`Governor`] is a cheap shared handle (an
//! `Arc<Governor>` rides inside [`SolveOptions`](crate::solve::SolveOptions)
//! and [`EvalOptions`](crate::engine::EvalOptions)) that every hot loop
//! consults at its checkpoints:
//!
//! - the product searches of [`crate::reach`],
//! - the synchronized product levels of [`crate::sync`],
//! - the sharded level barriers of [`crate::frontier`] (workers observe the
//!   flag and drain),
//! - the backtracking enumeration of [`crate::solve`],
//! - the semi-join fixpoint of [`crate::domains`],
//! - the witness searches of [`crate::witness`], the bounded mapping
//!   enumeration of [`crate::bounded`], and the restricted walks of
//!   [`crate::path_semantics`].
//!
//! A checkpoint ([`Governor::checkpoint`]) charges fuel, then tests — in
//! order — fault injection, the step budget, the cooperative cancel flags,
//! the memory ceiling, and (every few checkpoints, to amortize the clock
//! read) the deadline. The first failing test *trips* the governor with an
//! [`AbortReason`]; the trip is **sticky**: every later checkpoint fails
//! immediately, so deep loops bail out cooperatively and the whole stack
//! drains in bounded time without unwinding.
//!
//! **Abort discipline.** A tripped governor makes every search
//! *under-approximate*: partial BFS reach sets are sound subsets, an
//! aborted group check reports "no", an aborted prune only ever shrinks
//! domains, and an aborted existential witness skips its tuple. Partial
//! answers are therefore always a subset of the complete answer set — the
//! property `tests/prop_abort_safety.rs` drives at every checkpoint index.
//! Caches must never retain partially-filled entries:
//! [`ReachCache`](crate::reach::ReachCache) skips memoization whenever its
//! governor tripped mid-search, so a repeat solve after an abort equals a
//! fresh solve.
//!
//! **Memory accounting** ([`Governor::charge_mem`]) is *approximate and
//! cumulative*: the big allocation sites (dense bitsets, memoized reach
//! sets, projection dedup tables) charge
//! their footprint when they allocate; nothing is refunded on free. The
//! ceiling therefore bounds the total allocation traffic of one evaluation,
//! which is the quantity that matters for an adversarial query. The
//! per-thread search scratch of [`crate::reach`] outlives every query, so
//! a search is charged the buffers it would allocate were they its own
//! (see that module's docs), never the scratch's growth: the charge, and
//! with it the verdict under a ceiling, is a function of the query alone,
//! not of which searches a thread ran before.
//!
//! **Fault injection** ([`Governor::with_injection`]) deterministically
//! trips the governor at the k-th checkpoint with
//! [`AbortReason::Injected`] — the hook the abort-safety property suite
//! uses to prove that *every* checkpoint is a safe abort point. A counting
//! dry run ([`Governor::checkpoints_seen`]) learns how many checkpoints an
//! evaluation passes; the suite then replays with `inject_at` sampled from
//! that range.
//!
//! Governors are **single-use**: one evaluation, one governor. A tripped
//! governor never untripss; repeat solves take a fresh handle.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why an evaluation was aborted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AbortReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The step (fuel) budget ran out.
    Fuel,
    /// The approximate memory ceiling was exceeded.
    Memory,
    /// The cooperative cancel flag was raised.
    Cancelled,
    /// A fault-injection trip (testing only; see
    /// [`Governor::with_injection`]).
    Injected,
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortReason::Deadline => write!(f, "deadline"),
            AbortReason::Fuel => write!(f, "fuel"),
            AbortReason::Memory => write!(f, "memory"),
            AbortReason::Cancelled => write!(f, "cancelled"),
            AbortReason::Injected => write!(f, "injected"),
        }
    }
}

/// Whether an evaluation ran to completion or was aborted (and why).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// The evaluation explored everything it was asked to: the result is
    /// whatever the engine's semantics promise (exact, or `⊨_{≤k}`).
    Complete,
    /// The governor tripped mid-flight: the result is a sound *partial*
    /// under-approximation (partial answers ⊆ complete answers).
    Aborted(AbortReason),
}

impl Verdict {
    /// Whether the evaluation ran to completion.
    pub fn is_complete(&self) -> bool {
        matches!(self, Verdict::Complete)
    }

    /// The abort reason, if any.
    pub fn abort_reason(&self) -> Option<AbortReason> {
        match self {
            Verdict::Complete => None,
            Verdict::Aborted(r) => Some(*r),
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Complete => write!(f, "complete"),
            Verdict::Aborted(r) => write!(f, "aborted ({r})"),
        }
    }
}

/// Encoding of the sticky trip state: 0 = running, otherwise
/// `AbortReason as u8 + 1`.
const NOT_TRIPPED: u8 = 0;

fn encode(reason: AbortReason) -> u8 {
    reason as u8 + 1
}

fn decode(raw: u8) -> Option<AbortReason> {
    match raw {
        0 => None,
        1 => Some(AbortReason::Deadline),
        2 => Some(AbortReason::Fuel),
        3 => Some(AbortReason::Memory),
        4 => Some(AbortReason::Cancelled),
        _ => Some(AbortReason::Injected),
    }
}

/// How often (in checkpoints) the deadline clock is actually read;
/// everything else is a relaxed atomic op per checkpoint.
const DEADLINE_STRIDE: u64 = 32;

/// The shared resource-governor handle (see the module docs).
///
/// All state is atomic: sharded frontier workers consult the same governor
/// through a shared reference, and an external thread cancels through the
/// same `Arc<Governor>` (or a detached [`Governor::cancel_flag`]).
pub struct Governor {
    /// Wall-clock deadline (`None` = unlimited).
    deadline: Option<Instant>,
    /// Step budget (`u64::MAX` = unlimited).
    max_steps: u64,
    /// Approximate memory ceiling in bytes (`usize::MAX` = unlimited).
    mem_limit: usize,
    /// Fault injection: trip at this checkpoint ordinal (`u64::MAX` = off).
    inject_at: u64,
    /// External cancel flag shared beyond this governor's `Arc`.
    external_cancel: Option<Arc<AtomicBool>>,
    steps: AtomicU64,
    checkpoints: AtomicU64,
    mem_used: AtomicUsize,
    cancel: AtomicBool,
    tripped: AtomicU8,
}

/// The process-wide disabled governor: every checkpoint passes, nothing is
/// ever recorded. Hot loops that run ungoverned borrow this instead of
/// branching on an `Option`.
static DISABLED: Governor = Governor {
    deadline: None,
    max_steps: u64::MAX,
    mem_limit: usize::MAX,
    inject_at: u64::MAX,
    external_cancel: None,
    steps: AtomicU64::new(0),
    checkpoints: AtomicU64::new(0),
    mem_used: AtomicUsize::new(0),
    cancel: AtomicBool::new(false),
    tripped: AtomicU8::new(NOT_TRIPPED),
};

impl fmt::Debug for Governor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Governor")
            .field("deadline", &self.deadline)
            .field("max_steps", &self.max_steps)
            .field("mem_limit", &self.mem_limit)
            .field("inject_at", &self.inject_at)
            .field("steps", &self.steps_taken())
            .field("checkpoints", &self.checkpoints_seen())
            .field("verdict", &self.verdict())
            .finish()
    }
}

impl Default for Governor {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl Governor {
    /// A governor with no limits: checkpoints always pass (until
    /// [`Governor::cancel`] is called), but steps, checkpoints and memory
    /// are still counted — the counting dry run of the fault-injection
    /// harness uses exactly this.
    pub fn unlimited() -> Self {
        Self {
            deadline: None,
            max_steps: u64::MAX,
            mem_limit: usize::MAX,
            inject_at: u64::MAX,
            external_cancel: None,
            steps: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            mem_used: AtomicUsize::new(0),
            cancel: AtomicBool::new(false),
            tripped: AtomicU8::new(NOT_TRIPPED),
        }
    }

    /// The shared always-passing governor for ungoverned call paths.
    pub fn disabled() -> &'static Governor {
        &DISABLED
    }

    /// Sets a wall-clock deadline `d` from now.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(Instant::now() + d);
        self
    }

    /// Sets an absolute wall-clock deadline.
    pub fn with_deadline_at(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Sets the step (fuel) budget.
    pub fn with_max_steps(mut self, n: u64) -> Self {
        self.max_steps = n;
        self
    }

    /// Sets the approximate memory ceiling, in bytes.
    pub fn with_mem_limit(mut self, bytes: usize) -> Self {
        self.mem_limit = bytes;
        self
    }

    /// Fault injection (testing): trip with [`AbortReason::Injected`] at
    /// the `k`-th checkpoint (1-based).
    pub fn with_injection(mut self, k: u64) -> Self {
        self.inject_at = k;
        self
    }

    /// Observes an externally shared cancel flag in addition to this
    /// governor's own: raising either flag cancels the evaluation at the
    /// next checkpoint.
    pub fn with_cancel_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.external_cancel = Some(flag);
        self
    }

    /// Raises the cooperative cancel flag; the evaluation aborts with
    /// [`AbortReason::Cancelled`] at its next checkpoint.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// A detached handle to this governor's cancel flag (the external one
    /// when configured, a fresh view of the internal state otherwise is not
    /// possible — so this returns the external flag if present).
    pub fn cancel_flag(&self) -> Option<Arc<AtomicBool>> {
        self.external_cancel.clone()
    }

    /// Trips the governor with `reason` (first trip wins; later trips are
    /// ignored so the original cause is reported).
    fn trip(&self, reason: AbortReason) {
        let _ = self.tripped.compare_exchange(
            NOT_TRIPPED,
            encode(reason),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Whether the governor has tripped.
    #[inline]
    pub fn is_aborted(&self) -> bool {
        self.tripped.load(Ordering::Relaxed) != NOT_TRIPPED
    }

    /// The abort reason, if tripped.
    pub fn abort_reason(&self) -> Option<AbortReason> {
        decode(self.tripped.load(Ordering::Relaxed))
    }

    /// The verdict so far: [`Verdict::Complete`] while untripped.
    pub fn verdict(&self) -> Verdict {
        match self.abort_reason() {
            None => Verdict::Complete,
            Some(r) => Verdict::Aborted(r),
        }
    }

    /// Fuel consumed so far.
    pub fn steps_taken(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// Checkpoints passed through so far (the fault-injection dry run reads
    /// this to learn the injection range).
    pub fn checkpoints_seen(&self) -> u64 {
        self.checkpoints.load(Ordering::Relaxed)
    }

    /// Approximate bytes charged so far.
    pub fn mem_charged(&self) -> usize {
        self.mem_used.load(Ordering::Relaxed)
    }

    /// Charges `bytes` against the memory ceiling (approximate, cumulative;
    /// see the module docs). Exceeding the ceiling trips the governor; the
    /// allocation itself still proceeds — the *next* checkpoint aborts.
    pub fn charge_mem(&self, bytes: usize) {
        if self.mem_limit == usize::MAX {
            return;
        }
        let total = self.mem_used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if total > self.mem_limit {
            self.trip(AbortReason::Memory);
        }
    }

    /// One checkpoint charging a single step. Returns `true` to keep going,
    /// `false` when the evaluation must drain and abort.
    #[inline]
    pub fn checkpoint(&self) -> bool {
        self.checkpoint_n(1)
    }

    /// One checkpoint charging `steps` units of fuel (batch form for
    /// level-synchronous loops: one checkpoint per level, fuel proportional
    /// to the level's size).
    pub fn checkpoint_n(&self, steps: u64) -> bool {
        if self.is_aborted() {
            return false; // sticky
        }
        let k = self.checkpoints.fetch_add(1, Ordering::Relaxed) + 1;
        if k >= self.inject_at {
            self.trip(AbortReason::Injected);
            return false;
        }
        let used = self.steps.fetch_add(steps, Ordering::Relaxed) + steps;
        if used > self.max_steps {
            self.trip(AbortReason::Fuel);
            return false;
        }
        if self.cancel.load(Ordering::Relaxed)
            || self
                .external_cancel
                .as_ref()
                .is_some_and(|f| f.load(Ordering::Relaxed))
        {
            self.trip(AbortReason::Cancelled);
            return false;
        }
        if self.is_aborted() {
            // A concurrent worker (or a `charge_mem`) tripped between the
            // entry check and here.
            return false;
        }
        if let Some(dl) = self.deadline {
            // Reading the clock is the expensive part of a checkpoint;
            // amortize it over a stride (the first checkpoint always
            // checks, so a deadline already in the past trips immediately).
            if (k % DEADLINE_STRIDE == 1 || DEADLINE_STRIDE == 1) && Instant::now() >= dl {
                self.trip(AbortReason::Deadline);
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_always_passes_and_records_nothing_visible() {
        let g = Governor::disabled();
        for _ in 0..100 {
            assert!(g.checkpoint());
        }
        assert!(!g.is_aborted());
        assert!(g.verdict().is_complete());
    }

    #[test]
    fn fuel_trips_and_stays_tripped() {
        let g = Governor::unlimited().with_max_steps(10);
        let mut passed = 0;
        for _ in 0..100 {
            if g.checkpoint() {
                passed += 1;
            }
        }
        assert_eq!(passed, 10);
        assert_eq!(g.abort_reason(), Some(AbortReason::Fuel));
        assert!(!g.checkpoint(), "trip is sticky");
        assert_eq!(g.verdict(), Verdict::Aborted(AbortReason::Fuel));
    }

    #[test]
    fn past_deadline_trips_on_first_checkpoint() {
        let g = Governor::unlimited().with_deadline(Duration::from_secs(0));
        assert!(!g.checkpoint());
        assert_eq!(g.abort_reason(), Some(AbortReason::Deadline));
    }

    #[test]
    fn cancel_trips_cooperatively() {
        let g = Governor::unlimited();
        assert!(g.checkpoint());
        g.cancel();
        assert!(!g.checkpoint());
        assert_eq!(g.abort_reason(), Some(AbortReason::Cancelled));
    }

    #[test]
    fn external_cancel_flag_observed() {
        let flag = Arc::new(AtomicBool::new(false));
        let g = Governor::unlimited().with_cancel_flag(flag.clone());
        assert!(g.checkpoint());
        flag.store(true, Ordering::Relaxed);
        assert!(!g.checkpoint());
        assert_eq!(g.abort_reason(), Some(AbortReason::Cancelled));
    }

    #[test]
    fn memory_ceiling_trips_next_checkpoint() {
        let g = Governor::unlimited().with_mem_limit(1000);
        g.charge_mem(600);
        assert!(g.checkpoint());
        g.charge_mem(600);
        assert!(g.is_aborted());
        assert!(!g.checkpoint());
        assert_eq!(g.abort_reason(), Some(AbortReason::Memory));
        assert!(g.mem_charged() >= 1200);
    }

    #[test]
    fn injection_trips_at_exact_checkpoint() {
        for k in 1..=5u64 {
            let g = Governor::unlimited().with_injection(k);
            let mut passed = 0u64;
            while g.checkpoint() {
                passed += 1;
            }
            assert_eq!(passed, k - 1, "inject_at = {k}");
            assert_eq!(g.abort_reason(), Some(AbortReason::Injected));
        }
    }

    #[test]
    fn counting_dry_run_reports_checkpoints() {
        let g = Governor::unlimited();
        for _ in 0..17 {
            assert!(g.checkpoint_n(3));
        }
        assert_eq!(g.checkpoints_seen(), 17);
        assert_eq!(g.steps_taken(), 51);
    }
}
