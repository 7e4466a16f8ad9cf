//! Wait channels and barriers, with spin-then-block waiting.
//!
//! The futex-level substrate user-space synchronisation is built on.
//! A *channel* is a counting token queue: `notify` deposits tokens (waking
//! waiters first), `wait` consumes one or blocks. A *barrier* collects
//! `parties` arrivals and releases everyone at once.
//!
//! Waiters come in two flavours, because the distinction drives the
//! paper's context-switch accounting: a **blocked** waiter is off the
//! runqueue (its arrival and departure each cost a context switch), while
//! a **spinning** waiter busy-waits on its CPU — the MPI library
//! behaviour (MPICH spins before yielding) that explains why the NAS
//! benchmarks' baseline context-switch counts are low even for
//! synchronisation-heavy codes. The kernel (node.rs) performs the actual
//! blocking, spinning and waking; this module is pure bookkeeping.

use crate::task::{BlockReason, Pid, SpinTarget};
use std::collections::{HashMap, VecDeque};
use std::fmt;

/// Identifier of a wait channel. Allocation is up to the runtime built on
/// top (the MPI crate derives ids from rank pairs and collective ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChanId(pub u64);

/// Identifier of a barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BarrierId(pub u64);

/// A block of network-endpoint channels: the cross-node channels one
/// job sends on from one node.
///
/// A job lays its pairwise channels out as a `width × width` grid
/// starting at `first` (`first + src·width + dst` carries `src → dst`).
/// The ranks on one node are a contiguous run, `local`; the channels
/// that node sends across the network are the grid's `local` rows minus
/// its `local` columns (a receiver on the same node is reached through
/// shared memory). Registering the block costs O(1) per node and job,
/// where listing its channels would cost O(ranks on the node × ranks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetBlock {
    /// Id of the grid's first channel (`0 → 0`).
    first: u64,
    /// Grid width: the job's rank count.
    width: u64,
    /// Ranks on the node: the block's sender rows, and the receiver
    /// columns it excludes.
    local: std::ops::Range<u64>,
}

impl NetBlock {
    /// The block of a `width × width` channel grid starting at id
    /// `first`, for the node hosting ranks `local`. Panics unless
    /// `local` is a non-empty run of ranks inside the grid.
    pub fn new(first: u64, width: u64, local: std::ops::Range<u64>) -> Self {
        assert!(
            local.start < local.end && local.end <= width,
            "local ranks {local:?} outside a grid of width {width}"
        );
        NetBlock {
            first,
            width,
            local,
        }
    }

    /// The channel ids the block's grid spans, `first .. first + width²`.
    /// Blocks registered on one node must span disjoint ranges.
    pub(crate) fn span(&self) -> std::ops::Range<u64> {
        self.first..self.first + self.width * self.width
    }

    /// True iff `chan` is in the block: a grid channel whose sender is
    /// local and whose receiver is not.
    #[inline]
    pub fn contains(&self, chan: ChanId) -> bool {
        let Some(off) = chan.0.checked_sub(self.first) else {
            return false;
        };
        self.local.contains(&(off / self.width)) && !self.local.contains(&(off % self.width))
    }
}

impl fmt::Display for ChanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chan{}", self.0)
    }
}

impl fmt::Display for BarrierId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "barrier{}", self.0)
    }
}

/// How a satisfied waiter had been waiting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Waiting {
    /// Off the runqueue; must be woken.
    Blocked,
    /// Busy-waiting on its CPU; its spin must be cancelled.
    Spinning,
}

/// Result of a wait attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitOutcome {
    /// A token was available; the caller proceeds immediately.
    Proceed,
    /// The caller must wait (blocked or spinning, per the call used).
    Wait,
}

#[derive(Debug, Default)]
struct Chan {
    tokens: u64,
    blocked: VecDeque<Pid>,
    spinners: VecDeque<Pid>,
}

#[derive(Debug, Default)]
struct Barrier {
    arrived: u32,
    blocked: Vec<Pid>,
    spinners: Vec<Pid>,
    generation: u64,
}

/// All channel and barrier state of one node.
#[derive(Debug, Default)]
pub struct SyncState {
    chans: HashMap<ChanId, Chan>,
    barriers: HashMap<BarrierId, Barrier>,
}

impl SyncState {
    /// Fresh, empty state.
    pub fn new() -> Self {
        SyncState::default()
    }

    /// Attempt to consume a token, registering `pid` as a **blocked**
    /// waiter on failure.
    pub fn wait(&mut self, chan: ChanId, pid: Pid) -> WaitOutcome {
        let c = self.chans.entry(chan).or_default();
        if c.tokens > 0 {
            c.tokens -= 1;
            WaitOutcome::Proceed
        } else {
            debug_assert!(!c.blocked.contains(&pid), "{pid} double-waits on {chan}");
            c.blocked.push_back(pid);
            WaitOutcome::Wait
        }
    }

    /// Attempt to consume a token, registering `pid` as a **spinning**
    /// waiter on failure.
    pub fn spin_wait(&mut self, chan: ChanId, pid: Pid) -> WaitOutcome {
        let c = self.chans.entry(chan).or_default();
        if c.tokens > 0 {
            c.tokens -= 1;
            WaitOutcome::Proceed
        } else {
            debug_assert!(!c.spinners.contains(&pid));
            c.spinners.push_back(pid);
            WaitOutcome::Wait
        }
    }

    /// A spinner's patience ran out: convert it to a blocked waiter.
    pub fn chan_spin_to_block(&mut self, chan: ChanId, pid: Pid) {
        let c = self.chans.entry(chan).or_default();
        let was_spinning = c.spinners.iter().any(|&p| p == pid);
        debug_assert!(was_spinning, "{pid} was not spinning on {chan}");
        c.spinners.retain(|&p| p != pid);
        c.blocked.push_back(pid);
    }

    /// Deposit `tokens` tokens. Each token satisfies one waiter —
    /// spinners first (they notice immediately), then blocked waiters
    /// (FIFO) — or banks if nobody waits. Returns the satisfied waiters
    /// and how each was waiting.
    pub fn notify(&mut self, chan: ChanId, tokens: u32) -> Vec<(Pid, Waiting)> {
        let c = self.chans.entry(chan).or_default();
        let mut out = Vec::new();
        for _ in 0..tokens {
            if let Some(p) = c.spinners.pop_front() {
                out.push((p, Waiting::Spinning));
            } else if let Some(p) = c.blocked.pop_front() {
                out.push((p, Waiting::Blocked));
            } else {
                c.tokens += 1;
            }
        }
        out
    }

    /// Arrive at a barrier of `parties` participants.
    ///
    /// Returns `None` if the caller must wait (it is registered as
    /// spinning or blocked per `spin`), or `Some(waiters)` — everyone to
    /// release — if this arrival completes the barrier; the caller itself
    /// proceeds. The barrier resets for the next generation.
    pub fn barrier_arrive(
        &mut self,
        barrier: BarrierId,
        parties: u32,
        pid: Pid,
        spin: bool,
    ) -> Option<Vec<(Pid, Waiting)>> {
        assert!(parties > 0, "barrier with zero parties");
        let b = self.barriers.entry(barrier).or_default();
        b.arrived += 1;
        debug_assert!(
            b.arrived <= parties,
            "barrier {barrier} overfilled: {} > {parties}",
            b.arrived
        );
        if b.arrived == parties {
            let mut out: Vec<(Pid, Waiting)> = b
                .spinners
                .drain(..)
                .map(|p| (p, Waiting::Spinning))
                .collect();
            out.extend(b.blocked.drain(..).map(|p| (p, Waiting::Blocked)));
            b.arrived = 0;
            b.generation += 1;
            Some(out)
        } else {
            if spin {
                debug_assert!(!b.spinners.contains(&pid));
                b.spinners.push(pid);
            } else {
                debug_assert!(!b.blocked.contains(&pid));
                b.blocked.push(pid);
            }
            None
        }
    }

    /// A barrier spinner's patience ran out: convert to blocked.
    pub fn barrier_spin_to_block(&mut self, barrier: BarrierId, pid: Pid) {
        let b = self.barriers.entry(barrier).or_default();
        let was_spinning = b.spinners.contains(&pid);
        debug_assert!(was_spinning, "{pid} was not spinning on {barrier}");
        b.spinners.retain(|&p| p != pid);
        b.blocked.push(pid);
    }

    /// Remove a dying `pid` from the wait lists it can be on: the
    /// channel or barrier it is blocked on (`block`) and the one it
    /// spins on (`spin`). A task is on no other list, so teardown costs
    /// O(waiters of those two) rather than a scan of every channel and
    /// barrier the node ever created; debug builds make that scan and
    /// assert it finds nothing left.
    pub fn forget(&mut self, pid: Pid, block: Option<BlockReason>, spin: Option<SpinTarget>) {
        let block = block.and_then(|r| match r {
            BlockReason::Chan(c) => Some(SpinTarget::Chan(c)),
            BlockReason::Barrier(b) => Some(SpinTarget::Barrier(b)),
            BlockReason::Timer | BlockReason::Children => None,
        });
        for wait in [block, spin].into_iter().flatten() {
            match wait {
                SpinTarget::Chan(chan) => {
                    if let Some(c) = self.chans.get_mut(&chan) {
                        c.blocked.retain(|&w| w != pid);
                        c.spinners.retain(|&w| w != pid);
                    }
                }
                SpinTarget::Barrier(barrier) => {
                    if let Some(b) = self.barriers.get_mut(&barrier) {
                        let before = b.blocked.len() + b.spinners.len();
                        b.blocked.retain(|&w| w != pid);
                        b.spinners.retain(|&w| w != pid);
                        // A dead participant can never release the
                        // barrier; keep the arrival count consistent
                        // with the remaining waiters.
                        if b.blocked.len() + b.spinners.len() != before {
                            b.arrived = b.arrived.saturating_sub(1);
                        }
                    }
                }
            }
        }
        debug_assert!(
            self.chans
                .values()
                .all(|c| !c.blocked.contains(&pid) && !c.spinners.contains(&pid))
                && self
                    .barriers
                    .values()
                    .all(|b| !b.blocked.contains(&pid) && !b.spinners.contains(&pid)),
            "{pid} still waits somewhere its block reason and spin target do not name"
        );
    }

    /// Tokens currently banked on a channel (diagnostics).
    pub fn tokens(&self, chan: ChanId) -> u64 {
        self.chans.get(&chan).map_or(0, |c| c.tokens)
    }

    /// Number of waiters (blocked + spinning) on a channel.
    pub fn chan_waiters(&self, chan: ChanId) -> usize {
        self.chans
            .get(&chan)
            .map_or(0, |c| c.blocked.len() + c.spinners.len())
    }

    /// Completed generations of a barrier (diagnostics / tests).
    pub fn barrier_generation(&self, barrier: BarrierId) -> u64 {
        self.barriers.get(&barrier).map_or(0, |b| b.generation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_blocks_then_notify_wakes_fifo() {
        let mut s = SyncState::new();
        let ch = ChanId(1);
        assert_eq!(s.wait(ch, Pid(1)), WaitOutcome::Wait);
        assert_eq!(s.wait(ch, Pid(2)), WaitOutcome::Wait);
        assert_eq!(s.chan_waiters(ch), 2);
        assert_eq!(s.notify(ch, 1), vec![(Pid(1), Waiting::Blocked)]);
        assert_eq!(s.notify(ch, 1), vec![(Pid(2), Waiting::Blocked)]);
        assert_eq!(s.chan_waiters(ch), 0);
    }

    #[test]
    fn tokens_bank_when_no_waiters() {
        let mut s = SyncState::new();
        let ch = ChanId(2);
        assert!(s.notify(ch, 3).is_empty());
        assert_eq!(s.tokens(ch), 3);
        assert_eq!(s.wait(ch, Pid(1)), WaitOutcome::Proceed);
        assert_eq!(s.tokens(ch), 2);
    }

    #[test]
    fn spinners_satisfied_before_blocked() {
        let mut s = SyncState::new();
        let ch = ChanId(3);
        s.wait(ch, Pid(1));
        s.spin_wait(ch, Pid(2));
        let got = s.notify(ch, 2);
        assert_eq!(
            got,
            vec![(Pid(2), Waiting::Spinning), (Pid(1), Waiting::Blocked)]
        );
    }

    #[test]
    fn spin_to_block_transitions() {
        let mut s = SyncState::new();
        let ch = ChanId(4);
        assert_eq!(s.spin_wait(ch, Pid(7)), WaitOutcome::Wait);
        s.chan_spin_to_block(ch, Pid(7));
        // Now satisfied as a blocked waiter.
        assert_eq!(s.notify(ch, 1), vec![(Pid(7), Waiting::Blocked)]);
    }

    #[test]
    fn spin_wait_consumes_available_token() {
        let mut s = SyncState::new();
        let ch = ChanId(5);
        s.notify(ch, 1);
        assert_eq!(s.spin_wait(ch, Pid(1)), WaitOutcome::Proceed);
        assert_eq!(s.tokens(ch), 0);
    }

    #[test]
    fn barrier_releases_all_and_resets() {
        let mut s = SyncState::new();
        let b = BarrierId(1);
        assert_eq!(s.barrier_arrive(b, 3, Pid(1), false), None);
        assert_eq!(s.barrier_arrive(b, 3, Pid(2), true), None);
        let woken = s.barrier_arrive(b, 3, Pid(3), false).expect("released");
        assert_eq!(
            woken,
            vec![(Pid(2), Waiting::Spinning), (Pid(1), Waiting::Blocked)]
        );
        assert_eq!(s.barrier_generation(b), 1);
        // Next generation works again.
        assert_eq!(s.barrier_arrive(b, 3, Pid(2), false), None);
        assert_eq!(s.barrier_arrive(b, 3, Pid(3), false), None);
        assert_eq!(s.barrier_arrive(b, 3, Pid(1), false).unwrap().len(), 2);
        assert_eq!(s.barrier_generation(b), 2);
    }

    #[test]
    fn barrier_spin_to_block() {
        let mut s = SyncState::new();
        let b = BarrierId(2);
        s.barrier_arrive(b, 2, Pid(1), true);
        s.barrier_spin_to_block(b, Pid(1));
        let woken = s.barrier_arrive(b, 2, Pid(2), false).unwrap();
        assert_eq!(woken, vec![(Pid(1), Waiting::Blocked)]);
    }

    #[test]
    fn single_party_barrier_never_waits() {
        let mut s = SyncState::new();
        let b = BarrierId(9);
        for _ in 0..5 {
            assert_eq!(s.barrier_arrive(b, 1, Pid(0), true), Some(vec![]));
        }
        assert_eq!(s.barrier_generation(b), 5);
    }

    #[test]
    fn forget_removes_waiters() {
        let mut s = SyncState::new();
        let ch = ChanId(6);
        let b = BarrierId(6);
        s.wait(ch, Pid(5));
        s.barrier_arrive(b, 3, Pid(5), true);
        s.forget(
            Pid(5),
            Some(BlockReason::Chan(ch)),
            Some(SpinTarget::Barrier(b)),
        );
        assert_eq!(s.chan_waiters(ch), 0);
        // Barrier arrival count rolled back: two remaining parties
        // complete it.
        assert_eq!(s.barrier_arrive(b, 2, Pid(1), false), None);
        assert!(s.barrier_arrive(b, 2, Pid(2), false).is_some());
    }

    #[test]
    #[should_panic]
    fn zero_party_barrier_panics() {
        let mut s = SyncState::new();
        s.barrier_arrive(BarrierId(0), 0, Pid(0), false);
    }
}
