//! Differential test of the queue's re-armable timers.
//!
//! A seeded random mix of one-shot events, periodic slots, timer arms
//! and disarms, pops and bulk mark skips drives two queues: the real
//! [`EventQueue`] and a plain binary heap where every arm is a fresh
//! entry tagged with the timer's generation, so a superseded one is
//! recognised when it pops (lazy cancellation). After every operation
//! the two must agree on the popped `(time, seq, payload-or-mark)`
//! stream, `now()`, `len()`, `peek_time()` and `peek_heap_time()`.

use hpl_sim::{EventQueue, Rng, SimDuration, SimTime, TimerId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What an occurrence delivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum What {
    Plain(u32),
    Tick(usize),
    Timer(usize),
}

/// Reference entry kind; `Timer` carries the generation it was armed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Plain(u32),
    Tick(usize),
    Timer(usize, u64),
}

/// Lazily cancelled heap: the queue's semantics without timers.
struct Reference {
    heap: BinaryHeap<Reverse<(SimTime, u64, Kind)>>,
    periods: Vec<SimDuration>,
    gens: Vec<u64>,
    next_seq: u64,
    now: SimTime,
}

impl Reference {
    fn new() -> Self {
        Reference {
            heap: BinaryHeap::new(),
            periods: Vec::new(),
            gens: Vec::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    fn push(&mut self, at: SimTime, kind: Kind) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((at, seq, kind)));
        seq
    }

    fn schedule_periodic(&mut self, first: SimTime, period: SimDuration) {
        self.periods.push(period);
        let slot = self.periods.len() - 1;
        self.push(first, Kind::Tick(slot));
    }

    fn add_timer(&mut self) {
        self.gens.push(0);
    }

    fn arm(&mut self, i: usize, at: SimTime) -> u64 {
        self.gens[i] += 1;
        self.push(at, Kind::Timer(i, self.gens[i]))
    }

    fn disarm(&mut self, i: usize) {
        self.gens[i] += 1;
    }

    fn is_mark(&self, kind: Kind) -> bool {
        matches!(kind, Kind::Timer(i, g) if g != self.gens[i])
    }

    fn pop(&mut self) -> Option<(SimTime, u64, Option<What>)> {
        let Reverse((t, seq, kind)) = self.heap.pop()?;
        self.now = t;
        let what = match kind {
            Kind::Plain(v) => Some(What::Plain(v)),
            Kind::Tick(s) => {
                self.push(t + self.periods[s], Kind::Tick(s));
                Some(What::Tick(s))
            }
            Kind::Timer(i, g) => (g == self.gens[i]).then_some(What::Timer(i)),
        };
        Some((t, seq, what))
    }

    fn mark_is_next(&self) -> bool {
        self.heap
            .peek()
            .is_some_and(|&Reverse((_, _, kind))| self.is_mark(kind))
    }

    fn skip_marks(&mut self, until: SimTime, max: u64) -> u64 {
        let mut n = 0;
        while n < max
            && self
                .heap
                .peek()
                .is_some_and(|&Reverse((t, _, kind))| t <= until && self.is_mark(kind))
        {
            self.pop();
            n += 1;
        }
        n
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|&Reverse((t, _, _))| t)
    }

    fn peek_heap_time(&self) -> Option<SimTime> {
        self.heap
            .iter()
            .filter(|&&Reverse((_, _, kind))| !matches!(kind, Kind::Tick(_)))
            .map(|&Reverse((t, _, _))| t)
            .min()
    }
}

fn assert_same(q: &EventQueue<What>, r: &Reference, ctx: &str) {
    assert_eq!(q.now(), r.now, "{ctx}: now");
    assert_eq!(q.len(), r.heap.len(), "{ctx}: len");
    assert_eq!(q.is_empty(), r.heap.is_empty(), "{ctx}: is_empty");
    assert_eq!(q.peek_time(), r.peek_time(), "{ctx}: peek_time");
    assert_eq!(
        q.peek_heap_time(),
        r.peek_heap_time(),
        "{ctx}: peek_heap_time"
    );
    assert_eq!(q.mark_is_next(), r.mark_is_next(), "{ctx}: mark_is_next");
}

fn pop_both(q: &mut EventQueue<What>, r: &mut Reference, ctx: &str) {
    let got = q.pop().map(|(t, id, what)| (t, id.seq(), what));
    assert_eq!(got, r.pop(), "{ctx}: popped occurrence");
}

fn add_timer(q: &mut EventQueue<What>, r: &mut Reference, timers: &mut Vec<TimerId>) {
    timers.push(q.add_timer(What::Timer(timers.len())));
    r.add_timer();
}

/// One seeded round of random operations.
fn run_round(seed: u64, ops: usize) {
    let mut rng = Rng::new(seed);
    let mut q: EventQueue<What> = EventQueue::new();
    let mut r = Reference::new();
    let mut timers: Vec<TimerId> = Vec::new();
    // A few periodic slots with small, sometimes equal, periods so ticks
    // tie with timer occurrences.
    for s in 0..rng.below(3) as usize {
        let first = SimTime::from_nanos(rng.below(20));
        let period = SimDuration::from_nanos(5 + rng.below(3) * 5);
        q.schedule_periodic(first, period, What::Tick(s));
        r.schedule_periodic(first, period);
    }
    for _ in 0..1 + rng.below(3) {
        add_timer(&mut q, &mut r, &mut timers);
    }
    let mut plain = 0u32;
    for op in 0..ops {
        let ctx = format!("seed {seed} op {op}");
        let now = q.now();
        match rng.below(100) {
            // Re-arm: the hot path. Offsets ≤ 40 ns make both in-order
            // and out-of-order arms (earlier than the live one) common,
            // and equal times frequent.
            0..=39 => {
                let i = rng.below(timers.len() as u64) as usize;
                let at = now + SimDuration::from_nanos(rng.below(41));
                let a = q.arm(timers[i], at);
                let b = r.arm(i, at);
                assert_eq!(a.seq(), b, "{ctx}: arm seq");
            }
            40..=44 => {
                let i = rng.below(timers.len() as u64) as usize;
                q.disarm(timers[i]);
                r.disarm(i);
            }
            45..=54 => {
                let at = now + SimDuration::from_nanos(rng.below(41));
                let a = q.schedule(at, What::Plain(plain));
                let b = r.push(at, Kind::Plain(plain));
                assert_eq!(a.seq(), b, "{ctx}: schedule seq");
                plain += 1;
            }
            55..=84 => pop_both(&mut q, &mut r, &ctx),
            85..=98 => {
                let until = now + SimDuration::from_nanos(rng.below(30));
                let max = match rng.below(3) {
                    0 => u64::MAX,
                    _ => rng.below(6),
                };
                let until = if rng.chance(0.2) { SimTime::MAX } else { until };
                assert_eq!(
                    q.skip_marks(until, max),
                    r.skip_marks(until, max),
                    "{ctx}: marks skipped"
                );
            }
            _ => {
                if timers.len() < 6 {
                    add_timer(&mut q, &mut r, &mut timers);
                }
            }
        }
        assert_same(&q, &r, &ctx);
    }
    // Drain what is left but the periodic slots, which never drain.
    for step in 0..2_000 {
        if r.heap
            .iter()
            .all(|&Reverse((_, _, k))| matches!(k, Kind::Tick(_)))
        {
            break;
        }
        let ctx = format!("seed {seed} drain {step}");
        pop_both(&mut q, &mut r, &ctx);
        assert_same(&q, &r, &ctx);
    }
}

#[test]
fn timers_match_a_lazily_cancelled_heap() {
    for seed in 0..300 {
        run_round(seed, 400);
    }
}

/// Equal-time ties between a mark, a live timer occurrence, a heap
/// event and a tick pop in seq order, and a bulk skip stops at the
/// first non-mark.
#[test]
fn equal_time_ties_pop_in_seq_order() {
    let t = SimTime::from_nanos(10);
    let mut q: EventQueue<What> = EventQueue::new();
    let a = q.add_timer(What::Timer(0));
    let b = q.add_timer(What::Timer(1));
    q.arm(a, t); // seq 0: becomes a mark
    q.schedule_periodic(t, SimDuration::from_nanos(10), What::Tick(0)); // seq 1
    q.arm(b, t); // seq 2: becomes a mark
    q.arm(a, t); // seq 3: live
    q.schedule(t, What::Plain(7)); // seq 4
    q.arm(b, SimTime::from_nanos(5)); // seq 5: live, earlier than its mark
    assert_eq!(q.len(), 6);
    assert_eq!(q.peek_heap_time(), Some(SimTime::from_nanos(5)));
    assert!(!q.mark_is_next());
    assert_eq!(q.pop().unwrap().2, Some(What::Timer(1)));
    assert!(q.mark_is_next());
    // Seq 0 is a mark, seq 1 the tick: the skip takes one mark only.
    assert_eq!(q.skip_marks(SimTime::MAX, u64::MAX), 1);
    assert_eq!(q.now(), t);
    assert_eq!(q.pop().unwrap().2, Some(What::Tick(0)));
    assert_eq!(q.pop().unwrap().2, None); // seq 2, b's old estimate
    assert_eq!(q.pop().unwrap().2, Some(What::Timer(0)));
    assert_eq!(q.pop().unwrap().2, Some(What::Plain(7)));
    assert_eq!(q.len(), 1); // the re-armed tick
}
