//! Host-speed meter for the untraced measured phase.
//!
//! On a shared host the speed a single thread gets drifts by tens of
//! percent within seconds, mostly through other tenants' use of the
//! shared cache. The meter cuts a measured phase into segments of about
//! [`SEGMENT_S`] and, between segments, times a fixed probe that no
//! repository change can alter: push/pop pairs on a binary heap of
//! [`HEAP_LEN`] entries, an event queue that, like the simulator's
//! state, lives in the shared cache. Each segment's host seconds are
//! rescaled by the reference probe time over the probe times on either
//! side of it, giving *reference-host seconds*: what the phase would
//! have taken on the reference host at its quiet speed. Probe time is
//! excluded from both figures.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Entries in the probe's heap (2 MiB).
const HEAP_LEN: usize = 1 << 18;

/// Push/pop pairs per probe.
const PROBE_OPS: usize = 20_000;

/// Probe time on the reference host, a 2-vCPU Intel Xeon VM at
/// 2.0 GHz, at its quieter moments. Only the unit depends on it.
const REF_PROBE_S: f64 = 0.003;

/// Host seconds between probes.
const SEGMENT_S: f64 = 0.1;

struct Meter {
    heap: BinaryHeap<Reverse<u64>>,
    rng: u64,
    last_probe_s: f64,
    segment_start: Instant,
    raw_s: f64,
    ref_s: f64,
    active: bool,
}

impl Meter {
    fn new() -> Meter {
        let mut m = Meter {
            heap: BinaryHeap::with_capacity(HEAP_LEN + 1),
            rng: 0x9E37_79B9_7F4A_7C15,
            last_probe_s: 0.0,
            segment_start: Instant::now(),
            raw_s: 0.0,
            ref_s: 0.0,
            active: false,
        };
        for _ in 0..HEAP_LEN {
            let k = m.next_key();
            m.heap.push(Reverse(k));
        }
        m
    }

    /// xorshift64: the probe's event times.
    fn next_key(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng >> 16
    }

    /// Time one probe: pop the earliest event, push a later one.
    fn probe(&mut self) -> f64 {
        let t0 = Instant::now();
        for _ in 0..PROBE_OPS {
            let Reverse(now) = self.heap.pop().expect("the probe heap is never empty");
            let k = now + (self.next_key() >> 24);
            self.heap.push(Reverse(k));
        }
        t0.elapsed().as_secs_f64()
    }

    fn close_segment(&mut self) {
        let segment = self.segment_start.elapsed().as_secs_f64();
        let p = self.probe();
        self.raw_s += segment;
        self.ref_s += segment * REF_PROBE_S / ((self.last_probe_s + p) / 2.0);
        self.last_probe_s = p;
        self.segment_start = Instant::now();
    }
}

thread_local! {
    static METER: RefCell<Option<Meter>> = const { RefCell::new(None) };
}

/// Start a metered phase on this thread.
pub fn begin() {
    METER.with_borrow_mut(|m| {
        let m = m.get_or_insert_with(Meter::new);
        m.last_probe_s = m.probe();
        m.raw_s = 0.0;
        m.ref_s = 0.0;
        m.active = true;
        m.segment_start = Instant::now();
    });
}

/// Close the current segment if it has run for [`SEGMENT_S`]. Call it
/// often from the measured phase; outside a phase it does nothing.
pub fn tick() {
    METER.with_borrow_mut(|m| {
        if let Some(m) = m.as_mut().filter(|m| m.active) {
            if m.segment_start.elapsed().as_secs_f64() >= SEGMENT_S {
                m.close_segment();
            }
        }
    });
}

/// End the phase: `(host seconds, reference-host seconds)`, probes
/// excluded.
pub fn end() -> (f64, f64) {
    METER.with_borrow_mut(|m| {
        let m = m.as_mut().expect("meter::end follows meter::begin");
        assert!(m.active, "meter::end follows meter::begin");
        m.close_segment();
        m.active = false;
        (m.raw_s, m.ref_s)
    })
}
