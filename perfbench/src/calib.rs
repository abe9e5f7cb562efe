//! Machine-speed calibration.
//!
//! On a shared machine the same work takes 30–40% longer in some
//! stretches than in others, and a slow stretch can outlast a whole run,
//! so no choice of repetitions or of median versus minimum steadies raw
//! host time. Calibration does: a fixed reference kernel, independent
//! of the simulator's code, is timed in short calls interleaved with the
//! measured work, and host times are rescaled to the speed at which one
//! call takes [`REF_CALL_S`]. A slow stretch slows both alike, so their
//! ratio holds; a faster simulator lowers only the numerator.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// One reference call's time on the calibrated scale, s. The value is
/// the kernel's time in a quiet stretch on a 2-vCPU 2.1 GHz x86-64 VM,
/// so calibrated seconds read close to that machine's quiet seconds.
pub const REF_CALL_S: f64 = 1.5e-3;

/// Measured work between reference calls, s: the calls cost about 3%.
const EVERY_S: f64 = 0.05;

/// Iterations of one reference call.
const ITERS: u64 = 28_000;

type FixedMap = HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;

thread_local! {
    /// The kernel's containers, kept between calls so that reference
    /// calls allocate nothing after the first and leave the measured
    /// program's heap as it was.
    static SCRATCH: RefCell<(FixedMap, BinaryHeap<Reverse<u64>>)> =
        RefCell::new((FixedMap::default(), BinaryHeap::new()));
}

/// One reference call: a fixed mix of hash-map churn, heap pushes and
/// pops, and integer arithmetic, like a discrete-event simulator's.
/// Returns its host seconds.
pub fn reference_call() -> f64 {
    SCRATCH.with_borrow_mut(|(map, heap)| {
        let t = Instant::now();
        map.clear();
        heap.clear();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut acc = 0u64;
        for i in 0..ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            map.insert(i, x);
            heap.push(Reverse(x % 1_000_000));
            if i >= 64 {
                acc = acc.wrapping_add(map.remove(&(i - 64)).unwrap_or(0));
            }
            if heap.len() > 200 {
                acc ^= heap.pop().map_or(0, |r| r.0);
            }
        }
        std::hint::black_box(acc);
        t.elapsed().as_secs_f64()
    })
}

/// Reference calls interleaved with one repetition's measured work.
#[derive(Default)]
pub struct Calib {
    secs: f64,
    calls: u64,
    since: f64,
}

impl Calib {
    /// Account `worked` seconds of measured work; make a reference call
    /// once `EVERY_S` has accumulated since the last.
    pub fn after(&mut self, worked: f64) {
        self.since += worked;
        if self.since >= EVERY_S {
            self.call();
        }
    }

    fn call(&mut self) {
        self.secs += reference_call();
        self.calls += 1;
        self.since = 0.0;
    }

    /// Reference seconds and calls so far (at least one call).
    pub fn totals(&mut self) -> (f64, u64) {
        if self.calls == 0 {
            self.call();
        }
        (self.secs, self.calls)
    }
}

/// `calls` reference calls on each of `threads` threads at once, for
/// work that runs on that many threads. Returns `(seconds, calls)`
/// summed over threads.
pub fn parallel_calls(threads: usize, calls: u64) -> (f64, u64) {
    let per_thread: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| s.spawn(move || (0..calls).map(|_| reference_call()).sum::<f64>()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference call thread panicked"))
            .collect()
    });
    (per_thread.iter().sum(), calls * per_thread.len() as u64)
}
