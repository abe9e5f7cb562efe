//! The traced run: per-layer host time, measured from outside the
//! library.
//!
//! Two probes, both in this file and neither inside the program:
//!
//! * a wrapper around `agile_cluster::fast::dispatch`, installed with
//!   `Simulation::set_fast_handler`, times and counts every typed event
//!   by `FastEvent` variant and by `Timer.kind`;
//! * [`run_until_traced`] calls `Simulation::step` itself and times each
//!   call. A step during which the wrapper did not run executed a boxed
//!   closure; on the other steps, step time minus handler time is the
//!   event queue's own time. So queue + every dispatch bucket + closures
//!   is the step-loop total, by construction, to the nanosecond.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use agile_cluster::{fast, World};
use agile_sim_core::{FastEvent, SimTime, Simulation};

/// Dispatch buckets: the `(calls, ns)` metric names of each.
pub const BUCKETS: [(&str, &str); 11] = [
    ("netdrv.calls", "netdrv.ns"),
    ("vmdio.swap_completion.calls", "vmdio.swap_completion.ns"),
    ("guest.step_op.calls", "guest.step_op.ns"),
    ("guest.finish_op.calls", "guest.finish_op.ns"),
    ("guest.client_send.calls", "guest.client_send.ns"),
    ("guest.os_bg.calls", "guest.os_bg.ns"),
    ("wssctl.calls", "wssctl.ns"),
    ("sched.tick.calls", "sched.tick.ns"),
    ("clonectl.tick.calls", "clonectl.tick.ns"),
    ("clonectl.hydrate.calls", "clonectl.hydrate.ns"),
    ("dispatch.other.calls", "dispatch.other.ns"),
];

/// Bucket of one fast event (index into [`BUCKETS`]).
fn bucket(ev: FastEvent) -> usize {
    match ev {
        FastEvent::FlowDue { .. } => 0,
        FastEvent::DeviceOp { .. } => 1,
        FastEvent::Timer { kind, .. } => match kind {
            fast::K_STEP_OP => 2,
            fast::K_FINISH_OP => 3,
            fast::K_CLIENT_SEND => 4,
            fast::K_OS_BG => 5,
            fast::K_WSS_SAMPLE => 6,
            fast::K_SCHED_TICK => 7,
            fast::K_CLONE_TICK => 8,
            fast::K_CLONE_HYDRATE => 9,
            // Chaos faults and repair, pool and `wlctl` ticks:
            // none of the four workloads arms them.
            _ => 10,
        },
    }
}

/// Calls and host nanoseconds per dispatch bucket.
#[derive(Clone, Copy, Debug, Default)]
pub struct Buckets {
    /// Calls per bucket.
    pub calls: [u64; BUCKETS.len()],
    /// Nanoseconds per bucket.
    pub ns: [u64; BUCKETS.len()],
}

thread_local! {
    static DISPATCH: RefCell<Buckets> = RefCell::new(Buckets::default());
    /// Running handler totals `(calls, ns)`, read around every step.
    static HANDLER: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    static SENTINEL_FIRED: Cell<bool> = const { Cell::new(false) };
}

/// The timing wrapper around the library's dispatcher.
fn traced_dispatch(sim: &mut Simulation<World>, ev: FastEvent) {
    let t0 = Instant::now();
    fast::dispatch(sim, ev);
    let ns = t0.elapsed().as_nanos() as u64;
    let b = bucket(ev);
    DISPATCH.with_borrow_mut(|d| {
        d.calls[b] += 1;
        d.ns[b] += ns;
    });
    HANDLER.set({
        let (c, n) = HANDLER.get();
        (c + 1, n + ns)
    });
}

/// Install the wrapper on a built world and zero the counters.
pub fn install(sim: &mut Simulation<World>) {
    DISPATCH.set(Buckets::default());
    HANDLER.set((0, 0));
    sim.set_fast_handler(traced_dispatch);
}

/// The dispatch buckets accumulated since [`install`].
pub fn buckets() -> Buckets {
    DISPATCH.with_borrow(|d| *d)
}

/// Step-loop accounting of one traced scene.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepAcc {
    /// Events executed (sentinels excluded).
    pub events: u64,
    /// Step-loop total: host ns inside `step` for those events.
    pub loop_ns: u64,
    /// Queue self time: step time minus handler time on typed events.
    pub queue_ns: u64,
    /// Typed events.
    pub fast_events: u64,
    /// Boxed closures (one-shot and periodic) executed.
    pub closure_calls: u64,
    /// Step time of the closure steps.
    pub closure_ns: u64,
    /// Largest pending-event count after any step.
    pub pending_peak: u64,
    /// Largest in-flight network payload count after any step.
    pub payloads_peak: u64,
}

fn sentinel(_: &mut Simulation<World>) {
    SENTINEL_FIRED.set(true);
}

/// `Simulation::run_until(deadline)`, stepped and timed one event at a
/// time.
///
/// `run_until` peeks at the queue, which is private; instead a sentinel
/// closure at `deadline` marks the boundary. Events at `deadline` that
/// were scheduled after the sentinel would still be due, so the sentinel
/// re-arms until it fires twice with no event between — at that point no
/// event at or before `deadline` is pending, exactly where `run_until`
/// stops. Sentinels only add sequence numbers after every existing one,
/// so the order of the program's own events is unchanged; they are not
/// counted as events nor charged to any layer.
pub fn run_until_traced(sim: &mut Simulation<World>, deadline: SimTime, acc: &mut StepAcc) {
    SENTINEL_FIRED.set(false);
    sim.schedule_at(deadline, sentinel);
    let mut ran_since_sentinel = false;
    loop {
        let (c0, h0) = HANDLER.get();
        let t0 = Instant::now();
        let stepped = sim.step();
        let dt = t0.elapsed().as_nanos() as u64;
        assert!(stepped, "the sentinel keeps the queue non-empty");
        if SENTINEL_FIRED.replace(false) {
            if !ran_since_sentinel {
                return;
            }
            ran_since_sentinel = false;
            sim.schedule_at(deadline, sentinel);
            continue;
        }
        ran_since_sentinel = true;
        acc.events += 1;
        acc.loop_ns += dt;
        let (c1, h1) = HANDLER.get();
        if c1 != c0 {
            acc.fast_events += 1;
            acc.queue_ns += dt - (h1 - h0);
        } else {
            acc.closure_calls += 1;
            acc.closure_ns += dt;
        }
        // Less the one pending sentinel.
        acc.pending_peak = acc.pending_peak.max(sim.events_pending() as u64 - 1);
        acc.payloads_peak = acc.payloads_peak.max(sim.state().payloads.len() as u64);
    }
}

impl StepAcc {
    /// Field-wise sum (peaks take the max).
    pub fn add(&mut self, o: &StepAcc) {
        self.events += o.events;
        self.loop_ns += o.loop_ns;
        self.queue_ns += o.queue_ns;
        self.fast_events += o.fast_events;
        self.closure_calls += o.closure_calls;
        self.closure_ns += o.closure_ns;
        self.pending_peak = self.pending_peak.max(o.pending_peak);
        self.payloads_peak = self.payloads_peak.max(o.payloads_peak);
    }
}

impl Buckets {
    /// Field-wise sum.
    pub fn add(&mut self, o: &Buckets) {
        for i in 0..BUCKETS.len() {
            self.calls[i] += o.calls[i];
            self.ns[i] += o.ns[i];
        }
    }

    /// Total handler ns over every bucket.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
}
