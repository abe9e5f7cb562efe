//! Block-device model.
//!
//! Swap partitions (the paper uses a 30 GB partition of a 128 GB Crucial
//! SSD) are modelled as a single-queue device: each I/O costs a fixed
//! per-operation overhead plus `bytes / bandwidth` of transfer time, and
//! operations are serviced FIFO. The device keeps a `busy_until` horizon;
//! an operation submitted while the device is busy queues behind the
//! horizon. This reproduces the effect the paper's evaluation leans on:
//! when the migration manager swaps in cold pages while the guest is also
//! paging, both sets of I/Os share one queue and every operation's latency
//! inflates — the "thrashing" of §V-B.
//!
//! The model deliberately ignores internal parallelism (NCQ) and
//! read/write asymmetry beyond distinct overheads; those second-order
//! effects do not change who wins in any of the paper's experiments.

use crate::time::{SimDuration, SimTime};
use crate::units::Bandwidth;

/// Kind of block I/O.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IoKind {
    /// Read from the device (swap-in).
    Read,
    /// Write to the device (swap-out).
    Write,
}

/// Static performance parameters of a block device.
#[derive(Clone, Copy, Debug)]
pub struct BlockDeviceSpec {
    /// Streaming read bandwidth.
    pub read_bw: Bandwidth,
    /// Streaming write bandwidth.
    pub write_bw: Bandwidth,
    /// Fixed per-read overhead (command + flash access / seek).
    pub read_overhead: SimDuration,
    /// Fixed per-write overhead.
    pub write_overhead: SimDuration,
}

impl BlockDeviceSpec {
    /// A SATA SSD of the 2014 Crucial class used in the paper's testbed:
    /// ~250 MB/s streaming, ~70 µs read / ~90 µs write overhead, which
    /// yields ≈12 k random-4K read IOPS.
    pub fn sata_ssd() -> Self {
        BlockDeviceSpec {
            read_bw: Bandwidth::mb_per_sec(250.0),
            write_bw: Bandwidth::mb_per_sec(220.0),
            read_overhead: SimDuration::from_micros(70),
            write_overhead: SimDuration::from_micros(90),
        }
    }

    /// Service time for one operation, excluding queueing.
    pub fn service_time(&self, kind: IoKind, bytes: u64) -> SimDuration {
        match kind {
            IoKind::Read => self.read_overhead + self.read_bw.transfer_time(bytes),
            IoKind::Write => self.write_overhead + self.write_bw.transfer_time(bytes),
        }
    }
}

/// Cumulative I/O counters, the substrate for the iostat-style sampling the
/// WSS tracker performs.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct IoCounters {
    /// Completed read operations.
    pub read_ops: u64,
    /// Completed write operations.
    pub write_ops: u64,
    /// Bytes read.
    pub read_bytes: u64,
    /// Bytes written.
    pub write_bytes: u64,
    /// Total time the device was busy, in nanoseconds.
    pub busy_nanos: u64,
}

impl IoCounters {
    /// Counter difference `self - earlier` (both must come from the same
    /// device, `earlier` sampled first).
    pub fn delta(&self, earlier: &IoCounters) -> IoCounters {
        IoCounters {
            read_ops: self.read_ops - earlier.read_ops,
            write_ops: self.write_ops - earlier.write_ops,
            read_bytes: self.read_bytes - earlier.read_bytes,
            write_bytes: self.write_bytes - earlier.write_bytes,
            busy_nanos: self.busy_nanos - earlier.busy_nanos,
        }
    }

    /// Total bytes moved in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }
}

/// A FIFO block device with a busy-horizon queue model.
#[derive(Clone, Debug)]
pub struct BlockDevice {
    spec: BlockDeviceSpec,
    busy_until: SimTime,
    counters: IoCounters,
    /// Injected per-command latency (fault injection: a degraded device).
    extra_latency: SimDuration,
}

impl BlockDevice {
    /// Create an idle device with the given spec.
    pub fn new(spec: BlockDeviceSpec) -> Self {
        BlockDevice {
            spec,
            busy_until: SimTime::ZERO,
            counters: IoCounters::default(),
            extra_latency: SimDuration::ZERO,
        }
    }

    /// Inject (or clear, with `SimDuration::ZERO`) an additional
    /// per-command service latency — a swap-device degradation fault.
    /// Applies to commands submitted after the call; queued work is
    /// unaffected.
    pub fn set_extra_latency(&mut self, extra: SimDuration) {
        self.extra_latency = extra;
    }

    /// The currently injected per-command latency.
    pub fn extra_latency(&self) -> SimDuration {
        self.extra_latency
    }

    /// The device's static spec.
    pub fn spec(&self) -> &BlockDeviceSpec {
        &self.spec
    }

    /// Submit one I/O at `now`; returns its completion time. The operation
    /// queues behind everything previously submitted.
    pub fn submit(&mut self, now: SimTime, kind: IoKind, bytes: u64) -> SimTime {
        let start = self.busy_until.max(now);
        let service = self.spec.service_time(kind, bytes) + self.extra_latency;
        let done = start + service;
        self.busy_until = done;
        match kind {
            IoKind::Read => {
                self.counters.read_ops += 1;
                self.counters.read_bytes += bytes;
            }
            IoKind::Write => {
                self.counters.write_ops += 1;
                self.counters.write_bytes += bytes;
            }
        }
        self.counters.busy_nanos += service.as_nanos();
        done
    }

    /// Submit a batch of same-kind operations (e.g. a cluster of swap-ins);
    /// returns the completion time of the last one. Cheaper than calling
    /// [`BlockDevice::submit`] in a loop when only the batch completion
    /// matters.
    pub fn submit_batch(
        &mut self,
        now: SimTime,
        kind: IoKind,
        ops: u64,
        bytes_per_op: u64,
    ) -> SimTime {
        if ops == 0 {
            return now;
        }
        let start = self.busy_until.max(now);
        let service =
            (self.spec.service_time(kind, bytes_per_op) + self.extra_latency).saturating_mul(ops);
        let done = start + service;
        self.busy_until = done;
        match kind {
            IoKind::Read => {
                self.counters.read_ops += ops;
                self.counters.read_bytes += ops * bytes_per_op;
            }
            IoKind::Write => {
                self.counters.write_ops += ops;
                self.counters.write_bytes += ops * bytes_per_op;
            }
        }
        self.counters.busy_nanos += service.as_nanos();
        done
    }

    /// Submit one *contiguous* multi-page operation (a sequential run on
    /// the platter/flash): a single command overhead plus `pages ×
    /// bytes_per_page` of streaming transfer. This is what makes reading a
    /// sequentially-laid-out swap area an order of magnitude faster than
    /// random single-page reads.
    pub fn submit_run(
        &mut self,
        now: SimTime,
        kind: IoKind,
        pages: u64,
        bytes_per_page: u64,
    ) -> SimTime {
        if pages == 0 {
            return now;
        }
        let start = self.busy_until.max(now);
        let bytes = pages * bytes_per_page;
        let service = self.extra_latency
            + match kind {
                IoKind::Read => self.spec.read_overhead + self.spec.read_bw.transfer_time(bytes),
                IoKind::Write => self.spec.write_overhead + self.spec.write_bw.transfer_time(bytes),
            };
        let done = start + service;
        self.busy_until = done;
        match kind {
            IoKind::Read => {
                self.counters.read_ops += 1;
                self.counters.read_bytes += bytes;
            }
            IoKind::Write => {
                self.counters.write_ops += 1;
                self.counters.write_bytes += bytes;
            }
        }
        self.counters.busy_nanos += service.as_nanos();
        done
    }

    /// How long an operation submitted at `now` would wait before service
    /// begins (current queue depth expressed as time).
    pub fn queue_delay(&self, now: SimTime) -> SimDuration {
        self.busy_until.saturating_since(now)
    }

    /// True if the device has no queued work at `now`.
    pub fn is_idle(&self, now: SimTime) -> bool {
        self.busy_until <= now
    }

    /// Cumulative counters (snapshot; pair with [`IoCounters::delta`] for
    /// windowed rates).
    pub fn counters(&self) -> IoCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> BlockDevice {
        BlockDevice::new(BlockDeviceSpec::sata_ssd())
    }

    #[test]
    fn extra_latency_delays_commands_until_cleared() {
        let mut d = dev();
        let base = d.submit(SimTime::ZERO, IoKind::Read, 4096);
        d.set_extra_latency(SimDuration::from_millis(5));
        let slow = d.submit(base, IoKind::Read, 4096);
        let delta = slow.saturating_since(base).as_secs_f64();
        assert!(
            (delta - (base.as_secs_f64() + 5e-3)).abs() < 1e-6,
            "delta={delta}"
        );
        d.set_extra_latency(SimDuration::ZERO);
        let fast = d.submit(slow, IoKind::Read, 4096);
        assert!((fast.saturating_since(slow).as_secs_f64() - base.as_secs_f64()).abs() < 1e-9);
    }

    #[test]
    fn single_read_latency() {
        let mut d = dev();
        let done = d.submit(SimTime::ZERO, IoKind::Read, 4096);
        // 70 µs overhead + 4096 B / 250 MB/s ≈ 16.4 µs.
        let expect = 70e-6 + 4096.0 / 250e6;
        assert!((done.as_secs_f64() - expect).abs() < 1e-9);
    }

    #[test]
    fn fifo_queueing_inflates_latency() {
        let mut d = dev();
        let t0 = SimTime::ZERO;
        let first = d.submit(t0, IoKind::Read, 4096);
        let second = d.submit(t0, IoKind::Read, 4096);
        assert!(second > first);
        let service = first.as_secs_f64();
        assert!((second.as_secs_f64() - 2.0 * service).abs() < 1e-9);
        assert_eq!(d.queue_delay(t0), second.saturating_since(t0));
    }

    #[test]
    fn device_drains_when_idle() {
        let mut d = dev();
        let done = d.submit(SimTime::ZERO, IoKind::Write, 4096);
        assert!(!d.is_idle(SimTime::ZERO));
        assert!(d.is_idle(done));
        // A later op starts fresh, not behind the old horizon.
        let t = done + SimDuration::from_secs(1);
        let done2 = d.submit(t, IoKind::Write, 4096);
        assert_eq!(
            done2.saturating_since(t),
            d.spec().service_time(IoKind::Write, 4096)
        );
    }

    #[test]
    fn batch_equals_loop() {
        let mut a = dev();
        let mut b = dev();
        let mut last = SimTime::ZERO;
        for _ in 0..10 {
            last = a.submit(SimTime::ZERO, IoKind::Read, 4096);
        }
        let batch = b.submit_batch(SimTime::ZERO, IoKind::Read, 10, 4096);
        assert_eq!(last, batch);
        assert_eq!(a.counters(), b.counters());
    }

    #[test]
    fn empty_batch_is_noop() {
        let mut d = dev();
        let t = SimTime::from_secs(5);
        assert_eq!(d.submit_batch(t, IoKind::Read, 0, 4096), t);
        assert_eq!(d.counters(), IoCounters::default());
    }

    #[test]
    fn counters_accumulate_and_delta() {
        let mut d = dev();
        d.submit(SimTime::ZERO, IoKind::Read, 4096);
        let snap = d.counters();
        d.submit(SimTime::ZERO, IoKind::Write, 8192);
        d.submit(SimTime::ZERO, IoKind::Read, 4096);
        let delta = d.counters().delta(&snap);
        assert_eq!(delta.read_ops, 1);
        assert_eq!(delta.write_ops, 1);
        assert_eq!(delta.read_bytes, 4096);
        assert_eq!(delta.write_bytes, 8192);
        assert_eq!(delta.total_bytes(), 12288);
    }

    #[test]
    fn sequential_run_much_faster_than_random_reads() {
        let mut random = dev();
        let mut seq = dev();
        let n = 256;
        let t_random = random.submit_batch(SimTime::ZERO, IoKind::Read, n, 4096);
        let t_seq = seq.submit_run(SimTime::ZERO, IoKind::Read, n, 4096);
        assert!(
            t_seq.as_secs_f64() * 4.0 < t_random.as_secs_f64(),
            "seq {t_seq} not ≪ random {t_random}"
        );
        // Same bytes either way.
        assert_eq!(random.counters().read_bytes, seq.counters().read_bytes);
    }
}
