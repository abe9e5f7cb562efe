//! Swap backends.
//!
//! A VM's cold pages live on a swap device. The paper contrasts two kinds:
//!
//! * a **system-wide SSD partition** shared by every VM on the host (what
//!   the pre-copy/post-copy baselines use) — [`SsdSwap`];
//! * a **per-VM, portable, network-backed namespace** on the VMD (what
//!   Agile migration uses) — implemented in the `agile-vmd` crate against
//!   the same [`SwapBackend`] trait.
//!
//! Local devices know their completion time at submission (FIFO model), so
//! they answer [`SwapIssue::CompleteAt`]. Network-backed devices cannot —
//! their latency depends on shared-link contention — so they answer
//! [`SwapIssue::Pending`] and the cluster executor delivers the completion
//! when the response message arrives.

use std::cell::RefCell;
use std::rc::Rc;

use agile_sim_core::{BlockDevice, IoCounters, IoKind, SimTime};

/// How a submitted swap I/O will complete.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SwapIssue {
    /// The I/O finishes at this instant (local FIFO device).
    CompleteAt(SimTime),
    /// Completion is asynchronous; the backend will surface the request id
    /// through its own completion path (network delivery).
    Pending,
}

/// A device that stores swapped-out pages, addressed by slot.
pub trait SwapBackend {
    /// Issue a read of `slot` (a swap-in). `req` is an opaque request id
    /// echoed through asynchronous completion paths.
    fn read(&mut self, now: SimTime, slot: u32, req: u64) -> SwapIssue;

    /// Issue a write of `slot` (a swap-out). `version` is the content token
    /// being stored (the simulation tracks page identity, not bytes).
    fn write(&mut self, now: SimTime, slot: u32, version: u32, req: u64) -> SwapIssue;

    /// I/O counters as observed for *this* user of the device (per-VM view;
    /// the substrate for per-VM iostat sampling).
    fn counters(&self) -> IoCounters;

    /// Page size this backend stores.
    fn page_size(&self) -> u64;
}

/// A slice of a (possibly shared) local SSD/HDD used as swap.
///
/// Several VMs may hold handles to the same underlying [`BlockDevice`] —
/// exactly the shared 30 GB SSD partition of the paper's baseline setup —
/// so queueing interference between VMs, and between a VM and the Migration
/// Manager swapping pages in for transfer, arises naturally.
#[derive(Clone, Debug)]
pub struct SsdSwap {
    dev: Rc<RefCell<BlockDevice>>,
    page_size: u64,
    counters: IoCounters,
    /// Swap-out writes accumulated but not yet charged to the device
    /// (Linux writes anonymous pages back asynchronously in clusters).
    pending_writes: u64,
}

/// Swap-out writes are charged to the device in clusters of this many
/// pages (the kernel's swap writeback batching).
const WRITE_CLUSTER_PAGES: u64 = 32;

impl SsdSwap {
    /// Create a swap area on `dev` with the given page size.
    pub fn new(dev: Rc<RefCell<BlockDevice>>, page_size: u64) -> Self {
        SsdSwap {
            dev,
            page_size,
            counters: IoCounters::default(),
            pending_writes: 0,
        }
    }

    /// Handle to the underlying device (e.g. for whole-device stats).
    pub fn device(&self) -> &Rc<RefCell<BlockDevice>> {
        &self.dev
    }

    /// Read `pages` *slot-consecutive* pages as one streaming run (one
    /// command overhead). Returns the completion time of the whole run.
    pub fn read_run(&mut self, now: SimTime, pages: u64) -> SimTime {
        let done = self
            .dev
            .borrow_mut()
            .submit_run(now, IoKind::Read, pages, self.page_size);
        self.counters.read_ops += pages;
        self.counters.read_bytes += pages * self.page_size;
        done
    }
}

impl SwapBackend for SsdSwap {
    fn read(&mut self, now: SimTime, _slot: u32, _req: u64) -> SwapIssue {
        let done = self
            .dev
            .borrow_mut()
            .submit(now, IoKind::Read, self.page_size);
        self.counters.read_ops += 1;
        self.counters.read_bytes += self.page_size;
        SwapIssue::CompleteAt(done)
    }

    fn write(&mut self, now: SimTime, _slot: u32, _version: u32, _req: u64) -> SwapIssue {
        // Swap-out is asynchronous in Linux: the page is queued for
        // writeback and the device is charged one clustered streaming
        // write per WRITE_CLUSTER_PAGES pages.
        self.counters.write_ops += 1;
        self.counters.write_bytes += self.page_size;
        self.pending_writes += 1;
        if self.pending_writes >= WRITE_CLUSTER_PAGES {
            let pages = std::mem::take(&mut self.pending_writes);
            let done = self
                .dev
                .borrow_mut()
                .submit_run(now, IoKind::Write, pages, self.page_size);
            return SwapIssue::CompleteAt(done);
        }
        SwapIssue::CompleteAt(now)
    }

    fn counters(&self) -> IoCounters {
        self.counters
    }

    fn page_size(&self) -> u64 {
        self.page_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agile_sim_core::BlockDeviceSpec;

    fn ssd_pair() -> (SsdSwap, SsdSwap) {
        let dev = Rc::new(RefCell::new(BlockDevice::new(BlockDeviceSpec::sata_ssd())));
        (SsdSwap::new(Rc::clone(&dev), 4096), SsdSwap::new(dev, 4096))
    }

    #[test]
    fn read_completes_at_device_time() {
        let (mut a, _) = ssd_pair();
        match a.read(SimTime::ZERO, 0, 1) {
            SwapIssue::CompleteAt(t) => assert!(t > SimTime::ZERO),
            SwapIssue::Pending => panic!("local device must be synchronous"),
        }
    }

    #[test]
    fn sharers_queue_behind_each_other() {
        let (mut a, mut b) = ssd_pair();
        let ta = match a.read(SimTime::ZERO, 0, 1) {
            SwapIssue::CompleteAt(t) => t,
            _ => unreachable!(),
        };
        let tb = match b.read(SimTime::ZERO, 1, 2) {
            SwapIssue::CompleteAt(t) => t,
            _ => unreachable!(),
        };
        assert!(tb > ta, "second VM's I/O queues behind the first's");
    }

    #[test]
    fn per_user_counters_are_separate() {
        let (mut a, mut b) = ssd_pair();
        a.read(SimTime::ZERO, 0, 1);
        a.write(SimTime::ZERO, 0, 1, 2);
        b.read(SimTime::ZERO, 1, 3);
        assert_eq!(a.counters().read_ops, 1);
        assert_eq!(a.counters().write_ops, 1);
        assert_eq!(b.counters().read_ops, 1);
        assert_eq!(b.counters().write_ops, 0);
        // The shared device saw the reads; writes are buffered for the
        // asynchronous writeback cluster.
        let dev_counters = a.device().borrow().counters();
        assert_eq!(dev_counters.read_ops, 2);
    }

    #[test]
    fn writes_cluster_on_the_device() {
        let (mut a, _) = ssd_pair();
        for slot in 0..WRITE_CLUSTER_PAGES {
            a.write(SimTime::ZERO, slot as u32, 1, slot);
        }
        let dev = a.device().borrow().counters();
        assert_eq!(dev.write_ops, 1, "one clustered run for the batch");
        assert_eq!(dev.write_bytes, WRITE_CLUSTER_PAGES * 4096);
        // The per-VM iostat view still counts every logical write.
        assert_eq!(a.counters().write_ops, WRITE_CLUSTER_PAGES);
        // A clustered streaming write is far cheaper than per-page ops.
        let run_nanos = dev.busy_nanos;
        let per_op = BlockDevice::new(BlockDeviceSpec::sata_ssd())
            .spec()
            .service_time(IoKind::Write, 4096)
            .as_nanos()
            * WRITE_CLUSTER_PAGES;
        assert!(run_nanos * 4 < per_op, "{run_nanos} !<< {per_op}");
    }
}
