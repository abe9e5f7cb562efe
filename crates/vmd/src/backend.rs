//! The per-VM swap device: one VMD namespace exposed through the
//! [`SwapBackend`] block-device interface.
//!
//! This is the abstraction §IV-A highlights: "Using the block device
//! interface, the Migration Manager can interact with all intermediate
//! servers without needing to know where a page will be stored." The
//! handle owns nothing but the namespace id and shared references to the
//! host's VMD client and the cluster directory; reads/writes become
//! protocol messages in the client's outbox.

use std::cell::RefCell;
use std::rc::Rc;

use agile_memory::{SwapBackend, SwapIssue};
use agile_sim_core::{IoCounters, SimDuration, SimTime};

use crate::client::{ReadIssue, VmdClient};
use crate::directory::VmdDirectory;
use crate::proto::NamespaceId;

/// Latency of serving a read from the client's local writeback buffer
/// (a memcpy, no network).
const LOCAL_HIT_LATENCY: SimDuration = SimDuration::from_micros(2);

/// One VM's portable swap device (`/dev/blkN` in the paper).
#[derive(Clone, Debug)]
pub struct VmdSwapDevice {
    client: Rc<RefCell<VmdClient>>,
    directory: Rc<RefCell<VmdDirectory>>,
    ns: NamespaceId,
    page_size: u64,
    counters: IoCounters,
    lost_reads: u64,
}

impl VmdSwapDevice {
    /// Bind namespace `ns` through `client` as a block device.
    pub fn new(
        client: Rc<RefCell<VmdClient>>,
        directory: Rc<RefCell<VmdDirectory>>,
        ns: NamespaceId,
        page_size: u64,
    ) -> Self {
        VmdSwapDevice {
            client,
            directory,
            ns,
            page_size,
            counters: IoCounters::default(),
            lost_reads: 0,
        }
    }

    /// Reads that could not be served because every replica of the slot
    /// was gone (possible only below replication factor 2). The guest is
    /// unblocked with whatever stale content the page table holds — the
    /// loss is reported here instead of wedging or killing the simulation.
    pub fn lost_reads(&self) -> u64 {
        self.lost_reads
    }

    /// The namespace this device exposes.
    pub fn namespace(&self) -> NamespaceId {
        self.ns
    }

    /// The VMD client this device routes through. Reconnecting the portable
    /// device on the destination host after migration = constructing a new
    /// `VmdSwapDevice` with the same namespace and directory but the
    /// destination host's client.
    pub fn client(&self) -> &Rc<RefCell<VmdClient>> {
        &self.client
    }

    /// Tear down the whole namespace (VM destroyed): drop buffered
    /// writebacks, cancel relocations, and free every placed slot on its
    /// servers. Returns the number of placements released. After this the
    /// namespace owns no storage anywhere — in-flight demotions or
    /// relocations that complete later must not resurrect any slot.
    pub fn purge(&mut self) -> usize {
        self.client
            .borrow_mut()
            .purge_namespace(&mut self.directory.borrow_mut(), self.ns)
    }
}

impl SwapBackend for VmdSwapDevice {
    fn read(&mut self, now: SimTime, slot: u32, req: u64) -> SwapIssue {
        self.counters.read_ops += 1;
        self.counters.read_bytes += self.page_size;
        let issue = self
            .client
            .borrow_mut()
            .read(&self.directory.borrow(), self.ns, slot, req);
        match issue {
            ReadIssue::Local { .. } => SwapIssue::CompleteAt(now + LOCAL_HIT_LATENCY),
            ReadIssue::Sent => SwapIssue::Pending,
            // Every replica gone: complete immediately so the guest is not
            // wedged, and count the loss (surfaced in chaos reports).
            ReadIssue::Failed(_) => {
                self.lost_reads += 1;
                SwapIssue::CompleteAt(now + LOCAL_HIT_LATENCY)
            }
        }
    }

    fn write(&mut self, _now: SimTime, slot: u32, version: u32, req: u64) -> SwapIssue {
        self.counters.write_ops += 1;
        self.counters.write_bytes += self.page_size;
        self.client.borrow_mut().write(
            &mut self.directory.borrow_mut(),
            self.ns,
            slot,
            version,
            req,
        );
        SwapIssue::Pending
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
    use crate::proto::{ClientId, ServerId};

    fn device() -> VmdSwapDevice {
        let client = Rc::new(RefCell::new(VmdClient::new(
            ClientId(0),
            [(ServerId(0), 1000u64)],
        )));
        let dir = Rc::new(RefCell::new(VmdDirectory::new()));
        let ns = dir.borrow_mut().create_namespace();
        VmdSwapDevice::new(client, dir, ns, 4096)
    }

    #[test]
    fn write_is_pending_and_enqueues_message() {
        let mut d = device();
        assert_eq!(d.write(SimTime::ZERO, 0, 1, 1), SwapIssue::Pending);
        assert!(d.client().borrow().has_outbox());
        assert_eq!(d.counters().write_ops, 1);
    }

    #[test]
    fn read_of_buffered_write_completes_locally() {
        let mut d = device();
        d.write(SimTime::ZERO, 0, 1, 1);
        match d.read(SimTime::ZERO, 0, 2) {
            SwapIssue::CompleteAt(t) => assert_eq!(t, SimTime::ZERO + LOCAL_HIT_LATENCY),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn read_after_ack_goes_to_network() {
        let mut d = device();
        d.write(SimTime::ZERO, 0, 7, 1);
        d.client().borrow_mut().drain_outbox().for_each(drop);
        d.client().borrow_mut().on_server_msg(
            ServerId(0),
            crate::proto::ServerMsg::WriteAck {
                req: 1,
                free_pages: 999,
            },
        );
        assert_eq!(d.read(SimTime::ZERO, 0, 2), SwapIssue::Pending);
    }

    #[test]
    fn purge_releases_every_placement() {
        let mut d = device();
        d.write(SimTime::ZERO, 0, 1, 1);
        d.write(SimTime::ZERO, 1, 1, 2);
        assert_eq!(d.purge(), 2);
        // The directory holds nothing for the namespace and the client
        // queued a Free per placement for the servers.
        assert_eq!(d.directory.borrow().placed_slots(), 0);
        assert!(d.client().borrow().has_outbox());
    }

    #[test]
    fn two_devices_same_client_different_namespaces() {
        let client = Rc::new(RefCell::new(VmdClient::new(
            ClientId(0),
            [(ServerId(0), 1000u64)],
        )));
        let dir = Rc::new(RefCell::new(VmdDirectory::new()));
        let ns1 = dir.borrow_mut().create_namespace();
        let ns2 = dir.borrow_mut().create_namespace();
        let mut d1 = VmdSwapDevice::new(Rc::clone(&client), Rc::clone(&dir), ns1, 4096);
        let mut d2 = VmdSwapDevice::new(Rc::clone(&client), Rc::clone(&dir), ns2, 4096);
        d1.write(SimTime::ZERO, 0, 1, 1);
        d2.write(SimTime::ZERO, 0, 2, 2);
        // Same slot number, different namespaces → distinct placements.
        assert_eq!(dir.borrow().placed_slots(), 2);
        // Per-device iostat views are independent.
        assert_eq!(d1.counters().write_ops, 1);
        assert_eq!(d2.counters().write_ops, 1);
    }
}
