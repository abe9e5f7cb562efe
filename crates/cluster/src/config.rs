//! Cluster-wide simulation configuration.
//!
//! Defaults reproduce the paper's testbed (§V): 1 Gbps Ethernet behind a
//! ToR switch, SATA-SSD swap, 4 KB pages, Linux-like swap readahead.
//! Testbed values no scenario varies are constants, not fields (DESIGN
//! §8, "Configuration surface"); the ones several modules read live here.

use agile_sim_core::{Bandwidth, SimDuration};
use agile_vmd::TierStackConfig;

/// NIC bandwidth (full duplex, per direction): the testbed's 1 GbE.
pub const LINK_BW: Bandwidth = Bandwidth::gbps(1.0);

/// One-way propagation delay through the switch.
pub const PROP_DELAY: SimDuration = SimDuration::from_micros(50);

/// VMD server request-processing delay (kernel TCP receive + hash
/// lookup + page copy on the paper's 2.1 GHz Xeons).
pub const VMD_SERVER_DELAY: SimDuration = SimDuration::from_micros(40);

/// Which working-set estimator `wssctl::enable_tracking` installs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WssEstimatorKind {
    /// The paper's iostat path: swap-device I/O rates into the α/β/τ
    /// controller. The default — legacy traces replay byte-identically.
    #[default]
    SwapIo,
    /// Simulated-PML dirty-epoch sampling (Bitchebe et al.): sees
    /// working-set growth with zero swap pressure.
    Pml,
}

/// Static parameters of a simulated cluster.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Guest/host page size.
    pub page_size: u64,
    /// Pages read from swap per guest major fault (Linux `page-cluster`
    /// readahead: 1 wanted + N-1 speculative; speculative reads are wasted
    /// IOPS under random access). VMD reads are always exact (KV store).
    pub guest_readahead_pages: u32,
    /// Replication factor for VMD writes (1 = unreplicated, the paper's
    /// baseline; k > 1 places every slot on k distinct intermediate hosts
    /// so a server crash loses no swapped-out state).
    pub vmd_replication: usize,
    /// How long after a VMD server crash the cluster's failure detector
    /// fires (missed-gossip timeout): clients then mark the server
    /// suspect, fail over in-flight requests, and background
    /// re-replication starts.
    pub vmd_detect_delay: SimDuration,
    /// Which WSS estimator tracking installs (see [`WssEstimatorKind`]).
    pub wss_estimator: WssEstimatorKind,
    /// Swap tier stack every VMD server is built with. The default is the
    /// legacy DRAM + host-SSD pair with heat tracking disabled, which
    /// replays all historical traces byte-identically; richer stacks add
    /// zswap-like compressed memory or CXL-like far-memory tiers with
    /// their own capacity/latency points (see [`agile_vmd::tier`]).
    pub vmd_tiers: TierStackConfig,
    /// PML sampling epoch (fixed cadence; no fast/slow switch).
    pub pml_epoch: SimDuration,
    /// Serialize reads served by `Fixed`-backed spill tiers (zswap/CXL-like
    /// far memory) through a per-(server, tier) queue: a second concurrent
    /// read waits for the first to finish instead of overlapping for free.
    /// Off by default — the legacy unqueued model replays all historical
    /// traces byte-identically.
    pub vmd_fixed_tier_queueing: bool,
    /// Master seed for all RNG streams.
    pub seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            page_size: 4096,
            guest_readahead_pages: 8,
            vmd_replication: 1,
            vmd_detect_delay: SimDuration::from_millis(500),
            wss_estimator: WssEstimatorKind::default(),
            vmd_tiers: TierStackConfig::legacy(),
            pml_epoch: SimDuration::from_secs(2),
            vmd_fixed_tier_queueing: false,
            seed: 42,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_testbed() {
        let c = ClusterConfig::default();
        assert_eq!(c.page_size, 4096);
        assert_eq!(LINK_BW.as_bytes_per_sec(), 125e6);
        assert_eq!(PROP_DELAY, SimDuration::from_micros(50));
        assert_eq!(VMD_SERVER_DELAY, SimDuration::from_micros(40));
        assert!(c.guest_readahead_pages >= 1);
        // The default tier stack must be the legacy pair — every golden
        // trace replays byte-identically only under this invariant.
        assert!(c.vmd_tiers.is_legacy());
    }
}
