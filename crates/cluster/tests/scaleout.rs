//! Rapid scale-out cloning: golden determinism, sharded equivalence,
//! the streamed-vs-precopy gates at test scale, chaos survival under
//! replication, the in-place upgrade knob, and the Fixed-tier
//! read-queueing model the hydration burst leans on.

use agile_cluster::build::{ClusterBuilder, SwapKind};
use agile_cluster::scenario;
use agile_cluster::scenario::scaleout::{CloneArm, ScaleoutConfig};
use agile_cluster::ClusterConfig;
use agile_sim_core::{FixedHistogram, SimDuration, SimTime, GIB, MIB};
use agile_vm::VmConfig;
use agile_vmd::{HeatPolicy, TierBacking, TierCapacity, TierSpec, TierStackConfig};

/// The small test-scale config: 8 clones over 2 destination hosts at
/// 1/64 of paper byte sizes (runs in a couple of wall seconds).
fn small(arm: CloneArm) -> ScaleoutConfig {
    ScaleoutConfig {
        arm,
        clones: 8,
        dest_hosts: 2,
        scale: 64,
        ..ScaleoutConfig::default()
    }
}

/// Two identical runs produce byte-identical results — report string,
/// digest, event count and every metric.
#[test]
fn golden_run_twice_byte_identical() {
    let a = scenario::run(&small(CloneArm::Streamed));
    let b = scenario::run(&small(CloneArm::Streamed));
    assert_eq!(a, b);
    assert_eq!(a.spawned, 8);
    assert_eq!(a.ready, 8);
    assert_eq!(a.torn_down, 8);
}

/// The sharded epoch driver reproduces the solo results exactly at
/// every worker count, and the in-run A/B gates hold at test scale:
/// streamed cloning serves first pages sooner and moves fewer fabric
/// bytes than precopy, while both arms break CoW shares once the clones
/// start taking writes.
#[test]
fn sharded_matches_sequential_and_streaming_wins() {
    let cfgs = [small(CloneArm::Streamed), small(CloneArm::Precopy)];
    let solo: Vec<_> = cfgs.iter().map(scenario::run).collect();
    for workers in [1, 2, 4] {
        let sharded = scenario::run_replicated(&cfgs, workers);
        assert_eq!(sharded, solo, "sharded divergence at {workers} workers");
    }
    let (s, p) = (&solo[0], &solo[1]);
    assert_eq!(s.ready, 8);
    assert_eq!(p.ready, 8);
    assert!(
        s.ttfps_mean_ns < p.ttfps_mean_ns,
        "streamed must serve first pages sooner: {} vs {}",
        s.ttfps_mean_ns,
        p.ttfps_mean_ns
    );
    assert!(
        s.fabric_bytes < p.fabric_bytes,
        "streamed must move fewer fabric bytes: {} vs {}",
        s.fabric_bytes,
        p.fabric_bytes
    );
    assert!(
        s.hydrated_pages < p.hydrated_pages,
        "teardown must cancel most of the streamed hydration"
    );
    assert!(
        s.cow_breaks > 0 && p.cow_breaks > 0,
        "clones never diverged"
    );
    assert_eq!(s.lost_reads, 0);
    assert_eq!(p.lost_reads, 0);
}

/// A replica server crashes mid-hydration and rejoins empty; at k = 2
/// every shared gold-image page survives on the other replica — no read
/// ever completes with lost content and the whole fleet still serves
/// and tears down.
#[test]
fn chaos_replica_crash_mid_hydration_loses_nothing() {
    let cfg = ScaleoutConfig {
        chaos: true,
        ..small(CloneArm::Streamed)
    };
    let r = scenario::run(&cfg);
    assert_eq!(r.lost_reads, 0, "k=2 replication must mask the crash");
    assert_eq!(r.ready, 8, "every clone must still serve");
    assert_eq!(r.torn_down, 8, "every clone must still tear down");
}

/// The zero-downtime in-place upgrade knob: the first clone lands on the
/// master's own host and the master namespace is purged once the fleet
/// serves — shared pages survive through the fork refcounts, so nothing
/// is lost and every clone still becomes ready.
#[test]
fn upgrade_retires_master_namespace_in_place() {
    let cfg = ScaleoutConfig {
        upgrade: true,
        ..small(CloneArm::Streamed)
    };
    let r = scenario::run(&cfg);
    assert!(r.master_purged, "upgrade must retire the master namespace");
    assert_eq!(r.ready, 8);
    assert_eq!(r.torn_down, 8);
    assert_eq!(r.lost_reads, 0);
}

/// Issue two concurrent major faults against pages held by a
/// `Fixed`-backed far-memory tier and report the guest-visible fault
/// histogram `(count, max_ns)`.
fn two_concurrent_fixed_tier_faults(queueing: bool) -> (u64, u64) {
    const FAR_READ: SimDuration = SimDuration::from_micros(500);
    let mut cfg = ClusterConfig {
        vmd_fixed_tier_queueing: queueing,
        ..ClusterConfig::default()
    };
    let page = cfg.page_size;
    let far = TierSpec {
        capacity: TierCapacity::Pages(1 << 20),
        backing: TierBacking::Fixed {
            read: FAR_READ,
            write: SimDuration::from_micros(50),
        },
        read_cost: FAR_READ,
    };
    // A 2-page DRAM head: effectively everything lands in far memory.
    cfg.vmd_tiers = TierStackConfig::new(&[TierSpec::dram(), far], HeatPolicy::default());

    let mut b = ClusterBuilder::new(cfg);
    let host = b.add_host("host", 128 * MIB, 8 * MIB, false);
    let im = b.add_host("intermediate", GIB, 8 * MIB, false);
    b.add_vmd_server(im, 2 * page, 0);
    let vm = b.add_vm(
        host,
        VmConfig {
            mem_bytes: 64 * MIB,
            page_size: page,
            vcpus: 2,
            reservation_bytes: 16 * MIB,
            guest_os_bytes: 2 * MIB,
        },
        SwapKind::PerVmVmd,
    );
    b.preload_pages(vm, 0, (64 * MIB / page) as u32);
    let mut sim = b.build();
    sim.state_mut().fault_hist = Some(Box::new(FixedHistogram::new()));

    // The first couple of preload write-backs land in the 2-page DRAM
    // head tier; pages from the tail of the image are guaranteed to sit
    // in the Fixed-backed spill tier.
    let (a, bpfn) = {
        let mem = sim.state().vms[vm].vm.memory();
        let swapped: Vec<u32> = (0..mem.pages())
            .filter(|&p| mem.pagemap(p).is_swapped())
            .collect();
        assert!(swapped.len() > 4, "spill expected");
        (swapped[swapped.len() - 2], swapped[swapped.len() - 1])
    };
    sim.schedule_at(SimTime::from_millis(10), move |sim| {
        for pfn in [a, bpfn] {
            let w = sim.state_mut();
            let id = w.alloc_op(agile_cluster::world::OpExec {
                gen: 0,
                vm,
                touches: {
                    let mut t = agile_workload::TouchList::new();
                    t.push(pfn, false);
                    t
                },
                idx: 0,
                cpu: SimDuration::from_micros(5),
                response_bytes: 0,
                counts: false,
                respond: false,
            });
            let gen = w.ops[id].as_ref().unwrap().gen;
            agile_cluster::guest::step_op(sim, id, gen);
        }
    });
    sim.run_until(SimTime::from_secs(2));
    let hist = sim.state().fault_hist.as_ref().expect("armed");
    (hist.count(), hist.max_ns())
}

/// A far-memory tier has one transfer engine, not infinite parallelism:
/// with `vmd_fixed_tier_queueing` on, the second of two concurrent
/// faults waits for the first's device time instead of overlapping for
/// free. Off (the legacy model) both faults overlap and the worst-case
/// latency stays near a single device read.
#[test]
fn fixed_tier_queueing_serializes_concurrent_faults() {
    let (n_off, max_off) = two_concurrent_fixed_tier_faults(false);
    let (n_on, max_on) = two_concurrent_fixed_tier_faults(true);
    assert_eq!(n_off, 2);
    assert_eq!(n_on, 2);
    assert!(
        max_on >= max_off + 400_000,
        "queued second fault must pay most of the first's 500 µs device \
         time: queued max {max_on} ns vs unqueued max {max_off} ns"
    );
}
