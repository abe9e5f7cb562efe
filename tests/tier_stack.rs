//! Tier-stack invariants at the scenario level.
//!
//! * **Tier-collapse metamorphic suite**: splitting a spill tier into two
//!   adjacent equal-cost halves must be behaviorally invisible — the
//!   placement policy promotes to the *cheapest strictly cheaper* tier
//!   and spills to the *cheapest strictly costlier* tier, so an
//!   equal-cost split changes bookkeeping shape but not one guest-visible
//!   nanosecond. The fault-latency histograms must be byte-identical.
//! * **Sharded equivalence**: `scenario::tiers` points run as shards of
//!   the conservative epoch harness must match their solo runs at every
//!   worker count.

use agile::cluster::scenario;
use agile::cluster::scenario::tiers::{TierArm, TiersConfig};

fn point(arm: TierArm, dram_pct: u64, split_spill: bool) -> TiersConfig {
    TiersConfig {
        arm,
        dram_pct,
        split_spill,
        scale: 64,
        seed: 42,
        ..TiersConfig::default()
    }
}

/// Splitting the SSD spill tier in half (two adjacent `HostSsd` tiers
/// with identical cost) must not move a single fault by a nanosecond:
/// identical histograms, downtime, migration time, bytes, and event
/// count — only the per-tier page breakdown is allowed to differ in
/// shape (its spill *sum* must still match).
#[test]
fn equal_cost_tier_split_is_metamorphically_invisible() {
    for arm in [TierArm::ScarceDram, TierArm::FarMemory] {
        let merged = scenario::run(&point(arm, 60, false));
        let split = scenario::run(&point(arm, 60, true));
        let label = arm.label();
        assert_eq!(
            merged.hist_digest, split.hist_digest,
            "{label}: fault-latency histogram changed under an equal-cost tier split"
        );
        assert_eq!(merged.faults, split.faults, "{label}: fault count");
        assert_eq!(merged.fault_mean_ns, split.fault_mean_ns, "{label}: mean");
        assert_eq!(merged.fault_p50_ns, split.fault_p50_ns, "{label}: p50");
        assert_eq!(merged.fault_p99_ns, split.fault_p99_ns, "{label}: p99");
        assert_eq!(merged.fault_max_ns, split.fault_max_ns, "{label}: max");
        assert_eq!(merged.downtime_ns, split.downtime_ns, "{label}: downtime");
        assert_eq!(
            merged.migration_ns, split.migration_ns,
            "{label}: migration time"
        );
        assert_eq!(
            merged.migration_bytes, split.migration_bytes,
            "{label}: migration bytes"
        );
        assert_eq!(
            merged.events_executed, split.events_executed,
            "{label}: event count"
        );
        // The split run has one more tier; the spilled total is the same.
        assert_eq!(merged.tier_pages.len() + 1, split.tier_pages.len());
        assert_eq!(merged.tier_pages[0], split.tier_pages[0], "{label}: dram");
        assert_eq!(
            merged.tier_pages[1..].iter().sum::<u64>(),
            split.tier_pages[1..].iter().sum::<u64>(),
            "{label}: spilled pages"
        );
    }
}

/// The tier sweep under the sharded epoch harness is byte-identical to
/// each point's solo run at 1, 2, and 4 workers.
#[test]
fn tiers_sharded_matches_sequential_at_any_worker_count() {
    let cfgs = vec![
        point(TierArm::ScarceDram, 60, false),
        point(TierArm::FarMemory, 240, false),
    ];
    let solo: Vec<_> = cfgs.iter().map(scenario::run).collect();
    for workers in [1usize, 2, 4] {
        let sharded = scenario::run_replicated(&cfgs, workers);
        assert_eq!(sharded.len(), solo.len());
        for (i, (sh, so)) in sharded.iter().zip(&solo).enumerate() {
            assert_eq!(sh, so, "replica {i} diverged at workers={workers}");
        }
    }
}
