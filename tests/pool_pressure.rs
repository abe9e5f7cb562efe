//! Elastic-pool acceptance tests: a donor-demand ramp that halves the
//! pool's capacity must lose zero pages at k = 2 with byte-identical
//! exports across same-seed runs; the skew-aware rebalancer must strictly
//! lower the per-server utilization spread; conservation must hold across
//! any reclaim/rebalance schedule at k = 1; and a server crash racing the
//! reclaim pump must still lose nothing at k = 2.

use agile_cluster::scenario;
use agile_cluster::scenario::pressure::PressureConfig;

fn cfg(seed: u64) -> PressureConfig {
    PressureConfig {
        scale: 128,
        seed,
        trace: true,
        ..PressureConfig::default()
    }
}

/// Acceptance: the skewed demand ramp halves pool capacity; every page
/// survives (relocated or demoted, never dropped), and the report, trace,
/// and metrics exports are byte-identical across same-seed runs.
#[test]
fn reclaim_preserves_every_page_deterministically() {
    let a = scenario::run(&cfg(42));
    let b = scenario::run(&cfg(42));

    assert_eq!(a.report, b.report, "report diverged between identical runs");
    assert_eq!(
        a.trace_jsonl, b.trace_jsonl,
        "trace export diverged between identical runs"
    );
    assert_eq!(a.metrics_json, b.metrics_json);
    assert_eq!(a.events_executed, b.events_executed);
    assert_eq!(a.directory_digest, b.directory_digest);

    assert!(a.converged, "pool never went quiescent:\n{}", a.report);
    assert_eq!(a.lost_placements, 0, "slots lost placement:\n{}", a.report);
    assert_eq!(
        a.directory_replicas, a.stored_pages,
        "directory and stores disagree:\n{}",
        a.report
    );
    // Every namespace kept its full k=2 replica complement.
    let expected = a.per_namespace[0].1;
    assert!(expected > 0);
    for &(ns, total) in &a.per_namespace {
        assert_eq!(total, expected, "ns{ns} lost replicas:\n{}", a.report);
    }
    // The ramp actually exercised the machinery.
    assert!(a.counters.leases_shrunk > 0, "no lease ever shrank");
    assert!(a.counters.pages_relocated > 0, "no page was relocated");
    // The squeezed donor ended within its lease.
    assert!(
        a.final_leases[0] < a.final_leases[1],
        "skewed ramp did not skew leases:\n{}",
        a.report
    );
    // Trace carries the new pool events.
    let trace = a.trace_jsonl.as_ref().expect("tracing on");
    assert!(trace.contains("\"ev\":\"pool_lease\""));
    assert!(trace.contains("\"ev\":\"pool_reclaim\""));
}

/// Acceptance: with the rebalancer on, the final utilization spread is
/// strictly lower than with it off (same seed, same ramp).
#[test]
fn rebalancer_strictly_lowers_utilization_spread() {
    let off = scenario::run(&PressureConfig {
        rebalance: false,
        ..cfg(42)
    });
    let on = scenario::run(&cfg(42));

    assert!(off.converged && on.converged);
    assert_eq!(off.lost_placements, 0);
    assert_eq!(on.lost_placements, 0);
    assert_eq!(off.counters.rebalance_moves, 0);
    assert!(on.counters.rebalance_moves > 0, "rebalancer never acted");
    assert!(
        on.final_spread < off.final_spread,
        "rebalancer did not lower the spread: on={:?} off={:?}\n{}",
        on.final_spread,
        off.final_spread,
        on.report
    );
    assert!(on
        .trace_jsonl
        .as_ref()
        .expect("tracing on")
        .contains("\"ev\":\"pool_rebalance\""));
}

/// Metamorphic conservation at k = 1 (no crashes): whatever the
/// reclaim/rebalance schedule, every namespace keeps exactly the same
/// number of stored pages — moves relocate content, never create or drop
/// it — and replaying one schedule reproduces the directory byte-for-byte.
#[test]
fn conservation_holds_across_reclaim_schedules() {
    let schedules = [
        PressureConfig {
            replication: 1,
            rebalance: false,
            ..cfg(7)
        },
        PressureConfig {
            replication: 1,
            ..cfg(7)
        },
        PressureConfig {
            replication: 1,
            rebalance_threshold: 0.05,
            ..cfg(7)
        },
    ];
    let results: Vec<_> = schedules.iter().map(scenario::run).collect();
    for (i, r) in results.iter().enumerate() {
        assert!(r.converged, "schedule {i} never quiesced:\n{}", r.report);
        assert_eq!(r.lost_placements, 0, "schedule {i} lost slots");
        assert_eq!(
            r.directory_replicas, r.stored_pages,
            "schedule {i}: directory and stores disagree:\n{}",
            r.report
        );
        assert_eq!(
            r.per_namespace, results[0].per_namespace,
            "schedule {i} changed per-namespace totals:\n{}",
            r.report
        );
    }
    // Replica order after relocations is deterministic: replaying the
    // most aggressive schedule reproduces the directory exactly.
    let replay = scenario::run(&schedules[2]);
    assert_eq!(replay.directory_digest, results[2].directory_digest);
    assert_eq!(replay.report, results[2].report);
}

/// A donor crash racing the reclaim pump at k = 2: in-flight relocations
/// abort cleanly, the repair pump restores replication, and no namespace
/// loses a single placement.
#[test]
fn reclaim_racing_server_crash_loses_nothing() {
    let r = scenario::run(&PressureConfig {
        crash_server: Some(1),
        crash_at_secs: 8,
        ..cfg(42)
    });
    assert!(
        r.converged,
        "pool never quiesced after crash:\n{}",
        r.report
    );
    assert_eq!(
        r.lost_placements, 0,
        "crash during reclaim lost slots:\n{}",
        r.report
    );
    assert_eq!(
        r.directory_replicas, r.stored_pages,
        "directory and stores disagree after recovery:\n{}",
        r.report
    );
    let expected = r.per_namespace[0].1;
    for &(ns, total) in &r.per_namespace {
        assert_eq!(total, expected, "ns{ns} under-replicated:\n{}", r.report);
    }
    // Determinism holds under chaos too.
    let again = scenario::run(&PressureConfig {
        crash_server: Some(1),
        crash_at_secs: 8,
        ..cfg(42)
    });
    assert_eq!(r.report, again.report);
    assert_eq!(r.trace_jsonl, again.trace_jsonl);
}

/// Cost-aware reclaim: with a heat-driven stack whose spill tier is far
/// cheaper than a network round trip (CXL-like far memory at ~2 µs vs a
/// ~170 µs relocation), the reclaim pump must demote locally even though
/// remote headroom exists — and still lose nothing, deterministically.
/// The legacy stack under the identical ramp relocates instead.
#[test]
fn cheap_spill_tier_flips_reclaim_from_relocate_to_demote() {
    use agile::sim::SimDuration;
    use agile::vmd::{HeatPolicy, TierSpec, TierStackConfig};
    let legacy = scenario::run(&PressureConfig {
        rebalance: false,
        ..cfg(42)
    });
    assert!(legacy.converged);
    assert!(
        legacy.counters.pages_relocated > 0,
        "legacy ramp did not relocate:\n{}",
        legacy.report
    );

    let far = TierSpec::far_memory(1 << 22, SimDuration::from_micros(2), 16 << 30, 4096);
    let tiers = TierStackConfig::new(&[TierSpec::dram(), far], HeatPolicy::heat_driven());
    let tiered = scenario::run(&PressureConfig {
        rebalance: false,
        tiers,
        ..cfg(42)
    });
    assert!(
        tiered.converged,
        "tiered pool never quiesced:\n{}",
        tiered.report
    );
    assert_eq!(tiered.lost_placements, 0, "{}", tiered.report);
    assert_eq!(
        tiered.directory_replicas, tiered.stored_pages,
        "directory and stores disagree:\n{}",
        tiered.report
    );
    assert!(
        tiered.counters.pages_demoted > legacy.counters.pages_demoted,
        "cheap spill tier did not shift reclaim toward demotion: \
         tiered demoted={} relocated={}, legacy demoted={} relocated={}\n{}",
        tiered.counters.pages_demoted,
        tiered.counters.pages_relocated,
        legacy.counters.pages_demoted,
        legacy.counters.pages_relocated,
        tiered.report
    );
    assert!(
        tiered.counters.pages_relocated < legacy.counters.pages_relocated,
        "demote-first reclaim should need fewer relocations: {} vs {}\n{}",
        tiered.counters.pages_relocated,
        legacy.counters.pages_relocated,
        tiered.report
    );
    // Determinism holds for tiered stacks too.
    let again = scenario::run(&PressureConfig {
        rebalance: false,
        tiers,
        ..cfg(42)
    });
    assert_eq!(tiered.report, again.report);
    assert_eq!(tiered.trace_jsonl, again.trace_jsonl);
}
