//! Cluster-scheduler acceptance tests: the 4 hosts × 8 VMs multihost
//! scenario must rebalance below every high watermark with zero
//! ping-pong, respect the admission cap, and export byte-identical
//! reports and traces across same-seed runs; a 2-host variant pins the
//! end-to-end "one firing selects two VMs that migrate concurrently over
//! a shared NIC" behavior.

use agile_cluster::scenario;
use agile_cluster::scenario::multihost::MultihostConfig;

fn cfg(seed: u64) -> MultihostConfig {
    MultihostConfig {
        scale: 64,
        seed,
        trace: true,
        ..MultihostConfig::default()
    }
}

/// Acceptance: 4 hosts × 8 VMs rebalance below all high watermarks with
/// zero ping-pong, under the concurrency cap, byte-identically per seed.
#[test]
fn multihost_rebalances_deterministically_without_pingpong() {
    let a = scenario::run(&cfg(42));
    let b = scenario::run(&cfg(42));

    // Golden: report + TRACE export + metrics byte-identical per seed.
    assert_eq!(a.report, b.report, "report diverged between identical runs");
    assert_eq!(
        a.trace_jsonl, b.trace_jsonl,
        "trace export diverged between identical runs"
    );
    assert_eq!(a.metrics_json, b.metrics_json);
    assert_eq!(a.events_executed, b.events_executed);

    assert!(a.converged, "cluster did not rebalance:\n{}", a.report);
    for (i, (&agg, &high)) in a.final_aggregates.iter().zip(&a.high_bytes).enumerate() {
        assert!(agg <= high, "host{i} still above high: {agg} > {high}");
    }
    // Zero ping-pong: no VM migrated twice.
    assert!(
        a.max_vm_migrations <= 1,
        "ping-pong: a VM migrated {} times\n{}",
        a.max_vm_migrations,
        a.report
    );
    // The admission cap was respected and actually exercised.
    assert!(a.counters.max_in_flight_observed <= 2);
    assert!(
        a.counters.queued >= 1,
        "expected selections to queue behind the cap\n{}",
        a.report
    );
    assert_eq!(a.counters.started, a.counters.completed);
    assert_eq!(a.counters.started as usize, a.migrations.len());
    assert!(a.migrations.iter().all(|m| m.finished));

    // Both packed hosts emptied onto both spare hosts (least-loaded
    // placement spreads rather than piling onto one destination).
    let dests: std::collections::BTreeSet<usize> = a.migrations.iter().map(|m| m.dest).collect();
    assert!(dests.len() >= 2, "all migrations picked one destination");

    // Scheduler decisions made it into the trace and metrics exports.
    let trace = a.trace_jsonl.as_deref().expect("tracing enabled");
    assert!(trace.contains("\"ev\":\"sched_decision\""));
    assert!(trace.contains("\"action\":\"queue\""));
    assert!(a.metrics_json.contains("\"sched.started\""));
}

/// End-to-end watermark firing: with only one spare host, one firing
/// selects two VMs which migrate *concurrently* over the source host's
/// shared NIC; both complete (content check armed in the scheduler), and
/// the report is byte-identical across same-seed runs.
#[test]
fn one_firing_migrates_two_vms_concurrently_over_shared_nic() {
    let two_host = |seed| MultihostConfig {
        hosts: 2,
        vms: 4,
        ..cfg(seed)
    };
    let a = scenario::run(&two_host(7));
    let b = scenario::run(&two_host(7));
    assert_eq!(a.report, b.report, "report diverged between identical runs");
    assert_eq!(a.trace_jsonl, b.trace_jsonl);

    assert!(a.converged, "did not converge:\n{}", a.report);
    assert_eq!(
        a.migrations.len(),
        2,
        "one firing should select exactly two VMs\n{}",
        a.report
    );
    let (m0, m1) = (a.migrations[0], a.migrations[1]);
    assert!(m0.finished && m1.finished);
    // Same source (shared NIC), started in the same firing, and their
    // transfer intervals overlap — truly concurrent.
    assert_eq!(m0.src, m1.src);
    assert_eq!(m0.start_ns, m1.start_ns, "started in different firings");
    assert!(
        m0.start_ns < m1.end_ns && m1.start_ns < m0.end_ns,
        "migrations did not overlap: {m0:?} vs {m1:?}"
    );
    assert!(a.max_vm_migrations <= 1);
    assert!(a.counters.max_in_flight_observed == 2);
}
