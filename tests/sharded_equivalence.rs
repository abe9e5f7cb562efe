//! Sharded-vs-solo equivalence: driving scenarios as shards of the
//! conservative epoch harness (`agile_cluster::shard`) must produce
//! byte-identical results to running each config alone — at every
//! worker count. The `workers` knob maps shards to OS threads and
//! nothing else; these tests are the contract. (A solo run is the
//! one-shard case of the same driver; `tests/golden_digests.rs` pins its
//! output.)

use std::fmt::Debug;

use agile_chaos::{ChaosProfile, ChaosSchedule};
use agile_cluster::config::WssEstimatorKind;
use agile_cluster::scenario::chaos::ChaosScenarioConfig;
use agile_cluster::scenario::datacenter::{self, DatacenterConfig};
use agile_cluster::scenario::diurnal::DiurnalConfig;
use agile_cluster::scenario::estimators::EstimatorsConfig;
use agile_cluster::scenario::multihost::MultihostConfig;
use agile_cluster::scenario::pressure::PressureConfig;
use agile_cluster::scenario::single_vm::SingleVmConfig;
use agile_cluster::scenario::{self, Scenario};
use agile_migration::Technique;
use agile_sim_core::{SeedSequence, SimTime, GIB};

/// Run every config alone, then all of them as shards of one harness at
/// 1, 2 and 4 workers: each shard's whole result (report, trace, metrics,
/// event count) must equal its solo run. Returns the solo results.
fn assert_shards_match<S>(cfgs: &[S]) -> Vec<S::Result>
where
    S: Scenario,
    S::Result: PartialEq + Debug,
{
    let solo: Vec<_> = cfgs.iter().map(scenario::run).collect();
    for workers in [1usize, 2, 4] {
        let sharded = scenario::run_replicated(cfgs, workers);
        assert_eq!(sharded.len(), solo.len());
        for (i, (sh, so)) in sharded.iter().zip(&solo).enumerate() {
            assert_eq!(sh, so, "shard {i} diverged at workers={workers}");
        }
    }
    solo
}

/// Four multihost replicas with different seeds.
#[test]
fn multihost_sharded_matches_sequential_at_any_worker_count() {
    let cfgs: Vec<MultihostConfig> = [42u64, 7, 1234, 99]
        .into_iter()
        .map(|seed| MultihostConfig {
            scale: 64,
            seed,
            trace: true,
            ..MultihostConfig::default()
        })
        .collect();
    for (i, r) in assert_shards_match(&cfgs).iter().enumerate() {
        assert!(r.converged, "replica {i} did not converge");
    }
}

/// The elastic-pool pressure scenario (reclaim, relocation, and
/// rebalancing all live behind the boundary).
#[test]
fn pressure_sharded_matches_sequential_at_any_worker_count() {
    let cfgs: Vec<PressureConfig> = [42u64, 7, 1234]
        .into_iter()
        .map(|seed| PressureConfig {
            scale: 64,
            seed,
            trace: true,
            ..PressureConfig::default()
        })
        .collect();
    assert_shards_match(&cfgs);
}

/// The coupled datacenter scenario (racks exchange boundary messages
/// with a live coordinator) stays byte-identical across worker counts
/// and across repeated runs.
#[test]
fn datacenter_report_is_byte_identical_across_worker_counts() {
    let base = datacenter::run(&DatacenterConfig::small());
    assert!(
        base.converged,
        "datacenter did not converge:\n{}",
        base.report
    );
    let rerun = datacenter::run(&DatacenterConfig::small());
    assert_eq!(base.report, rerun.report, "rerun diverged");
    for workers in [2usize, 4, 8] {
        let r = datacenter::run(&DatacenterConfig {
            workers,
            ..DatacenterConfig::small()
        });
        assert_eq!(base.report, r.report, "workers={workers}");
        assert_eq!(base.events_executed, r.events_executed);
        assert_eq!(base.migrations, r.migrations);
    }
}

/// The diurnal scenario with the workload driver and cycle predictor
/// armed: signal ticks, trough deferrals, and staggered firings all ride
/// ordinary DES events.
#[test]
fn diurnal_sharded_matches_sequential_at_any_worker_count() {
    let cfgs: Vec<DiurnalConfig> = [42u64, 7]
        .into_iter()
        .map(|seed| DiurnalConfig {
            predict: true,
            scale: 64,
            seed,
            trace: true,
            ..DiurnalConfig::default()
        })
        .collect();
    assert_shards_match(&cfgs);
}

/// Swapping the WSS estimator is a config change, not a determinism
/// hazard: one replica per estimator arm, epoch tracking and the
/// ground-truth oracle armed. (The complementary contract, that the
/// *default* estimator leaves every other scenario untouched, is carried
/// by `tests/golden_digests.rs`.)
#[test]
fn estimator_arms_sharded_match_sequential_at_any_worker_count() {
    let cfgs: Vec<EstimatorsConfig> = [WssEstimatorKind::SwapIo, WssEstimatorKind::Pml]
        .into_iter()
        .map(|estimator| EstimatorsConfig {
            estimator,
            scale: 64,
            deadline_secs: 60,
            trace: true,
            ..EstimatorsConfig::default()
        })
        .collect();
    let solo = assert_shards_match(&cfgs);
    assert_ne!(
        solo[0].trace_jsonl, solo[1].trace_jsonl,
        "the two arms produced identical traces — the estimator knob is dead"
    );
}

/// The single-VM sweep points of the golden-digest table (three
/// techniques, idle and busy): each shard stops at its own migration's
/// end while the others run on.
#[test]
fn single_vm_sharded_matches_sequential_at_any_worker_count() {
    let cfgs: Vec<SingleVmConfig> = [Technique::PreCopy, Technique::PostCopy, Technique::Agile]
        .into_iter()
        .flat_map(|technique| {
            [false, true].map(|busy| SingleVmConfig {
                technique,
                vm_mem: 4 * GIB,
                host_mem: 6 * GIB,
                busy,
                scale: 64,
                warmup_secs: 15,
                deadline_secs: 2000,
                trace: true,
                ..SingleVmConfig::default()
            })
        })
        .collect();
    assert_shards_match(&cfgs);
}

/// The golden-digest chaos run (one generated VMD server crash during an
/// Agile migration), plus the same profile at a second seed.
#[test]
fn chaos_sharded_matches_sequential_at_any_worker_count() {
    let profile = ChaosProfile {
        window_start: SimTime::from_secs(8),
        window_end: SimTime::from_secs(13),
        n_servers: 3,
        server_crashes: 1,
        ..ChaosProfile::default()
    };
    let cfgs: Vec<ChaosScenarioConfig> = [23u64, 7]
        .into_iter()
        .map(|seed| ChaosScenarioConfig {
            scale: 64,
            replication: 2,
            vmd_servers: 3,
            schedule: ChaosSchedule::generate(&profile, &SeedSequence::new(seed)),
            warmup_secs: 10,
            deadline_secs: 600,
            seed,
            trace: true,
            ..ChaosScenarioConfig::default()
        })
        .collect();
    for (i, r) in assert_shards_match(&cfgs).iter().enumerate() {
        assert!(r.finished && r.slots_lost == 0, "replica {i}: {r:?}");
    }
}

/// A different seed must change the datacenter's event stream (the
/// determinism above is not vacuous).
#[test]
fn datacenter_seed_actually_matters() {
    let a = datacenter::run(&DatacenterConfig::small());
    let b = datacenter::run(&DatacenterConfig {
        seed: 43,
        ..DatacenterConfig::small()
    });
    assert_ne!(a.report, b.report);
}
