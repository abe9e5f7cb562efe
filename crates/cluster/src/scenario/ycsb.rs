//! §V-A — the YCSB/Redis memory-pressure experiment (Figures 4–6 and the
//! YCSB rows of Tables I–III).
//!
//! Four 10 GB VMs on a 23 GB source host each serve a 9 GB Redis dataset
//! to an external YCSB client. Clients start by querying a 200 MB slice
//! (everything fits); from `ramp_start` on, one client per `ramp_step`
//! widens its window to 6 GB, pushing the aggregate working set past the
//! host's memory — all four VMs thrash on the shared swap device. At
//! `migrate_at` one VM is migrated to the empty destination host; the
//! scripted reservation adjustment (standing in for the paper's manual
//! adjustment) then gives the three remaining VMs enough memory and the
//! average throughput recovers — how fast depends on the technique.

use agile_migration::Technique;
use agile_sim_core::{SimTime, GIB, MIB};
use agile_workload::YcsbParams;

use crate::report;
use crate::scenario::{overcommitted_testbed, rebalance_host, set_ycsb_active_bytes, RedisLayout};
use crate::world::WorkloadKind;

/// Configuration (defaults = the paper's §V-A setup).
#[derive(Clone, Copy, Debug)]
pub struct YcsbScenarioConfig {
    /// Migration technique under test.
    pub technique: Technique,
    /// Divide every byte quantity by this (1 = paper scale).
    pub scale: u64,
    /// Number of VMs on the source host.
    pub n_vms: usize,
    /// Simulated duration in seconds.
    pub duration_secs: u64,
    /// First ramp instant (paper: 150 s).
    pub ramp_start_secs: u64,
    /// Interval between ramps (paper: 50 s).
    pub ramp_step_secs: u64,
    /// Migration trigger instant (paper: 400 s).
    pub migrate_at_secs: u64,
    /// YCSB read ratio. The paper's §V-A narrative says "read only", but
    /// its own Table III (pre-copy retransmits 4.7 GB; Agile pushes 2.7 GB
    /// of dirtied pages) implies a substantial update share in the query
    /// phase; 0.65 reproduces those volumes.
    pub read_ratio: f64,
    /// Width of the Table-I measurement window starting at `migrate_at`.
    pub measure_window_secs: u64,
    /// Master seed.
    pub seed: u64,
}

impl Default for YcsbScenarioConfig {
    fn default() -> Self {
        YcsbScenarioConfig {
            technique: Technique::Agile,
            scale: 1,
            n_vms: 4,
            duration_secs: 1000,
            ramp_start_secs: 150,
            ramp_step_secs: 50,
            migrate_at_secs: 400,
            read_ratio: 0.65,
            measure_window_secs: 300,
            seed: 42,
        }
    }
}

/// Result bundle.
#[derive(Clone, Debug)]
pub struct YcsbScenarioResult {
    /// Per-second average YCSB throughput across all VMs (Fig. 4/5/6).
    pub series: Vec<(u64, f64)>,
    /// Migration metrics (Tables II–III).
    pub metrics: agile_migration::MigrationMetrics,
    /// Average per-VM ops/s over the migration window (Table I).
    pub avg_during_migration: f64,
    /// Peak (pre-pressure) average throughput, the recovery reference.
    pub peak_reference: f64,
    /// Seconds at which the average recovered to 90% of peak, if it did.
    pub recovery_at_secs: Option<u64>,
    /// Total simulator events executed — the determinism fingerprint.
    pub events_executed: u64,
}

/// Run the scenario.
pub fn run(cfg: &YcsbScenarioConfig) -> YcsbScenarioResult {
    let sc = cfg.scale.max(1);
    let dataset_bytes = 9 * GIB / sc;
    let active_small = 200 * MIB / sc;
    let active_large = 6 * GIB / sc;
    let slack = 256 * MIB / sc;
    let params = YcsbParams {
        read_ratio: cfg.read_ratio,
        ..YcsbParams::default()
    };

    let (mut sim, vms) = overcommitted_testbed(
        cfg.technique,
        sc,
        cfg.seed,
        cfg.n_vms,
        cfg.migrate_at_secs,
        |b, vm| {
            let mut model = RedisLayout::alloc(b, vm, dataset_bytes).ycsb(params);
            model.set_active_bytes(active_small);
            WorkloadKind::Ycsb(model)
        },
        // The ramp: one VM per step widens its query window, and the
        // host's reservations are re-balanced to track working sets.
        |sim, vms| {
            for (i, &vm) in vms.iter().enumerate() {
                let at = SimTime::from_secs(cfg.ramp_start_secs + i as u64 * cfg.ramp_step_secs);
                sim.schedule_at(at, move |sim| {
                    set_ycsb_active_bytes(sim, vm, active_large);
                    let host = sim.state().vms[vm].host;
                    rebalance_host(sim, host, slack);
                });
            }
        },
    );

    sim.run_until(SimTime::from_secs(cfg.duration_secs));
    let events_executed = sim.events_executed();
    let world = sim.state();

    let series = report::average_throughput_series(world, &vms);
    let metrics = world.migrations[0].src.metrics().clone();
    let mig_start = cfg.migrate_at_secs;
    let mig_end = (mig_start + cfg.measure_window_secs).min(cfg.duration_secs);
    let avg_during_migration =
        report::average_throughput_in_window(world, &vms, mig_start, mig_end.max(mig_start + 1));
    // Reference: best smoothed average before the pressure ramp.
    let peak_reference = series
        .iter()
        .filter(|(t, _)| *t >= 20 && *t < cfg.ramp_start_secs)
        .map(|(_, r)| *r)
        .fold(0.0f64, f64::max);
    let recovery_at_secs = report::recovery_time(
        world,
        &vms,
        SimTime::from_secs(cfg.migrate_at_secs),
        peak_reference,
        0.9,
        10,
    );
    YcsbScenarioResult {
        series,
        metrics,
        avg_during_migration,
        peak_reference,
        recovery_at_secs,
        events_executed,
    }
}
