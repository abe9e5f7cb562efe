//! §V-C — the Sysbench OLTP / MySQL experiment (the Sysbench rows of
//! Tables I–III).
//!
//! Four 10 GB VMs each run a MySQL server with an 8 GB dataset under a
//! 5.5 GB reservation — the buffer pool never fits, so the host swaps from
//! the start — and external Sysbench clients drive the standard OLTP
//! transaction mix. One VM is migrated to relieve the pressure; client
//! performance is measured over a 300-second window spanning the
//! migration.

use agile_migration::Technique;
use agile_sim_core::{SimTime, GIB, MIB};
use agile_workload::{Dataset, KeyDist, OltpParams, SysbenchOltp};

use crate::report;
use crate::scenario::overcommitted_testbed;
use crate::world::WorkloadKind;

/// Configuration (defaults = the paper's §V-C setup).
#[derive(Clone, Copy, Debug)]
pub struct SysbenchScenarioConfig {
    /// Migration technique under test.
    pub technique: Technique,
    /// Divide every byte quantity by this (1 = paper scale).
    pub scale: u64,
    /// VMs on the source host.
    pub n_vms: usize,
    /// Simulated duration in seconds.
    pub duration_secs: u64,
    /// Migration trigger instant.
    pub migrate_at_secs: u64,
    /// Measurement window length (paper: 300 s).
    pub window_secs: u64,
    /// Master seed.
    pub seed: u64,
}

impl Default for SysbenchScenarioConfig {
    fn default() -> Self {
        SysbenchScenarioConfig {
            technique: Technique::Agile,
            scale: 1,
            n_vms: 4,
            duration_secs: 700,
            migrate_at_secs: 120,
            window_secs: 300,
            seed: 42,
        }
    }
}

/// Result bundle.
#[derive(Clone, Debug)]
pub struct SysbenchScenarioResult {
    /// Per-second average transactions/s across all VMs.
    pub series: Vec<(u64, f64)>,
    /// Migration metrics (Tables II–III).
    pub metrics: agile_migration::MigrationMetrics,
    /// Average per-VM trans/s over the 300 s window spanning the
    /// migration (Table I).
    pub avg_during_window: f64,
}

/// Run the scenario.
pub fn run(cfg: &SysbenchScenarioConfig) -> SysbenchScenarioResult {
    let sc = cfg.scale.max(1);
    let dataset_bytes = 8 * GIB / sc;

    let (mut sim, vms) = overcommitted_testbed(
        cfg.technique,
        sc,
        cfg.seed,
        cfg.n_vms,
        cfg.migrate_at_secs,
        // InnoDB layout: hot B-tree upper levels, the row buffer pool,
        // and a circular redo log.
        |b, vm| {
            let page = b.world().cfg.page_size;
            let index_pages = ((dataset_bytes / 40) / page).max(4) as u32;
            let data_pages = (dataset_bytes / page) as u32;
            let log_pages = ((64 * MIB / sc) / page).max(8) as u32;
            let layout = b.world_mut().vms[vm].vm.layout_mut();
            let index_region = layout.alloc_region("innodb-index", index_pages);
            let rows_region = layout.alloc_region("innodb-rows", data_pages);
            let log_region = layout.alloc_region("innodb-log", log_pages);
            WorkloadKind::Oltp(SysbenchOltp::new(
                Dataset::new(rows_region, dataset_bytes / 256, 256, page),
                index_region,
                log_region,
                KeyDist::UniformPrefix,
                OltpParams::default(),
            ))
        },
        |_, _| {},
    );

    sim.run_until(SimTime::from_secs(cfg.duration_secs));
    let world = sim.state();
    let series = report::average_throughput_series(world, &vms);
    let metrics = world.migrations[0].src.metrics().clone();
    let from = cfg.migrate_at_secs.saturating_sub(10);
    let avg_during_window =
        report::average_throughput_in_window(world, &vms, from, from + cfg.window_secs);
    SysbenchScenarioResult {
        series,
        metrics,
        avg_during_window,
    }
}
