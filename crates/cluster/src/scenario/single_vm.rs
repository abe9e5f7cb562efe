//! §V-B — the single-VM memory-pressure sweep (Figures 7–8).
//!
//! Host memory is pinned at 6 GB while the VM's memory grows from 2 GB to
//! 12 GB: past the host size, the excess is swapped out. The *idle* VM has
//! fully-populated but untouched memory (plus OS background); the *busy*
//! VM runs a Redis server whose dataset nearly fills the VM, queried by an
//! update-heavy YCSB client. Migrating the VM measures how each technique
//! copes with swapped-out state: pre/post-copy must drag every cold page
//! back through the swap device (thrashing against the guest in the busy
//! case), while Agile ships 16-byte offsets and stays flat.

use agile_migration::Technique;
use agile_sim_core::{SimTime, Simulation, GIB, MIB};
use agile_vm::VmConfig;
use agile_workload::YcsbParams;

use crate::build::{start_all_workloads, ClusterBuilder, SwapKind};
use crate::config::ClusterConfig;
use crate::scenario::{self, paper_source_config, start_fitted_migration, RedisLayout, Scenario};
use crate::world::{WorkloadKind, World};

/// One sweep point.
#[derive(Clone, Copy, Debug)]
pub struct SingleVmConfig {
    /// Migration technique under test.
    pub technique: Technique,
    /// VM memory size in bytes (the sweep axis; paper: 2–12 GB).
    pub vm_mem: u64,
    /// Host memory (paper: 6 GB, constant).
    pub host_mem: u64,
    /// Busy (Redis + YCSB) or idle (populated memory, OS background only).
    pub busy: bool,
    /// Divide every byte quantity by this (1 = paper scale).
    pub scale: u64,
    /// Warm-up before the migration starts.
    pub warmup_secs: u64,
    /// Hard deadline for the run.
    pub deadline_secs: u64,
    /// Master seed.
    pub seed: u64,
    /// Enable the event tracer (off by default: untraced runs keep the
    /// zero-allocation hot path and byte-identical goldens).
    pub trace: bool,
}

impl Default for SingleVmConfig {
    fn default() -> Self {
        SingleVmConfig {
            technique: Technique::Agile,
            vm_mem: 8 * GIB,
            host_mem: 6 * GIB,
            busy: false,
            scale: 1,
            warmup_secs: 30,
            deadline_secs: 4000,
            seed: 42,
            trace: false,
        }
    }
}

/// One sweep point's outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct SingleVmResult {
    /// Total migration time in seconds (Fig. 7).
    pub migration_secs: f64,
    /// Bytes on the migration channel (Fig. 8).
    pub migration_bytes: u64,
    /// Downtime in seconds.
    pub downtime_secs: f64,
    /// Full metrics.
    pub metrics: agile_migration::MigrationMetrics,
    /// Per-migration phase decomposition (always built; the substrate of
    /// the `TRACE_<scenario>.json` export).
    pub timeline: agile_trace::PhaseTimeline,
    /// JSONL event-trace export (`Some` only when `cfg.trace` was set).
    pub trace_jsonl: Option<String>,
}

/// Run one sweep point.
pub fn run(cfg: &SingleVmConfig) -> SingleVmResult {
    scenario::run(cfg)
}

impl Scenario for SingleVmConfig {
    type Meta = ();
    type Result = SingleVmResult;

    /// Build the world and schedule the migration after the warm-up.
    fn setup(&self) -> (Simulation<World>, ()) {
        let sc = self.scale.max(1);
        let host_mem = self.host_mem / sc;
        let vm_mem = self.vm_mem / sc;
        let host_os = 300 * MIB / sc;
        let guest_os = 300 * MIB / sc;
        // The VM's reservation is whatever the host can give it (the paper
        // relies on host-level swapping once the VM outgrows the host).
        let reservation = (host_mem - host_os).min(vm_mem);

        let cluster_cfg = ClusterConfig {
            seed: self.seed,
            ..ClusterConfig::default()
        };
        let page = cluster_cfg.page_size;
        let mut b = ClusterBuilder::new(cluster_cfg);
        let src_host = b.add_host("source", host_mem, host_os, true);
        let dst_host = b.add_host("dest", host_mem, host_os, true);
        let client_host = b.add_host("client", 8 * GIB / sc, host_os, false);
        let agile = self.technique == Technique::Agile;
        if agile {
            let im = b.add_host("intermediate", 64 * GIB / sc, host_os, true);
            b.add_vmd_server(im, 48 * GIB / sc, 0);
            b.ensure_vmd_client(dst_host);
        }
        let swap_kind = if agile {
            SwapKind::PerVmVmd
        } else {
            SwapKind::HostSsd
        };

        let vm = b.add_vm(
            src_host,
            VmConfig {
                mem_bytes: vm_mem,
                page_size: page,
                vcpus: 2,
                reservation_bytes: reservation,
                guest_os_bytes: guest_os,
            },
            swap_kind,
        );

        if self.busy {
            // Redis dataset leaves ~500 MB of the VM free (paper wording).
            let dataset_bytes = vm_mem.saturating_sub(500 * MIB / sc + guest_os);
            let model =
                RedisLayout::alloc(&mut b, vm, dataset_bytes).ycsb(YcsbParams::update_heavy());
            b.attach_workload(vm, client_host, WorkloadKind::Ycsb(model));
            b.enable_os_background(vm);
            b.preload_layout(vm);
        } else {
            // Idle: memory fully populated (so it all has to be transferred)
            // but only the OS touches pages.
            b.enable_os_background(vm);
            let pages = (vm_mem / page) as u32;
            b.preload_pages(vm, 0, pages);
        }

        let mut sim = b.build();
        if self.trace {
            sim.state_mut().trace = agile_trace::Tracer::with_capacity(1 << 16);
        }
        start_all_workloads(&mut sim, SimTime::from_secs(1));

        let src_cfg = paper_source_config(self.technique, sc);
        sim.schedule_at(SimTime::from_secs(self.warmup_secs), move |sim| {
            start_fitted_migration(sim, vm, dst_host, src_cfg);
        });
        (sim, ())
    }

    fn deadline(&self) -> SimTime {
        SimTime::from_secs(self.deadline_secs)
    }

    /// The migration has finished.
    fn done(sim: &Simulation<World>, _meta: &()) -> bool {
        sim.state()
            .migrations
            .first()
            .map(|m| m.finished)
            .unwrap_or(false)
    }

    fn finish(&self, sim: Simulation<World>, _meta: ()) -> SingleVmResult {
        let metrics = sim.state().migrations[0].src.metrics().clone();
        let timeline = crate::report::phase_timeline(sim.state(), 0, "single_vm", self.seed);
        let trace_jsonl = self.trace.then(|| sim.state().trace.to_jsonl());
        SingleVmResult {
            migration_secs: metrics
                .total_time()
                .map(|d| d.as_secs_f64())
                .unwrap_or(f64::NAN),
            migration_bytes: metrics.migration_bytes,
            downtime_secs: metrics
                .downtime()
                .map(|d| d.as_secs_f64())
                .unwrap_or(f64::NAN),
            metrics,
            timeline,
            trace_jsonl,
        }
    }
}
