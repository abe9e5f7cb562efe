//! The benchmark's own composition of each library scenario.
//!
//! The scenario modules keep their `setup` functions private, so each
//! scene here rebuilds its world from `agile_cluster`'s public API with
//! the same calls, in the same order, as the library module it mirrors.
//! Owning the [`Simulation`] lets the benchmark time set-up apart from
//! the event loop and step the loop itself in traced runs. The library
//! cross-check in `main.rs` proves each composition still matches the
//! shipped scenario event for event.

use std::rc::Rc;

use agile_cluster::clonectl::{self, CloneCtlConfig, HydrationMode};
use agile_cluster::scenario::scaleout::{CloneArm, ScaleoutConfig};
use agile_cluster::scenario::single_vm::SingleVmConfig;
use agile_cluster::scenario::ycsb::YcsbScenarioConfig;
use agile_cluster::scenario::{rebalance_host, set_reservation, set_ycsb_active_bytes};
use agile_cluster::{migrate, report, start_all_workloads, ClusterBuilder, ClusterConfig};
use agile_cluster::{SwapKind, WorkloadKind, World};
use agile_migration::{SourceConfig, Technique};
use agile_sim_core::{FixedHistogram, SimDuration, SimTime, Simulation, GIB, MIB};
use agile_vm::VmConfig;
use agile_workload::{Dataset, KeyDist, Signal, YcsbParams, YcsbRedis};

/// Which library scenario a scene mirrors, with its config.
#[derive(Clone, Debug)]
pub enum SceneCfg {
    /// `scenario::ycsb::run`.
    Ycsb(YcsbScenarioConfig),
    /// `scenario::single_vm::run`.
    SingleVm(SingleVmConfig),
    /// `scenario::scaleout::run`.
    Scaleout(ScaleoutConfig),
}

/// How the library's run loop advances a scene to done.
pub struct Drive {
    /// `None`: one `run_until(deadline)`. `Some(c)`: `run_until` in
    /// steps of `c`, checking `done` at every boundary.
    pub chunk: Option<SimDuration>,
    /// Hard deadline.
    pub deadline: SimTime,
    /// The library's settle predicate.
    pub done: fn(&Simulation<World>) -> bool,
}

impl Drive {
    /// Advance `sim` to done exactly as the library's run loop does, with
    /// `run_until` doing the stepping (plain or traced).
    pub fn run(
        &self,
        sim: &mut Simulation<World>,
        mut run_until: impl FnMut(&mut Simulation<World>, SimTime),
    ) {
        let Some(chunk) = self.chunk else {
            run_until(sim, self.deadline);
            return;
        };
        loop {
            let next = sim.now() + chunk;
            run_until(sim, next.min(self.deadline));
            if (self.done)(sim) || sim.now() >= self.deadline {
                break;
            }
        }
    }
}

/// A built scene: the world at its first event, and how to drive it.
pub struct Built {
    /// The simulation, not yet stepped.
    pub sim: Simulation<World>,
    /// The run loop.
    pub drive: Drive,
}

/// Build a scene's world. Everything from here to the first event is
/// the benchmark's `setup_s`.
pub fn build(cfg: &SceneCfg) -> Built {
    let mut built = match cfg {
        SceneCfg::Ycsb(c) => build_ycsb(c),
        SceneCfg::SingleVm(c) => build_single_vm(c),
        SceneCfg::Scaleout(c) => build_scaleout(c),
    };
    // Guest major-fault latency for `fault_p99_ms`. Observing only: the
    // histogram changes no event.
    built.sim.state_mut().fault_hist = Some(Box::new(FixedHistogram::new()));
    built
}

/// Mirrors `scenario::ycsb::run` up to its `run_until`.
fn build_ycsb(cfg: &YcsbScenarioConfig) -> Built {
    let sc = cfg.scale.max(1);
    let host_mem = 23 * GIB / sc;
    let host_os = 200 * MIB / sc;
    let vm_mem = 10 * GIB / sc;
    let reservation = 11 * GIB / 2 / sc;
    let dataset_bytes = 9 * GIB / sc;
    let active_small = 200 * MIB / sc;
    let active_large = 6 * GIB / sc;
    let guest_os = 300 * MIB / sc;
    let slack = 256 * MIB / sc;

    let cluster_cfg = ClusterConfig {
        seed: cfg.seed,
        ..ClusterConfig::default()
    };
    let page = cluster_cfg.page_size;
    let mut b = ClusterBuilder::new(cluster_cfg);
    let src_host = b.add_host("source", host_mem, host_os, true);
    let dst_host = b.add_host("dest", host_mem, host_os, true);
    let client_host = b.add_host("client", 16 * GIB / sc, host_os, false);
    let agile = cfg.technique == Technique::Agile;
    if agile {
        let im = b.add_host("intermediate", 128 * GIB / sc, host_os, true);
        b.add_vmd_server(im, 100 * GIB / sc, 0);
        b.ensure_vmd_client(dst_host);
    }
    let swap_kind = if agile {
        SwapKind::PerVmVmd
    } else {
        SwapKind::HostSsd
    };
    let mut vms = Vec::new();
    for _ in 0..cfg.n_vms {
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
        let (index_region, data_region) = redis_layout(&mut b, vm, dataset_bytes, page);
        let dataset = Dataset::new(data_region, dataset_bytes / 1024, 1024, page);
        let mut model = YcsbRedis::new(
            dataset,
            index_region,
            KeyDist::UniformPrefix,
            YcsbParams {
                read_ratio: cfg.read_ratio,
                ..YcsbParams::default()
            },
        );
        model.set_active_bytes(active_small);
        b.attach_workload(vm, client_host, WorkloadKind::Ycsb(model));
        b.enable_os_background(vm);
        vms.push(vm);
    }
    b.preload_layouts_interleaved(&vms, 256);

    let mut sim = b.build();
    start_all_workloads(&mut sim, SimTime::from_secs(1));
    for (i, &vm) in vms.iter().enumerate() {
        let at = SimTime::from_secs(cfg.ramp_start_secs + i as u64 * cfg.ramp_step_secs);
        sim.schedule_at(at, move |sim| {
            set_ycsb_active_bytes(sim, vm, active_large);
            let host = sim.state().vms[vm].host;
            rebalance_host(sim, host, slack);
        });
    }
    let technique = cfg.technique;
    let migrate_vm = vms[0];
    sim.schedule_at(SimTime::from_secs(cfg.migrate_at_secs), move |sim| {
        let dest_resv = {
            let w = sim.state();
            w.hosts[dst_host]
                .mem
                .available_for_vms()
                .min(w.vms[migrate_vm].vm.config().mem_bytes)
        };
        let src_cfg = SourceConfig {
            precopy_threshold_pages: (9_000 / sc as u32).max(64),
            ..SourceConfig::new(technique)
        };
        let mig = migrate::start_migration(sim, migrate_vm, dst_host, src_cfg, dest_resv);
        // The library's completion watcher: re-balance the source once
        // the migrated VM's memory is freed there.
        sim.schedule_every(
            sim.now() + SimDuration::from_secs(1),
            SimDuration::from_secs(1),
            move |sim| {
                if sim.state().migrations[mig].finished {
                    rebalance_host(sim, src_host, slack);
                    false
                } else {
                    true
                }
            },
        );
    });
    Built {
        sim,
        drive: Drive {
            chunk: None,
            deadline: SimTime::from_secs(cfg.duration_secs),
            done: |_| false,
        },
    }
}

/// Carve the Redis layout (index ≈ 2% of the dataset, then values).
fn redis_layout(
    b: &mut ClusterBuilder,
    vm: usize,
    dataset_bytes: u64,
    page: u64,
) -> (agile_vm::PageRange, agile_vm::PageRange) {
    let index_pages = ((dataset_bytes / 50) / page).max(4) as u32;
    let data_pages = (dataset_bytes / page) as u32;
    let layout = b.world_mut().vms[vm].vm.layout_mut();
    let idx = layout.alloc_region("redis-index", index_pages);
    let dat = layout.alloc_region("redis-data", data_pages);
    (idx, dat)
}

/// Mirrors `scenario::single_vm::run` for an idle VM (no `--busy`).
fn build_single_vm(cfg: &SingleVmConfig) -> Built {
    assert!(!cfg.busy, "the sweep workload migrates idle VMs");
    let sc = cfg.scale.max(1);
    let host_mem = cfg.host_mem / sc;
    let vm_mem = cfg.vm_mem / sc;
    let host_os = 300 * MIB / sc;
    let guest_os = 300 * MIB / sc;
    let reservation = (host_mem - host_os).min(vm_mem);

    let cluster_cfg = ClusterConfig {
        seed: cfg.seed,
        ..ClusterConfig::default()
    };
    let page = cluster_cfg.page_size;
    let mut b = ClusterBuilder::new(cluster_cfg);
    let src_host = b.add_host("source", host_mem, host_os, true);
    let dst_host = b.add_host("dest", host_mem, host_os, true);
    let _client_host = b.add_host("client", 8 * GIB / sc, host_os, false);
    let agile = cfg.technique == Technique::Agile;
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
    b.enable_os_background(vm);
    b.preload_pages(vm, 0, (vm_mem / page) as u32);

    let mut sim = b.build();
    start_all_workloads(&mut sim, SimTime::from_secs(1));
    let technique = cfg.technique;
    sim.schedule_at(SimTime::from_secs(cfg.warmup_secs), move |sim| {
        let dest_resv = {
            let w = sim.state();
            w.hosts[dst_host]
                .mem
                .available_for_vms()
                .min(w.vms[vm].vm.config().mem_bytes)
        };
        let src_cfg = SourceConfig {
            precopy_threshold_pages: (9_000 / sc as u32).max(64),
            ..SourceConfig::new(technique)
        };
        migrate::start_migration(sim, vm, dst_host, src_cfg, dest_resv);
    });
    Built {
        sim,
        drive: Drive {
            chunk: Some(SimDuration::from_secs(5)),
            deadline: SimTime::from_secs(cfg.deadline_secs),
            done: |sim| {
                sim.state()
                    .migrations
                    .first()
                    .map(|m| m.finished)
                    .unwrap_or(false)
            },
        },
    }
}

/// Flash-crowd onset of the scale-out scene (`clone_ready_s` counts
/// from here).
pub const CROWD_AT: SimTime = SimTime::from_secs(5);

/// Mirrors `scenario::scaleout::run` (no upgrade, no chaos).
fn build_scaleout(cfg: &ScaleoutConfig) -> Built {
    assert!(
        !cfg.upgrade && !cfg.chaos,
        "the burst workload runs the plain arms"
    );
    let sc = cfg.scale.max(1);
    let master_mem = 512 * MIB / sc;
    let guest_os = 64 * MIB / sc;
    let dataset_bytes = 256 * MIB / sc;
    let active_bytes = 16 * MIB / sc;
    let clone_res = master_mem / 2;
    let host_os = 64 * MIB / sc;

    let mut cluster_cfg = ClusterConfig {
        seed: cfg.seed,
        vmd_replication: 1,
        ..ClusterConfig::default()
    };
    let page = cluster_cfg.page_size;
    cluster_cfg.vmd_detect_delay = SimDuration::from_millis(500);

    let mut b = ClusterBuilder::new(cluster_cfg);
    let gold = b.add_host("gold", 2 * GIB / sc, host_os, false);
    let dests: Vec<usize> = (0..cfg.dest_hosts.max(1))
        .map(|i| b.add_host(&format!("dest{i}"), 2 * GIB / sc, host_os, false))
        .collect();
    let im0 = b.add_host("im0", 2 * GIB / sc, host_os, false);
    let im1 = b.add_host("im1", 2 * GIB / sc, host_os, false);
    let bystander_host = b.add_host("bystander", 512 * MIB / sc, host_os, false);
    let client_host = b.add_host("client", GIB / sc, host_os, false);
    b.add_vmd_server(im0, GIB / sc, 0);
    b.add_vmd_server(im1, GIB / sc, 0);
    for &d in &dests {
        b.ensure_vmd_client(d);
    }

    let master = b.add_vm(
        gold,
        VmConfig {
            mem_bytes: master_mem,
            page_size: page,
            vcpus: 2,
            reservation_bytes: master_mem,
            guest_os_bytes: guest_os,
        },
        SwapKind::PerVmVmd,
    );
    let (index_region, data_region) = redis_layout(&mut b, master, dataset_bytes, page);
    b.preload_layout(master);

    let by_mem = 256 * MIB / sc;
    let by_dataset = 128 * MIB / sc;
    let bystander = b.add_vm(
        bystander_host,
        VmConfig {
            mem_bytes: by_mem,
            page_size: page,
            vcpus: 2,
            reservation_bytes: guest_os + by_dataset / 4,
            guest_os_bytes: guest_os,
        },
        SwapKind::PerVmVmd,
    );
    let (by_index, by_data) = redis_layout(&mut b, bystander, by_dataset, page);
    let by_model = YcsbRedis::new(
        Dataset::new(by_data, by_dataset / 1024, 1024, page),
        by_index,
        KeyDist::UniformPrefix,
        YcsbParams {
            client_threads: 2,
            ..YcsbParams::default()
        },
    );
    b.attach_workload(bystander, client_host, WorkloadKind::Ycsb(by_model));
    b.preload_layout(bystander);
    b.world_mut().vms[bystander]
        .client
        .as_mut()
        .expect("bystander client attached")
        .think_ns = 1_000_000;

    let mut sim = b.build();
    start_all_workloads(&mut sim, SimTime::from_secs(1));

    let preloaded = sim.state().vms[master].vm.memory().pages() as u64;
    let (hydration, hydrate_period) = match cfg.arm {
        CloneArm::Streamed => (
            HydrationMode::Streamed {
                pages_per_tick: (preloaded / 1300).max(1) as u32,
            },
            SimDuration::from_millis(100),
        ),
        CloneArm::Precopy => (
            HydrationMode::Precopy {
                pages_per_tick: 256,
            },
            SimDuration::from_millis(10),
        ),
    };
    let max_clones = cfg.clones;
    sim.schedule_at(SimTime::from_secs(2), move |sim| {
        let make_workload = Rc::new(move |_clone_idx: usize| {
            let mut model = YcsbRedis::new(
                Dataset::new(data_region, dataset_bytes / 1024, 1024, page),
                index_region,
                KeyDist::UniformPrefix,
                YcsbParams {
                    client_threads: 2,
                    ..YcsbParams::update_heavy()
                },
            );
            model.set_active_bytes(active_bytes);
            WorkloadKind::Ycsb(model)
        });
        clonectl::arm_cloning(
            sim,
            CloneCtlConfig {
                master,
                period: SimDuration::from_millis(10),
                hydrate_period,
                signal: Signal::flash_crowd(CROWD_AT, 8.0, SimDuration::from_secs(20)),
                high_water: 1.0,
                low_water: 0.5,
                max_clones,
                clones_per_tick: 4,
                dest_hosts: dests,
                client_host,
                clone_reservation_bytes: clone_res,
                hydration,
                in_place_upgrade: false,
                client_think_ns: 1_000_000,
                make_workload,
            },
        );
    });
    // The reservation squeeze that forces copy-on-write divergence.
    let squeeze = (active_bytes / 2).max(page);
    sim.schedule_at(SimTime::from_secs(30), move |sim| {
        for vm in live_clone_vms(sim) {
            set_reservation(sim, vm, squeeze);
        }
    });
    sim.schedule_at(SimTime::from_secs(32), move |sim| {
        for vm in live_clone_vms(sim) {
            set_reservation(sim, vm, clone_res);
        }
    });
    Built {
        sim,
        drive: Drive {
            chunk: Some(SimDuration::from_secs(5)),
            deadline: SimTime::from_secs(cfg.deadline_secs),
            done: |sim| {
                sim.state()
                    .clone
                    .as_ref()
                    .map(|ex| ex.counters.torn_down >= ex.cfg.max_clones as u64)
                    .unwrap_or(false)
            },
        },
    }
}

fn live_clone_vms(sim: &Simulation<World>) -> Vec<usize> {
    sim.state()
        .clone
        .as_ref()
        .map(|ex| {
            ex.clones
                .iter()
                .filter(|c| !c.torn_down && !c.draining)
                .map(|c| c.vm)
                .collect()
        })
        .unwrap_or_default()
}

/// One migration's simulated outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct MigOutcome {
    /// Finished before the deadline.
    pub finished: bool,
    /// Total migration time, s (NaN when unfinished).
    pub total_s: f64,
    /// Downtime, s (NaN when unfinished).
    pub downtime_s: f64,
    /// Bytes on the migration channels.
    pub bytes: u64,
}

/// One clone arm's simulated outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct CloneOutcome {
    /// Clones the controller was allowed to spawn.
    pub wanted: u64,
    /// Clones spawned.
    pub spawned: u64,
    /// Clones that served and were torn down.
    pub served_and_torn_down: u64,
    /// Clones that served at least one request.
    pub ready: u64,
    /// Clones torn down.
    pub torn_down: u64,
    /// From the flash crowd to the last clone serving, s (NaN when a
    /// clone never served).
    pub fleet_ready_s: f64,
    /// Time from first spawn to every clone serving, ns (the library's
    /// `all_ready_ns`; `u64::MAX` when one never served).
    pub all_ready_ns: u64,
    /// Mean spawn-to-first-serve, ns (the library's `ttfps_mean_ns`).
    pub ttfps_mean_ns: u64,
    /// Clone-attributable fabric bytes (the library's `fabric_bytes`).
    pub fabric_bytes: u64,
    /// Copy-on-write share breaks.
    pub cow_breaks: u64,
    /// Pages streamed by the hydration pumps.
    pub hydrated_pages: u64,
    /// Bystander completed requests.
    pub bystander_ops: u64,
}

/// Everything the benchmark reads from one finished scene. Equal
/// configs must give equal outcomes: every field is simulated, none is
/// host-measured.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// DES events executed (benchmark sentinels excluded).
    pub events: u64,
    /// `report::metrics_registry` rendered as JSON.
    pub registry_json: String,
    /// Every migration's source metrics, published as `mig<i>.*`.
    pub mig_json: String,
    /// `report::phase_timeline` of the first migration, for scenes that
    /// mirror `single_vm` (the library returns the same export).
    pub timeline_json: Option<String>,
    /// Every migration of the scene.
    pub migrations: Vec<MigOutcome>,
    /// Mean per-VM YCSB throughput over the migration window, when the
    /// scene defines one.
    pub app_ops_per_s: Option<f64>,
    /// The clone arm, when the scene clones.
    pub clone: Option<CloneOutcome>,
    /// Guest major-fault latency buckets (`FixedHistogram` layout).
    pub fault_buckets: Vec<u64>,
    /// Swap reads served by VMD devices.
    pub vmd_reads: u64,
    /// Reads that completed with lost content.
    pub lost_reads: u64,
    /// Slots whose every replica was lost.
    pub slots_lost: u64,
    /// VMD servers whose tier ledger is inconsistent.
    pub bad_ledgers: u64,
    /// VMD servers checked.
    pub servers: u64,
    /// Per-layer counters read from public state.
    pub counts: Counts,
}

/// Layer counters read from the world after the run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counts {
    /// Network poll events executed.
    pub net_polls: u64,
    /// Polls that drained nothing.
    pub net_idle_polls: u64,
    /// Completed guest requests, all VMs.
    pub guest_ops: u64,
    /// Host-SSD read commands.
    pub blockdev_reads: u64,
    /// Host-SSD write commands.
    pub blockdev_writes: u64,
    /// Guest major faults.
    pub major_faults: u64,
    /// Evictions that wrote to swap.
    pub swap_out_writes: u64,
    /// Evictions dropped clean.
    pub clean_drops: u64,
    /// Pages stored on VMD servers at the end.
    pub vmd_server_pages: u64,
    /// VMD replies that found no pending request.
    pub vmd_stale_msgs: u64,
    /// VMD slots clients observed lost.
    pub vmd_lost_slots: u64,
    /// Pages migrated in full.
    pub pages_full: u64,
    /// Pages migrated as VMD offsets.
    pub pages_offset: u64,
    /// Pages re-sent after being dirtied.
    pub retransmits: u64,
    /// Destination faults served from the swap device.
    pub dest_faults_from_swap: u64,
    /// Destination faults served from the source.
    pub dest_faults_from_source: u64,
}

impl Counts {
    /// Field-wise sum.
    pub fn add(&mut self, o: &Counts) {
        self.net_polls += o.net_polls;
        self.net_idle_polls += o.net_idle_polls;
        self.guest_ops += o.guest_ops;
        self.blockdev_reads += o.blockdev_reads;
        self.blockdev_writes += o.blockdev_writes;
        self.major_faults += o.major_faults;
        self.swap_out_writes += o.swap_out_writes;
        self.clean_drops += o.clean_drops;
        self.vmd_server_pages += o.vmd_server_pages;
        self.vmd_stale_msgs += o.vmd_stale_msgs;
        self.vmd_lost_slots += o.vmd_lost_slots;
        self.pages_full += o.pages_full;
        self.pages_offset += o.pages_offset;
        self.retransmits += o.retransmits;
        self.dest_faults_from_swap += o.dest_faults_from_swap;
        self.dest_faults_from_source += o.dest_faults_from_source;
    }
}

/// Read a finished scene's outcome. `events` is the event count the
/// run loop observed (sentinels excluded).
pub fn outcome(cfg: &SceneCfg, sim: &Simulation<World>, events: u64) -> Outcome {
    let w = sim.state();
    let migrations = w
        .migrations
        .iter()
        .map(|m| {
            let met = m.src.metrics();
            MigOutcome {
                finished: m.finished,
                total_s: met
                    .total_time()
                    .map(|d| d.as_secs_f64())
                    .unwrap_or(f64::NAN),
                downtime_s: met.downtime().map(|d| d.as_secs_f64()).unwrap_or(f64::NAN),
                bytes: met.migration_bytes,
            }
        })
        .collect();
    let app_ops_per_s = match cfg {
        SceneCfg::Ycsb(c) => {
            let vms: Vec<usize> = (0..c.n_vms).collect();
            let from = c.migrate_at_secs;
            let to = (from + c.measure_window_secs).min(c.duration_secs);
            Some(report::average_throughput_in_window(
                w,
                &vms,
                from,
                to.max(from + 1),
            ))
        }
        _ => None,
    };
    let clone = w.clone.as_ref().map(|ex| {
        let mut first_spawn = u64::MAX;
        let mut last_ready = 0u64;
        let mut ttfps = Vec::new();
        for c in &ex.clones {
            first_spawn = first_spawn.min(c.spawned_at.as_nanos());
            if let Some(r) = c.ready_at {
                ttfps.push(r.as_nanos() - c.spawned_at.as_nanos());
                last_ready = last_ready.max(r.as_nanos());
            }
        }
        let ready = ttfps.len() as u64;
        let all_ready = ready == ex.clones.len() as u64 && ready > 0;
        CloneOutcome {
            wanted: ex.cfg.max_clones as u64,
            spawned: ex.counters.spawned,
            served_and_torn_down: ex
                .clones
                .iter()
                .filter(|c| c.ready_at.is_some() && c.torn_down)
                .count() as u64,
            ready,
            torn_down: ex.counters.torn_down,
            fleet_ready_s: if all_ready {
                (last_ready - CROWD_AT.as_nanos()) as f64 / 1e9
            } else {
                f64::NAN
            },
            all_ready_ns: if all_ready {
                last_ready - first_spawn
            } else {
                u64::MAX
            },
            ttfps_mean_ns: ttfps
                .iter()
                .sum::<u64>()
                .checked_div(ready)
                .unwrap_or(u64::MAX),
            fabric_bytes: ex
                .clones
                .iter()
                .map(|c| {
                    let io = w.vms[c.vm].swap.counters();
                    io.read_bytes + io.write_bytes
                })
                .sum(),
            cow_breaks: ex.counters.cow_breaks,
            hydrated_pages: ex.counters.hydrated_pages,
            // The bystander is VM slot 1, right after the gold master.
            bystander_ops: w.vms[1].meter.total(),
        }
    });

    let mut c = Counts {
        net_polls: w.netdrv.polls,
        net_idle_polls: w.netdrv.idle_polls,
        ..Counts::default()
    };
    let mut vmd_reads = 0;
    for slot in &w.vms {
        c.guest_ops += slot.meter.total();
        let mc = slot.vm.memory().counters();
        c.major_faults += mc.major_faults;
        c.swap_out_writes += mc.swap_out_writes;
        c.clean_drops += mc.clean_drops;
        if slot.swap.is_vmd() {
            vmd_reads += slot.swap.counters().read_ops;
        }
    }
    for h in &w.hosts {
        if let Some(ssd) = &h.ssd {
            let io = ssd.borrow().counters();
            c.blockdev_reads += io.read_ops;
            c.blockdev_writes += io.write_ops;
        }
    }
    let mut bad_ledgers = 0;
    for s in &w.vmd.servers {
        c.vmd_server_pages += s.server.stored_pages();
        bad_ledgers += u64::from(!s.server.ledger_consistent());
    }
    for cl in &w.vmd.clients {
        let cl = cl.client.borrow();
        c.vmd_stale_msgs += cl.stale_msgs();
        c.vmd_lost_slots += cl.lost_slot_count() as u64;
    }
    for m in &w.migrations {
        let met = m.src.metrics();
        c.pages_full += met.pages_sent_full;
        c.pages_offset += met.pages_sent_as_offsets;
        c.retransmits += met.pages_retransmitted;
        c.dest_faults_from_swap += m.dst.pages_faulted_from_swap;
        c.dest_faults_from_source += m.dst.pages_faulted_from_source;
    }

    let mut mig_reg = agile_trace::MetricsRegistry::new();
    for (i, m) in w.migrations.iter().enumerate() {
        m.src
            .metrics()
            .publish_to(&mut mig_reg, &format!("mig{i}."));
    }
    let timeline_json = match cfg {
        SceneCfg::SingleVm(c) if !w.migrations.is_empty() => {
            Some(report::phase_timeline(w, 0, "single_vm", c.seed).to_json())
        }
        _ => None,
    };
    Outcome {
        events,
        registry_json: report::metrics_registry(w).to_json(),
        mig_json: mig_reg.to_json(),
        timeline_json,
        migrations,
        app_ops_per_s,
        clone,
        fault_buckets: w
            .fault_hist
            .as_deref()
            .map(|h| h.buckets().to_vec())
            .unwrap_or_default(),
        vmd_reads,
        lost_reads: w.chaos.lost_reads,
        slots_lost: w.chaos.total_slots_lost(),
        bad_ledgers,
        servers: w.vmd.servers.len() as u64,
        counts: c,
    }
}
