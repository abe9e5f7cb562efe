//! Ready-made reproductions of the paper's experiments.
//!
//! | module | paper content |
//! |--------|---------------|
//! | [`ycsb`] | §V-A Figures 4–6 (YCSB timeline under pre/post/Agile) and the YCSB rows of Tables I–III |
//! | [`sysbench`] | §V-C Sysbench/MySQL rows of Tables I–III |
//! | [`single_vm`] | §V-B Figures 7–8 (single-VM sweep: migration time & data vs VM size, idle & busy) |
//! | [`wss`] | §V-D Figures 9–10 (transparent WSS tracking) |
//!
//! Every scenario takes a config with the paper's numbers as defaults plus
//! a `scale` divisor: `scale = 1` is paper scale (10 GB VMs); integration
//! tests use `scale = 32`+ so they run in milliseconds. Scaling divides
//! every byte quantity, which preserves the *ratios* that drive the
//! qualitative results.
//!
//! The scenarios that run until a settle predicate holds (`single_vm`,
//! `chaos`, `multihost`, `pressure`, `diurnal`, `estimators`, `tiers`,
//! `scaleout`) implement [`Scenario`] and are driven by the one generic
//! driver: [`run`] for a single config, [`run_replicated`] for several
//! independent configs as shards of one parallel epoch harness.
//!
//! The testbed pieces they share live here, once each: [`RedisLayout`],
//! `paper_source_config`, `start_fitted_migration` and the §V-A/§V-C
//! `overcommitted_testbed` of `ycsb` and `sysbench`.

pub mod chaos;
pub mod datacenter;
pub mod diurnal;
pub mod estimators;
pub mod multihost;
pub mod pressure;
pub mod scaleout;
pub mod single_vm;
pub mod sysbench;
pub mod tiers;
pub mod wss;
pub mod ycsb;

use agile_migration::{SourceConfig, Technique};
use agile_sim_core::{SimDuration, SimTime, Simulation, GIB, MIB};
use agile_vm::{PageRange, VmConfig};
use agile_workload::{Dataset, KeyDist, Signal, YcsbParams, YcsbRedis};

use crate::build::{start_all_workloads, ClusterBuilder, SwapKind};
use crate::config::ClusterConfig;
use crate::guest::{charge_evictions, EvictTarget};
use crate::migrate;
use crate::shard::{self, NullCoordinator};
use crate::world::{WorkloadKind, World};

/// A scenario the generic driver can run: build a world, advance it in
/// epochs until [`Scenario::done`] holds at an epoch barrier or the
/// deadline is reached, then fold the final world into a result. The
/// driver ([`crate::shard::run`]) builds, steps and finishes each world on
/// one worker thread, so only the config (`Sync`) and the result (`Send`)
/// cross threads.
pub trait Scenario: Sync {
    /// What `setup` hands on to `done` and `finish`.
    type Meta;
    /// The deterministic outcome of one run.
    type Result: Send;
    /// Build and arm the world.
    fn setup(&self) -> (Simulation<World>, Self::Meta);
    /// The hard end of the run.
    fn deadline(&self) -> SimTime;
    /// Whether the run may stop before its deadline, evaluated at every
    /// epoch barrier.
    fn done(sim: &Simulation<World>, meta: &Self::Meta) -> bool;
    /// Disarm the controllers and assemble the result.
    fn finish(&self, sim: Simulation<World>, meta: Self::Meta) -> Self::Result;
}

/// Run one scenario. This is the one-shard case of [`run_replicated`]:
/// the epoch targets are the 5-second slice boundaries, no coordinator
/// message is ever scheduled, and the shard id stays 0.
pub fn run<S: Scenario>(cfg: &S) -> S::Result {
    let mut results = run_replicated(std::slice::from_ref(cfg), 1);
    results.pop().expect("one shard, one result")
}

/// Run several independent scenarios as shards of one parallel epoch
/// harness (lookahead = the 5-second slice). Every result is
/// byte-identical to [`run`] of its config at any `workers` count.
pub fn run_replicated<S: Scenario>(cfgs: &[S], workers: usize) -> Vec<S::Result> {
    shard::run(
        cfgs,
        workers,
        SimDuration::from_secs(5),
        &mut NullCoordinator,
    )
    .0
}

/// Schedule piecewise-constant [`Signal`]s as discrete DES events.
///
/// Collects every change time of every binding's signal in
/// `[now, horizon)` and schedules exactly **one** closure per distinct
/// time; each firing applies every binding's value at that instant
/// through `apply`. This reproduces the event structure of the scenarios'
/// historical hand-written ramps exactly — same number of events, same
/// times, same values (see [`Signal::Ramp`] for the integer-exact step
/// arithmetic) — while the shapes themselves live in the signal DSL.
/// All-constant bindings schedule nothing.
///
/// Unlike the incremental scripted ramps this applies *absolute* values,
/// so a binding that skips a step (e.g. a VM mid-migration, filtered by
/// `apply`) lands on the correct value at the next change time instead
/// of staying permanently behind.
pub fn schedule_step_signals<K, F>(
    sim: &mut Simulation<World>,
    bindings: Vec<(K, Signal)>,
    horizon: SimTime,
    apply: F,
) where
    K: Copy + 'static,
    F: Fn(&mut Simulation<World>, K, f64) + Clone + 'static,
{
    let from = sim.now().as_nanos();
    let mut times: Vec<u64> = Vec::new();
    for (_, s) in &bindings {
        times.extend(s.change_times_ns(from, horizon.as_nanos()));
    }
    times.sort_unstable();
    times.dedup();
    let bindings = std::rc::Rc::new(bindings);
    for t in times {
        let bindings = std::rc::Rc::clone(&bindings);
        let apply = apply.clone();
        sim.schedule_at(SimTime::from_nanos(t), move |sim| {
            let now = sim.now();
            for &(k, ref s) in bindings.iter() {
                apply(sim, k, s.value_at(now));
            }
        });
    }
}

/// Change a VM's cgroup reservation at runtime (evictions are charged to
/// its swap device) and update the host ledger.
pub fn set_reservation(sim: &mut Simulation<World>, vm_idx: usize, bytes: u64) {
    let mut buf = std::mem::take(&mut sim.state_mut().evict_buf);
    buf.clear();
    {
        let w = sim.state_mut();
        let slot = &mut w.vms[vm_idx];
        slot.vm.memory_mut().set_limit_bytes(bytes, &mut buf);
        let host = slot.host;
        w.hosts[host].mem.set_reservation(vm_idx as u64, bytes);
    }
    charge_evictions(sim, EvictTarget::Vm(vm_idx), &buf);
    buf.clear();
    sim.state_mut().evict_buf = buf;
}

/// What a VM currently *needs* resident: its active working set plus
/// guest-OS overhead plus slack. Used by the scripted reservation
/// adjustments that stand in for the paper's "we manually adjust the VMs'
/// memory reservation to reflect its working set size".
pub fn desired_reservation(world: &World, vm_idx: usize, slack: u64) -> u64 {
    let slot = &world.vms[vm_idx];
    let os = slot.vm.config().guest_os_bytes;
    let page = world.cfg.page_size;
    let ws = match &slot.workload {
        Some(WorkloadKind::Ycsb(y)) => {
            let index_bytes = slot
                .vm
                .layout()
                .region(REDIS_INDEX)
                .map(|r| r.len as u64 * page)
                .unwrap_or(0);
            y.active_bytes() + index_bytes
        }
        Some(WorkloadKind::Oltp(_)) => {
            // The OLTP buffer pool wants the whole dataset + index + log.
            slot.vm
                .layout()
                .regions()
                .map(|(_, r)| r.len as u64 * page)
                .sum()
        }
        None => 0,
    };
    (ws + os + slack).min(slot.vm.config().mem_bytes)
}

/// Water-fill the host's VM-available memory across the VMs running on it
/// according to their desired reservations: everyone gets
/// `min(desired, fair share)`, with leftover from modest VMs flowing to
/// hungry ones.
pub fn rebalance_host(sim: &mut Simulation<World>, host: usize, slack: u64) {
    let mut wants: Vec<(usize, u64)> = {
        let w = sim.state();
        (0..w.vms.len())
            .filter(|&v| {
                w.vms[v].host == host
                    && w.vms[v].vm.state().can_execute()
                    && w.vms[v].migration.is_none()
            })
            .map(|v| (v, desired_reservation(w, v, slack)))
            .collect()
    };
    if wants.is_empty() {
        return;
    }
    let avail = sim.state().hosts[host].mem.available_for_vms();
    // Water-filling: satisfy the smallest demands first.
    wants.sort_by_key(|&(_, d)| d);
    let mut remaining = avail;
    let mut grants: Vec<(usize, u64)> = Vec::with_capacity(wants.len());
    for (i, &(vm, desired)) in wants.iter().enumerate() {
        let left = wants.len() - i;
        let fair = remaining / left as u64;
        let grant = desired.min(fair);
        remaining -= grant;
        grants.push((vm, grant));
    }
    for (vm, grant) in grants {
        set_reservation(sim, vm, grant);
    }
}

/// Set a YCSB workload's active query window at runtime (the ramp knob of
/// Fig. 4–6).
pub fn set_ycsb_active_bytes(sim: &mut Simulation<World>, vm_idx: usize, bytes: u64) {
    if let Some(WorkloadKind::Ycsb(y)) = sim.state_mut().vms[vm_idx].workload.as_mut() {
        y.set_active_bytes(bytes);
    } else {
        panic!("VM {vm_idx} does not run YCSB");
    }
}

/// Name of the Redis hash-table index region of [`RedisLayout`].
pub(crate) const REDIS_INDEX: &str = "redis-index";

/// The Redis memory layout every YCSB guest uses: a hash-table index
/// (region `redis-index`, ~2% of the dataset and at least 4 pages), then
/// the values as 1 KiB records (region `redis-data`).
#[derive(Clone, Copy, Debug)]
pub struct RedisLayout {
    index: PageRange,
    data: PageRange,
    dataset_bytes: u64,
    page: u64,
}

impl RedisLayout {
    /// Carve the layout for a `dataset_bytes` dataset into `vm`'s guest
    /// memory.
    pub fn alloc(b: &mut ClusterBuilder, vm: usize, dataset_bytes: u64) -> RedisLayout {
        let page = b.world().cfg.page_size;
        let layout = b.world_mut().vms[vm].vm.layout_mut();
        let index = layout.alloc_region(REDIS_INDEX, ((dataset_bytes / 50) / page).max(4) as u32);
        let data = layout.alloc_region("redis-data", (dataset_bytes / page) as u32);
        RedisLayout {
            index,
            data,
            dataset_bytes,
            page,
        }
    }

    /// Bytes of the index region.
    pub fn index_bytes(&self) -> u64 {
        self.index.len as u64 * self.page
    }

    /// A YCSB client model over this layout, with uniform-prefix keys.
    pub fn ycsb(&self, params: YcsbParams) -> YcsbRedis {
        let dataset = Dataset::new(self.data, self.dataset_bytes / 1024, 1024, self.page);
        YcsbRedis::new(dataset, self.index, KeyDist::UniformPrefix, params)
    }
}

/// The source configuration of the paper's §V runs: `technique` with the
/// pre-copy stop threshold (9,000 pages at paper scale, at least 64)
/// divided by the scale divisor `sc`.
pub(crate) fn paper_source_config(technique: Technique, sc: u64) -> SourceConfig {
    SourceConfig {
        precopy_threshold_pages: (9_000 / sc as u32).max(64),
        ..SourceConfig::new(technique)
    }
}

/// Start migrating `vm` to `dest` with the whole free destination host as
/// its reservation there, capped at the VM's size. Returns the migration
/// index.
pub(crate) fn start_fitted_migration(
    sim: &mut Simulation<World>,
    vm: usize,
    dest: usize,
    src_cfg: SourceConfig,
) -> usize {
    let dest_resv = {
        let w = sim.state();
        w.hosts[dest]
            .mem
            .available_for_vms()
            .min(w.vms[vm].vm.config().mem_bytes)
    };
    migrate::start_migration(sim, vm, dest, src_cfg, dest_resv)
}

/// The over-committed testbed of §V-A and §V-C: `n_vms` 10 GB VMs with
/// 5.5 GB reservations on a 23 GB source host, an empty destination of
/// the same size, an external client host and, for Agile, an
/// intermediate host whose VMD server holds every VM's swap.
///
/// Each VM runs `workload(builder, vm)` plus OS background, and the
/// datasets preload concurrently, so their eviction streams interleave on
/// the shared swap partition (the paper's four load clients). Once the
/// workloads are started, `script` schedules the scenario's own events
/// (before the migration's, so events at the migration instant keep that
/// order). At `migrate_at_secs` the first VM migrates to the destination, and the
/// source is re-balanced once a second after the migration finishes.
/// Returns the world and the VM indices.
pub(crate) fn overcommitted_testbed(
    technique: Technique,
    scale: u64,
    seed: u64,
    n_vms: usize,
    migrate_at_secs: u64,
    mut workload: impl FnMut(&mut ClusterBuilder, usize) -> WorkloadKind,
    script: impl FnOnce(&mut Simulation<World>, &[usize]),
) -> (Simulation<World>, Vec<usize>) {
    let sc = scale.max(1);
    let host_mem = 23 * GIB / sc;
    let host_os = 200 * MIB / sc;
    let slack = 256 * MIB / sc;

    let cluster_cfg = ClusterConfig {
        seed,
        ..ClusterConfig::default()
    };
    let page = cluster_cfg.page_size;
    let mut b = ClusterBuilder::new(cluster_cfg);
    let src_host = b.add_host("source", host_mem, host_os, true);
    let dst_host = b.add_host("dest", host_mem, host_os, true);
    let client_host = b.add_host("client", 16 * GIB / sc, host_os, false);
    let agile = technique == Technique::Agile;
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

    let vms: Vec<usize> = (0..n_vms)
        .map(|_| {
            let vm = b.add_vm(
                src_host,
                VmConfig {
                    mem_bytes: 10 * GIB / sc,
                    page_size: page,
                    vcpus: 2,
                    reservation_bytes: 11 * GIB / 2 / sc, // 5.5 GiB
                    guest_os_bytes: 300 * MIB / sc,
                },
                swap_kind,
            );
            let model = workload(&mut b, vm);
            b.attach_workload(vm, client_host, model);
            b.enable_os_background(vm);
            vm
        })
        .collect();
    b.preload_layouts_interleaved(&vms, 256);

    let mut sim = b.build();
    start_all_workloads(&mut sim, SimTime::from_secs(1));
    script(&mut sim, &vms);

    let migrate_vm = vms[0];
    sim.schedule_at(SimTime::from_secs(migrate_at_secs), move |sim| {
        let src_cfg = paper_source_config(technique, sc);
        let mig = start_fitted_migration(sim, migrate_vm, dst_host, src_cfg);
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
    (sim, vms)
}
