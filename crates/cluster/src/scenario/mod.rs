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
//! The extension scenarios that run until a settle predicate holds
//! (`multihost`, `pressure`, `diurnal`, `estimators`, `tiers`,
//! `scaleout`) implement [`Scenario`] and are driven by the one generic
//! driver: [`run`] for a single config, [`run_replicated`] for several
//! independent configs as shards of one parallel epoch harness.

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

use agile_sim_core::{SimDuration, SimTime, Simulation};
use agile_workload::Signal;

use crate::guest::{charge_evictions, EvictTarget};
use crate::shard::{NullCoordinator, ShardedRun};
use crate::world::{WorkloadKind, World};

/// A scenario the generic driver can run: build a world, advance it in
/// 5-second slices until [`Scenario::done`] holds at a slice boundary or
/// the deadline is reached, then fold the final world into a result.
pub trait Scenario {
    /// What `setup` hands on to `done` and `finish`.
    type Meta;
    /// The deterministic outcome of one run.
    type Result;
    /// Build and arm the world.
    fn setup(&self) -> (Simulation<World>, Self::Meta);
    /// The hard end of the run.
    fn deadline(&self) -> SimTime;
    /// Whether the run may stop before its deadline, evaluated at every
    /// slice boundary.
    fn done(sim: &Simulation<World>, meta: &Self::Meta) -> bool;
    /// Disarm the controllers and assemble the result.
    fn finish(&self, sim: Simulation<World>, meta: Self::Meta) -> Self::Result;
}

/// Run one scenario. This is the one-shard case of [`run_replicated`]:
/// the epoch targets are the 5-second slice boundaries, no coordinator
/// message is ever scheduled, the shard id stays 0, and no thread is
/// spawned.
pub fn run<S: Scenario>(cfg: &S) -> S::Result {
    let mut results = run_replicated(std::slice::from_ref(cfg), 1);
    results.pop().expect("one shard, one result")
}

/// Run several independent scenarios as shards of one parallel epoch
/// harness (lookahead = the 5-second slice). Every result is
/// byte-identical to [`run`] of its config at any `workers` count.
pub fn run_replicated<S: Scenario>(cfgs: &[S], workers: usize) -> Vec<S::Result> {
    assert!(!cfgs.is_empty());
    let deadline = cfgs[0].deadline();
    assert!(
        cfgs.iter().all(|c| c.deadline() == deadline),
        "replicated runs share one deadline (epoch targets must coincide)"
    );
    let (worlds, metas): (Vec<_>, Vec<_>) = cfgs.iter().map(S::setup).unzip();
    let mut sharded = ShardedRun::new(worlds, SimDuration::from_secs(5));
    sharded.run(workers, deadline, &mut NullCoordinator, |i, sim| {
        S::done(sim, &metas[i])
    });
    sharded
        .into_worlds()
        .into_iter()
        .zip(cfgs)
        .zip(metas)
        .map(|((sim, cfg), meta)| cfg.finish(sim, meta))
        .collect()
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
                .region("redis-index")
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

/// Poll once a second until migration `mig` finishes, then re-balance the
/// source host.
pub(crate) fn watch_completion(
    sim: &mut Simulation<World>,
    mig: usize,
    src_host: usize,
    slack: u64,
) {
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
}
