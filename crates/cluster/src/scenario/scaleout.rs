//! Rapid scale-out: streamed (post-copy style) VM cloning off a
//! copy-on-write namespace fork versus classic full pre-copy cloning.
//!
//! A gold-image master VM is sealed (whole image swapped out to its
//! portable VMD namespace), a flash-crowd load signal crosses the clone
//! controller's high watermark, and N clones spawn across the
//! destination hosts — each a metadata fork of the master namespace
//! sharing every stored page read-only. The A/B axis is
//! [`CloneArm`]:
//!
//! * **Streamed** — clones serve immediately, demand-paging from the
//!   shared image while a slow background pump hydrates the rest. When
//!   the crowd decays under the low watermark the clones are torn down
//!   with most of the image never transferred — that cancelled
//!   hydration is the aggregate-fabric-bytes win.
//! * **Precopy** — each clone pulls its entire image through the fabric
//!   before taking traffic: time-to-first-page-served pays the full
//!   copy, and the fabric carries `clones × image` bytes no matter how
//!   short-lived the crowd is.
//!
//! A bystander VM swaps steadily through the same VMD servers in both
//! arms; its completed-request count exposes how hard each cloning
//! strategy's fabric burst interferes with unrelated tenants.
//!
//! Knobs: `upgrade` lands the first clone on the master's own host and
//! purges the master namespace once the fleet is up (zero-downtime
//! in-place host upgrade — shared pages survive through the fork
//! refcounts); `chaos` crashes one of the two replica servers
//! mid-hydration under `k = 2` replication — nothing may be lost.

use agile_chaos::ChaosSchedule;
use agile_sim_core::{Fnv1a, SimDuration, SimTime, Simulation, GIB, MIB};
use agile_vm::VmConfig;
use agile_workload::{Signal, YcsbParams};

use crate::build::{start_all_workloads, ClusterBuilder, SwapKind};
use crate::clonectl::{self, CloneCtlConfig, HydrationMode};
use crate::config::ClusterConfig;
use crate::scenario::{RedisLayout, Scenario};
use crate::world::{WorkloadKind, World};

/// Which cloning strategy an arm runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CloneArm {
    /// Post-copy style: serve immediately, stream the rest slowly.
    Streamed,
    /// Full image pre-copy before the clone takes traffic.
    Precopy,
}

impl CloneArm {
    /// Stable label used in reports and file names.
    pub fn label(self) -> &'static str {
        match self {
            CloneArm::Streamed => "streamed",
            CloneArm::Precopy => "precopy",
        }
    }
}

/// One scale-out run.
#[derive(Clone, Debug)]
pub struct ScaleoutConfig {
    /// The cloning strategy under test.
    pub arm: CloneArm,
    /// Flash-crowd size: clones spawned at the peak.
    pub clones: usize,
    /// Destination hosts the clones round-robin across.
    pub dest_hosts: usize,
    /// Divide every byte quantity by this (1 = paper scale).
    pub scale: u64,
    /// Zero-downtime in-place host upgrade: first clone on the master's
    /// host, master namespace purged once the fleet serves.
    pub upgrade: bool,
    /// Crash one replica server mid-hydration under `k = 2`; the run
    /// must lose nothing.
    pub chaos: bool,
    /// Hard deadline for the run.
    pub deadline_secs: u64,
    /// Master seed.
    pub seed: u64,
}

impl Default for ScaleoutConfig {
    fn default() -> Self {
        ScaleoutConfig {
            arm: CloneArm::Streamed,
            clones: 16,
            dest_hosts: 4,
            scale: 1,
            upgrade: false,
            chaos: false,
            deadline_secs: 90,
            seed: 42,
        }
    }
}

/// Everything a scale-out run reports. With equal configs two runs
/// produce byte-identical values at any worker count.
#[derive(Clone, Debug, PartialEq)]
pub struct ScaleoutResult {
    /// Deterministic per-run report.
    pub report: String,
    /// Clones spawned.
    pub spawned: u64,
    /// Clones that served at least one request.
    pub ready: u64,
    /// Mean time from spawn to first completed request, ns
    /// (`u64::MAX` when no clone became ready).
    pub ttfps_mean_ns: u64,
    /// Worst time from spawn to first completed request, ns.
    pub ttfps_max_ns: u64,
    /// Time from the first spawn until every clone served, ns.
    pub all_ready_ns: u64,
    /// Clone-attributable fabric bytes: demand faults, hydration reads,
    /// and eviction/CoW write-backs through the clones' VMD devices.
    pub fabric_bytes: u64,
    /// Pages streamed by the background hydration pumps.
    pub hydrated_pages: u64,
    /// Copy-on-write share breaks (first writes to shared pages).
    pub cow_breaks: u64,
    /// Clones fully torn down at the end of the trough.
    pub torn_down: u64,
    /// The in-place upgrade retired the master namespace.
    pub master_purged: bool,
    /// Swap reads that completed with lost content (must be 0 at k=2).
    pub lost_reads: u64,
    /// Bystander VM completed requests (fabric-interference probe).
    pub bystander_ops: u64,
    /// FNV-1a digest over counters and per-clone timelines.
    pub digest: u64,
    /// Total DES events executed (the golden-trace fingerprint).
    pub events_executed: u64,
}

impl Scenario for ScaleoutConfig {
    /// The fleet size.
    type Meta = usize;
    type Result = ScaleoutResult;

    /// Build one scale-out run: gold master, destination hosts, two VMD
    /// servers, the bystander, and the armed clone controller.
    fn setup(&self) -> (Simulation<World>, Self::Meta) {
        let sc = self.scale.max(1);
        let master_mem = 512 * MIB / sc;
        let guest_os = 64 * MIB / sc;
        let dataset_bytes = 256 * MIB / sc;
        let active_bytes = 16 * MIB / sc;
        let clone_res = master_mem / 2;
        let host_os = 64 * MIB / sc;

        let mut cluster_cfg = ClusterConfig {
            seed: self.seed,
            vmd_replication: if self.chaos { 2 } else { 1 },
            ..ClusterConfig::default()
        };
        let page = cluster_cfg.page_size;
        cluster_cfg.vmd_detect_delay = SimDuration::from_millis(500);

        let mut b = ClusterBuilder::new(cluster_cfg);
        let gold = b.add_host("gold", 2 * GIB / sc, host_os, false);
        let dests: Vec<usize> = (0..self.dest_hosts.max(1))
            .map(|i| b.add_host(&format!("dest{i}"), 2 * GIB / sc, host_os, false))
            .collect();
        let im0 = b.add_host("im0", 2 * GIB / sc, host_os, false);
        let im1 = b.add_host("im1", 2 * GIB / sc, host_os, false);
        let bystander_host = b.add_host("bystander", 512 * MIB / sc, host_os, false);
        let client_host = b.add_host("client", GIB / sc, host_os, false);
        b.add_vmd_server(im0, GIB / sc, 0);
        b.add_vmd_server(im1, GIB / sc, 0);
        // Clone spawns bind through the destination hosts' clients at
        // runtime; the channels must exist at build time.
        for &d in &dests {
            b.ensure_vmd_client(d);
        }

        // The gold master: a passive template — layout carved and preloaded,
        // no workload ever attached (sealing quiesces it for forking).
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
        let gold_layout = RedisLayout::alloc(&mut b, master, dataset_bytes);
        b.preload_layout(master);

        // The bystander: over-committed, steadily faulting through the same
        // VMD servers in both arms — the interference probe.
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
        let by_model = RedisLayout::alloc(&mut b, bystander, by_dataset).ycsb(YcsbParams {
            client_threads: 2,
            ..YcsbParams::default()
        });
        b.attach_workload(bystander, client_host, WorkloadKind::Ycsb(by_model));
        b.preload_layout(bystander);
        // A paced probe, not a stress source: think time keeps its steady
        // fault stream from dominating the event count while staying
        // latency-sensitive enough to show fabric interference.
        b.world_mut().vms[bystander]
            .client
            .as_mut()
            .expect("bystander client attached")
            .think_ns = 1_000_000;

        let mut sim = b.build();
        start_all_workloads(&mut sim, SimTime::from_secs(1));

        if self.chaos {
            // One of the two replica servers dies mid-hydration and rejoins
            // empty; at k = 2 every shared page survives on the other.
            crate::chaosctl::install(
                &mut sim,
                ChaosSchedule::builder()
                    .server_outage(1, SimTime::from_secs(6), SimDuration::from_secs(14))
                    .build(),
            );
        }

        // Hydration pacing. Streamed: slow enough that the full image takes
        // ~130 s — more than twice the crowd's time above the low watermark
        // — so teardown cancels most of the stream. Precopy: a fast bulk
        // copy gated only by the fabric.
        let preloaded = sim.state().vms[master].vm.memory().pages() as u64;
        let streamed_ppt = (preloaded / 1300).max(1) as u32;
        let hydration = match self.arm {
            CloneArm::Streamed => HydrationMode::Streamed {
                pages_per_tick: streamed_ppt,
            },
            CloneArm::Precopy => HydrationMode::Precopy {
                pages_per_tick: 256,
            },
        };
        let hydrate_period = match self.arm {
            CloneArm::Streamed => SimDuration::from_millis(100),
            CloneArm::Precopy => SimDuration::from_millis(10),
        };

        let n_clones = self.clones;
        let upgrade = self.upgrade;
        let dest_hosts = dests.clone();
        let active = active_bytes;
        sim.schedule_at(SimTime::from_secs(2), move |sim| {
            let make_workload = std::rc::Rc::new(move |_clone_idx: usize| {
                // Update-heavy mix: each instance takes writes from the
                // crowd and diverges from the gold image — dirtied shared
                // pages are what the CoW machinery exists for.
                let mut model = gold_layout.ycsb(YcsbParams {
                    client_threads: 2,
                    ..YcsbParams::update_heavy()
                });
                model.set_active_bytes(active);
                WorkloadKind::Ycsb(model)
            });
            clonectl::arm_cloning(
                sim,
                CloneCtlConfig {
                    master,
                    // 10 ms ticks: ready detection is tick-sampled, and the
                    // streamed-vs-precopy time-to-first-page gap is tens to
                    // hundreds of milliseconds.
                    period: SimDuration::from_millis(10),
                    hydrate_period,
                    // Flash crowd at t = 5 s, e-folding 20 s: above the high
                    // watermark until ~46.6 s, under the low one at ~60.4 s.
                    signal: Signal::flash_crowd(
                        SimTime::from_secs(5),
                        8.0,
                        SimDuration::from_secs(20),
                    ),
                    high_water: 1.0,
                    low_water: 0.5,
                    max_clones: n_clones,
                    clones_per_tick: 4,
                    dest_hosts,
                    client_host,
                    clone_reservation_bytes: clone_res,
                    hydration,
                    in_place_upgrade: upgrade,
                    // Paced clients: readiness and divergence probes, not a
                    // throughput benchmark — keeps the event count flat in
                    // the clone count.
                    client_think_ns: 1_000_000,
                    make_workload,
                },
            );
        });

        // A two-second host memory squeeze mid-crowd trims every live
        // clone's reservation below its dirty working set: the forced
        // write-backs of dirtied shared pages are the first writes that
        // break CoW shares (each clone diverges from the gold image).
        let squeeze = (active_bytes / 2).max(page);
        sim.schedule_at(SimTime::from_secs(30), move |sim| {
            for vm in live_clone_vms(sim) {
                super::set_reservation(sim, vm, squeeze);
            }
        });
        sim.schedule_at(SimTime::from_secs(32), move |sim| {
            for vm in live_clone_vms(sim) {
                super::set_reservation(sim, vm, clone_res);
            }
        });

        (sim, n_clones)
    }

    fn deadline(&self) -> SimTime {
        SimTime::from_secs(self.deadline_secs)
    }

    /// The whole fleet was spawned and torn down again (the flash crowd
    /// fully decayed).
    fn done(sim: &Simulation<World>, &clones: &usize) -> bool {
        sim.state()
            .clone
            .as_ref()
            .map(|ex| ex.counters.torn_down >= clones as u64)
            .unwrap_or(false)
    }

    /// Assemble the deterministic per-run result.
    fn finish(&self, sim: Simulation<World>, _clones: usize) -> ScaleoutResult {
        let events_executed = sim.events_executed();
        let w = sim.state();
        let ex = w.clone.as_ref().expect("clone controller armed in setup");

        let mut ttfps: Vec<u64> = Vec::new();
        let mut first_spawn: u64 = u64::MAX;
        let mut last_ready: u64 = 0;
        for c in &ex.clones {
            first_spawn = first_spawn.min(c.spawned_at.as_nanos());
            if let Some(r) = c.ready_at {
                ttfps.push(r.as_nanos() - c.spawned_at.as_nanos());
                last_ready = last_ready.max(r.as_nanos());
            }
        }
        let ready = ttfps.len() as u64;
        let ttfps_mean_ns = ttfps
            .iter()
            .sum::<u64>()
            .checked_div(ready)
            .unwrap_or(u64::MAX);
        let ttfps_max_ns = ttfps.iter().copied().max().unwrap_or(u64::MAX);
        let all_ready_ns = if ready == ex.clones.len() as u64 && ready > 0 {
            last_ready - first_spawn
        } else {
            u64::MAX
        };

        // Clone-attributable fabric bytes: every page the cloning machinery
        // moved through a clone's VMD device (demand faults, hydration
        // reads, eviction/CoW write-backs). Server-NIC totals would bury
        // the A/B delta under bystander traffic identical in both arms.
        let fabric_bytes: u64 = ex
            .clones
            .iter()
            .map(|c| {
                let io = w.vms[c.vm].swap.counters();
                io.read_bytes + io.write_bytes
            })
            .sum();
        // The bystander is the last pre-clone VM slot; clones sit after it.
        let bystander_ops = w.vms[1].meter.total();
        let lost_reads = w.chaos.lost_reads;

        let mut h = Fnv1a::new();
        h.write_u64(ex.counters.forks);
        h.write_u64(ex.counters.spawned);
        h.write_u64(ex.counters.ready);
        h.write_u64(ex.counters.torn_down);
        h.write_u64(ex.counters.cow_breaks);
        h.write_u64(ex.counters.hydrated_pages);
        for c in &ex.clones {
            h.write_u64(c.spawned_at.as_nanos());
            h.write_u64(c.ready_at.map(|t| t.as_nanos()).unwrap_or(u64::MAX));
            h.write_u64(c.hydrated_at.map(|t| t.as_nanos()).unwrap_or(u64::MAX));
            h.write_u64(u64::from(c.cursor));
        }
        h.write_u64(fabric_bytes);
        h.write_u64(bystander_ops);
        h.write_u64(lost_reads);
        let digest = h.finish();

        let mut report = String::new();
        {
            use std::fmt::Write;
            let _ = writeln!(
                report,
                "# scaleout arm={} clones={} scale={} upgrade={} chaos={} seed={}",
                self.arm.label(),
                self.clones,
                self.scale.max(1),
                self.upgrade,
                self.chaos,
                self.seed,
            );
            let _ = writeln!(
                report,
                "ready: n={ready} ttfps_mean_ns={ttfps_mean_ns} ttfps_max_ns={ttfps_max_ns} \
                 all_ready_ns={all_ready_ns}",
            );
            let _ = writeln!(
                report,
                "fabric: bytes={fabric_bytes} hydrated_pages={} cow_breaks={}",
                ex.counters.hydrated_pages, ex.counters.cow_breaks,
            );
            let _ = writeln!(
                report,
                "teardown: torn_down={} master_purged={} lost_reads={lost_reads}",
                ex.counters.torn_down, ex.master_purged,
            );
            let _ = writeln!(
                report,
                "bystander: ops={bystander_ops} digest={digest:#018x} \
                 events_executed={events_executed}",
            );
        }

        ScaleoutResult {
            report,
            spawned: ex.counters.spawned,
            ready,
            ttfps_mean_ns,
            ttfps_max_ns,
            all_ready_ns,
            fabric_bytes,
            hydrated_pages: ex.counters.hydrated_pages,
            cow_breaks: ex.counters.cow_breaks,
            torn_down: ex.counters.torn_down,
            master_purged: ex.master_purged,
            lost_reads,
            bystander_ops,
            digest,
            events_executed,
        }
    }
}

/// VM indices of clones that are still live (not draining or gone), in
/// spawn order — the deterministic iteration order for runtime
/// reservation changes.
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

/// Run one scale-out arm: [`super::run`] under the name the
/// benchmark's library cross-check calls.
pub fn run(cfg: &ScaleoutConfig) -> ScaleoutResult {
    super::run(cfg)
}
