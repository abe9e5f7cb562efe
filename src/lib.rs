//! # Agile Live Migration of Virtual Machines — a simulated reproduction
//!
//! This crate is the facade over a full reproduction of *"Agile Live
//! Migration of Virtual Machines"* (Deshpande, Chan, Guh, Edouard,
//! Gopalan, Bila — IPPS 2016): working-set-aware hybrid pre/post-copy VM
//! migration with portable per-VM swap devices backed by a distributed
//! memory pool (the VMD).
//!
//! The paper's artifact is KVM/QEMU + Linux-kernel code on a physical
//! testbed; this reproduction implements every mechanism the paper
//! describes against a deterministic discrete-event simulation of that
//! testbed (hosts, 1 GbE NICs, SSD swap devices, cgroup memory control,
//! 4 KB page tables). See `DESIGN.md` for the substitution map and
//! `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! ## Layer map
//!
//! | crate | contents |
//! |-------|----------|
//! | [`sim`] (`agile-sim-core`) | event queue, deterministic RNG, fluid network, block devices, stats |
//! | [`memory`] (`agile-memory`) | page tables, pagemap views, cgroup reservations, two-list reclaim, swap backends |
//! | [`vmd`] (`agile-vmd`) | the Virtualized Memory Device: client/server, namespaces, load-aware placement |
//! | [`vm`] (`agile-vm`) | VM lifecycle, vCPU processor sharing, guest layout |
//! | [`workload`] (`agile-workload`) | YCSB/Redis and Sysbench/MySQL models, zipfian keys |
//! | [`migration`] (`agile-migration`) | pre-copy, post-copy, and Agile state machines; metrics |
//! | [`wss`] (`agile-wss`) | swap-rate sampling, α/β/τ reservation control, fewest-VMs watermark selection |
//! | [`chaos`] (`agile-chaos`) | deterministic fault schedules: server crashes, NIC faults, connection drops |
//! | [`trace`] (`agile-trace`) | simulated-time event tracing, typed metrics registry, phase timelines |
//! | [`cluster`] (`agile-cluster`) | the executor wiring everything together, the watermark scheduler, scenario library |
//!
//! ## Quickstart
//!
//! ```no_run
//! use agile::cluster::scenario::ycsb::{self, YcsbScenarioConfig};
//! use agile::migration::Technique;
//!
//! // Reproduce Figure 6 (Agile migration under memory pressure) at 1/32
//! // scale — seconds of wall clock instead of minutes.
//! let result = ycsb::run(&YcsbScenarioConfig {
//!     technique: Technique::Agile,
//!     scale: 32,
//!     ..Default::default()
//! });
//! println!(
//!     "migration took {:.1?}s, moved {} bytes",
//!     result.metrics.total_time(),
//!     result.metrics.migration_bytes
//! );
//! ```

pub use agile_chaos as chaos;
pub use agile_cluster as cluster;
pub use agile_memory as memory;
pub use agile_migration as migration;
pub use agile_sim_core as sim;
pub use agile_trace as trace;
pub use agile_vm as vm;
pub use agile_vmd as vmd;
pub use agile_workload as workload;
pub use agile_wss as wss;

/// The paper's three techniques, re-exported for convenience.
pub use agile_migration::Technique;
