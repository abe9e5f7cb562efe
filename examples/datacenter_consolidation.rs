//! Closing the loop the paper sketches in §III-B/§IV-D: working-set
//! tracking feeds the watermark scheduler, which *automatically* migrates
//! the fewest VMs needed to relieve a consolidated host.
//!
//! Four VMs idle on a small working set; two of them heat up, the
//! aggregate tracked WSS crosses the high watermark, and the scheduler,
//! managing the pair `[consolidated, standby]`, migrates the (provably
//! fewest) hottest VM(s) to the standby host using Agile migration.
//!
//! ```sh
//! cargo run --release --example datacenter_consolidation
//! ```

use agile::cluster::build::{start_all_workloads, ClusterBuilder, SwapKind};
use agile::cluster::scenario::{rebalance_host, set_ycsb_active_bytes, RedisLayout};
use agile::cluster::sched::{self, SchedConfig};
use agile::cluster::world::WorkloadKind;
use agile::cluster::{wssctl, ClusterConfig};
use agile::migration::SourceConfig;
use agile::sim::{fmt_bytes, SimDuration, SimTime, GIB, MIB};
use agile::vm::VmConfig;
use agile::workload::YcsbParams;
use agile::Technique;

const SC: u64 = 64; // 1/64 of paper sizes

fn main() {
    let cfg = ClusterConfig::default();
    let page = cfg.page_size;
    let mut b = ClusterBuilder::new(cfg);
    let consolidated = b.add_host("consolidated", 23 * GIB / SC, 200 * MIB / SC, true);
    let standby = b.add_host("standby", 23 * GIB / SC, 200 * MIB / SC, true);
    let client_host = b.add_host("client", 16 * GIB / SC, 200 * MIB / SC, false);
    let im = b.add_host("intermediate", 128 * GIB / SC, 200 * MIB / SC, false);
    b.add_vmd_server(im, 100 * GIB / SC, 0);
    b.ensure_vmd_client(standby);

    let dataset_bytes = 9 * GIB / SC;
    let mut vms = Vec::new();
    for _ in 0..4 {
        let vm = b.add_vm(
            consolidated,
            VmConfig {
                mem_bytes: 10 * GIB / SC,
                page_size: page,
                vcpus: 2,
                // Consolidated idle VMs: reservations sized to the small
                // active set, far under the watermarks.
                reservation_bytes: 5 * GIB / 2 / SC,
                guest_os_bytes: 300 * MIB / SC,
            },
            SwapKind::PerVmVmd,
        );
        let mut model = RedisLayout::alloc(&mut b, vm, dataset_bytes).ycsb(YcsbParams::default());
        model.set_active_bytes(200 * MIB / SC);
        b.attach_workload(vm, client_host, WorkloadKind::Ycsb(model));
        b.enable_os_background(vm);
        b.preload_layout(vm);
        vms.push(vm);
    }

    let mut sim = b.build();
    start_all_workloads(&mut sim, SimTime::from_secs(1));

    // WSS tracking on every VM so the trigger sees real estimates.
    for &vm in &vms {
        wssctl::enable_tracking(
            &mut sim,
            vm,
            agile::wss::ControllerParams::paper(64 * MIB / SC, 10 * GIB / SC),
            SimTime::from_secs(5),
        );
    }

    // The watermark scheduler over the pair, checked every 5 s.
    let sched_cfg = SchedConfig {
        max_in_flight: 2,
        src_cfg: SourceConfig::new(Technique::Agile),
        verify_content: false,
    };
    let managed = sched::arm_scheduler(&mut sim, &[consolidated, standby], (0.75, 0.92), sched_cfg);
    let trigger = managed[0].trigger;
    println!(
        "watermarks on {}: high {}, low {}",
        fmt_bytes(sim.state().hosts[consolidated].mem.available_for_vms()),
        fmt_bytes(trigger.high_bytes),
        fmt_bytes(trigger.low_bytes)
    );

    // At t = 60 s, two VMs heat up to a 6 GB working set each.
    for &vm in &vms[2..4] {
        sim.schedule_at(SimTime::from_secs(60), move |sim| {
            set_ycsb_active_bytes(sim, vm, 6 * GIB / SC);
            let host = sim.state().vms[vm].host;
            rebalance_host(sim, host, 128 * MIB / SC);
        });
    }

    // Narrate what happens.
    sim.schedule_every(SimTime::from_secs(10), SimDuration::from_secs(10), {
        let vms = vms.clone();
        move |sim| {
            let w = sim.state();
            let t = sim.now().as_secs();
            let agg = sched::host_aggregate(w, consolidated);
            let placed: Vec<String> = vms
                .iter()
                .map(|&v| {
                    format!(
                        "vm{v}@{}",
                        w.hosts[w.vms[v].host].name.chars().next().unwrap()
                    )
                })
                .collect();
            let migrating = w.migrations.iter().filter(|m| !m.finished).count();
            println!(
                "t={t:>4}s  aggregate tracked WSS {:>10}  [{}]{}",
                fmt_bytes(agg),
                placed.join(" "),
                if migrating > 0 {
                    "  (migrating…)"
                } else {
                    ""
                }
            );
            t < 240
        }
    });

    sim.run_until(SimTime::from_secs(250));

    let w = sim.state();
    let migrated: Vec<usize> = w
        .migrations
        .iter()
        .filter(|m| m.finished)
        .map(|m| m.vm)
        .collect();
    println!("\nmigrations performed: {migrated:?}");
    assert!(
        !migrated.is_empty(),
        "the watermark scheduler should have fired"
    );
    assert!(
        migrated.iter().all(|vm| *vm >= 2),
        "the fewest-VMs rule should pick the heated VMs (2, 3), got {migrated:?}"
    );
    for m in &w.migrations {
        let metrics = m.src.metrics();
        println!(
            "  vm{} → standby: {} in {:.1} s ({} as offsets)",
            m.vm,
            fmt_bytes(metrics.migration_bytes),
            metrics
                .total_time()
                .map(|d| d.as_secs_f64())
                .unwrap_or(f64::NAN),
            metrics.pages_sent_as_offsets,
        );
    }
}
