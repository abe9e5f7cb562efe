//! Behaviour lock: every scenario module, run at the small test configs,
//! must reproduce a checked-in `(events_executed, digest)` row.
//!
//! The digest is FNV-1a over the `Debug` rendering of the whole result
//! (Debug prints every f64 in its shortest round-trip form, so the string
//! is byte-identical iff every field is bit-identical). Tracing is on
//! wherever the config has a `trace` knob, so the JSONL export is part of
//! the digest. `datacenter` digests only its report: its `WallStats` are
//! wall-clock measurements.
//!
//! A row changes only together with a CHANGES.md entry that gives the
//! delta and the reason (DESIGN §8). On a mismatch the test prints the
//! replacement rows to paste into [`GOLDEN`].

use agile_chaos::{ChaosProfile, ChaosSchedule};
use agile_cluster::config::WssEstimatorKind;
use agile_cluster::scenario;
use agile_cluster::scenario::chaos::{self, ChaosScenarioConfig};
use agile_cluster::scenario::datacenter::{self, DatacenterConfig};
use agile_cluster::scenario::diurnal::DiurnalConfig;
use agile_cluster::scenario::estimators::EstimatorsConfig;
use agile_cluster::scenario::multihost::MultihostConfig;
use agile_cluster::scenario::pressure::PressureConfig;
use agile_cluster::scenario::scaleout::{CloneArm, ScaleoutConfig};
use agile_cluster::scenario::single_vm::{self, SingleVmConfig};
use agile_cluster::scenario::sysbench::{self, SysbenchScenarioConfig};
use agile_cluster::scenario::tiers::{TierArm, TiersConfig};
use agile_cluster::scenario::wss::{self, WssScenarioConfig};
use agile_cluster::scenario::ycsb::{self, YcsbScenarioConfig};
use agile_migration::Technique;
use agile_sim_core::{Fnv1a, SeedSequence, SimTime, GIB};

/// `(scenario, events_executed, digest)`. `None` events: the result type
/// does not report an event count.
const GOLDEN: &[(&str, Option<u64>, u64)] = &[
    ("ycsb/precopy", Some(14744534), 0x8784efb5a5d06659),
    ("ycsb/postcopy", Some(14752828), 0x96f9c4baaec44281),
    ("ycsb/agile", Some(15304006), 0xd767be08540d69f9),
    ("sysbench/precopy", None, 0xd34c6b90edeeeab3),
    ("sysbench/postcopy", None, 0x7f310d9ef223e5bc),
    ("sysbench/agile", None, 0x44efcce77ea17479),
    ("single_vm/precopy/idle", None, 0xd2b89f93b8a4146c),
    ("single_vm/precopy/busy", None, 0xd092d6c68ccaee71),
    ("single_vm/postcopy/idle", None, 0xf93904bd554c8532),
    ("single_vm/postcopy/busy", None, 0x897b33b124fda65c),
    ("single_vm/agile/idle", None, 0x4d1321c2fb4a3fd3),
    ("single_vm/agile/busy", None, 0x3e1bdd4d48fd6ce3),
    ("wss", None, 0xd3970297e4616cd0),
    ("chaos", Some(59970), 0x662d6a824cc6e40d),
    ("multihost", Some(583), 0xd1fbf982082ebc24),
    ("pressure", Some(167997), 0xbf42869b04773ec5),
    ("diurnal/naive", Some(27116974), 0x19f8bffb19ff12ef),
    ("diurnal/predicted", Some(26977828), 0x91faa82eb052ea6c),
    ("estimators/swap_io", Some(10005664), 0x8cb268c5c93214b1),
    ("estimators/pml", Some(10005619), 0xa5d1ec07fdd2f50f),
    ("tiers/scarce_dram/60", Some(569634), 0x5a091c9ba98cb5c3),
    ("tiers/far_memory/240", Some(492950), 0xd93277fc96fdd36b),
    ("scaleout/streamed", Some(5709080), 0x1d41bff23c0df516),
    ("scaleout/precopy", Some(5704569), 0x88a51addecf0df0d),
    ("datacenter/small", Some(13528), 0xd5c62c5573a86eea),
];

/// One computed row.
struct Row {
    name: String,
    events: Option<u64>,
    digest: u64,
}

impl Row {
    fn new(name: impl Into<String>, events: Option<u64>, rendered: &str) -> Row {
        let mut h = Fnv1a::new();
        for &b in rendered.as_bytes() {
            h.write_u64(u64::from(b));
        }
        Row {
            name: name.into(),
            events,
            digest: h.finish(),
        }
    }
}

/// Compare computed rows against [`GOLDEN`]; on any mismatch, panic with
/// the replacement rows.
fn check(rows: &[Row]) {
    let mut bad = Vec::new();
    for r in rows {
        let want = GOLDEN.iter().find(|g| g.0 == r.name);
        if want != Some(&(r.name.as_str(), r.events, r.digest)) {
            bad.push(format!(
                "    (\"{}\", {:?}, {:#018x}),",
                r.name, r.events, r.digest
            ));
        }
    }
    assert!(
        bad.is_empty(),
        "golden digest mismatch; new rows:\n{}",
        bad.join("\n")
    );
}

const TECHNIQUES: [(Technique, &str); 3] = [
    (Technique::PreCopy, "precopy"),
    (Technique::PostCopy, "postcopy"),
    (Technique::Agile, "agile"),
];

/// Figs. 4–6: the YCSB thrash-and-migrate timeline, one row per technique.
#[test]
fn ycsb_fig4_6() {
    let rows: Vec<Row> = TECHNIQUES
        .iter()
        .map(|&(technique, label)| {
            let r = ycsb::run(&YcsbScenarioConfig {
                technique,
                scale: 256,
                n_vms: 2,
                duration_secs: 90,
                ramp_start_secs: 25,
                ramp_step_secs: 10,
                migrate_at_secs: 40,
                read_ratio: 0.65,
                measure_window_secs: 40,
                seed: 11,
            });
            Row::new(
                format!("ycsb/{label}"),
                Some(r.events_executed),
                &format!("{r:?}"),
            )
        })
        .collect();
    check(&rows);
}

/// Tables I–III, Sysbench/MySQL rows.
#[test]
fn sysbench_tables1_3() {
    let rows: Vec<Row> = TECHNIQUES
        .iter()
        .map(|&(technique, label)| {
            let r = sysbench::run(&SysbenchScenarioConfig {
                technique,
                scale: 256,
                duration_secs: 120,
                migrate_at_secs: 40,
                window_secs: 60,
                ..Default::default()
            });
            Row::new(format!("sysbench/{label}"), None, &format!("{r:?}"))
        })
        .collect();
    check(&rows);
}

/// Figs. 7–8: the single-VM sweep, idle and busy, one VM size.
#[test]
fn single_vm_fig7_8() {
    let mut rows = Vec::new();
    for &(technique, label) in &TECHNIQUES {
        for busy in [false, true] {
            let r = single_vm::run(&SingleVmConfig {
                technique,
                vm_mem: 4 * GIB,
                host_mem: 6 * GIB,
                busy,
                scale: 64,
                warmup_secs: 15,
                deadline_secs: 2000,
                trace: true,
                ..Default::default()
            });
            let load = if busy { "busy" } else { "idle" };
            rows.push(Row::new(
                format!("single_vm/{label}/{load}"),
                None,
                &format!("{r:?}"),
            ));
        }
    }
    check(&rows);
}

/// Figs. 9–10: transparent WSS tracking.
#[test]
fn wss_fig9_10() {
    let r = wss::run(&WssScenarioConfig {
        scale: 128,
        duration_secs: 120,
        seed: 7,
        ..Default::default()
    });
    check(&[Row::new("wss", None, &format!("{r:?}"))]);
}

#[test]
fn chaos_generated_crash() {
    let profile = ChaosProfile {
        window_start: SimTime::from_secs(8),
        window_end: SimTime::from_secs(13),
        n_servers: 3,
        server_crashes: 1,
        ..ChaosProfile::default()
    };
    let r = chaos::run(&ChaosScenarioConfig {
        scale: 64,
        replication: 2,
        vmd_servers: 3,
        schedule: ChaosSchedule::generate(&profile, &SeedSequence::new(23)),
        warmup_secs: 10,
        deadline_secs: 600,
        seed: 23,
        trace: true,
        ..Default::default()
    });
    check(&[Row::new(
        "chaos",
        Some(r.events_executed),
        &format!("{r:?}"),
    )]);
}

#[test]
fn multihost_rebalance() {
    let r = scenario::run(&MultihostConfig {
        scale: 64,
        seed: 42,
        trace: true,
        ..MultihostConfig::default()
    });
    check(&[Row::new(
        "multihost",
        Some(r.events_executed),
        &format!("{r:?}"),
    )]);
}

#[test]
fn pressure_pool() {
    let r = scenario::run(&PressureConfig {
        scale: 64,
        seed: 42,
        trace: true,
        ..PressureConfig::default()
    });
    check(&[Row::new(
        "pressure",
        Some(r.events_executed),
        &format!("{r:?}"),
    )]);
}

#[test]
fn diurnal_naive_and_predicted() {
    let rows: Vec<Row> = [(false, "naive"), (true, "predicted")]
        .into_iter()
        .map(|(predict, label)| {
            let r = scenario::run(&DiurnalConfig {
                predict,
                scale: 64,
                seed: 42,
                trace: true,
                ..DiurnalConfig::default()
            });
            Row::new(
                format!("diurnal/{label}"),
                Some(r.events_executed),
                &format!("{r:?}"),
            )
        })
        .collect();
    check(&rows);
}

#[test]
fn estimators_arms() {
    let rows: Vec<Row> = [
        (WssEstimatorKind::SwapIo, "swap_io"),
        (WssEstimatorKind::Pml, "pml"),
    ]
    .into_iter()
    .map(|(estimator, label)| {
        let r = scenario::run(&EstimatorsConfig {
            estimator,
            scale: 64,
            deadline_secs: 60,
            trace: true,
            ..EstimatorsConfig::default()
        });
        Row::new(
            format!("estimators/{label}"),
            Some(r.events_executed),
            &format!("{r:?}"),
        )
    })
    .collect();
    check(&rows);
}

#[test]
fn tiers_points() {
    let rows: Vec<Row> = [(TierArm::ScarceDram, 60), (TierArm::FarMemory, 240)]
        .into_iter()
        .map(|(arm, dram_pct)| {
            let r = scenario::run(&TiersConfig {
                arm,
                dram_pct,
                scale: 64,
                seed: 42,
                ..TiersConfig::default()
            });
            Row::new(
                format!("tiers/{}/{dram_pct}", arm.label()),
                Some(r.events_executed),
                &format!("{r:?}"),
            )
        })
        .collect();
    check(&rows);
}

#[test]
fn scaleout_arms() {
    let rows: Vec<Row> = [CloneArm::Streamed, CloneArm::Precopy]
        .into_iter()
        .map(|arm| {
            let r = scenario::run(&ScaleoutConfig {
                arm,
                clones: 8,
                dest_hosts: 2,
                scale: 64,
                ..ScaleoutConfig::default()
            });
            Row::new(
                format!("scaleout/{}", arm.label()),
                Some(r.events_executed),
                &format!("{r:?}"),
            )
        })
        .collect();
    check(&rows);
}

#[test]
fn datacenter_small() {
    let r = datacenter::run(&DatacenterConfig::small());
    check(&[Row::new(
        "datacenter/small",
        Some(r.events_executed),
        &r.report,
    )]);
}
