//! The simulator's benchmark: host cost and migration outcomes on four
//! workloads, with an outside-in per-layer trace.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload ycsb_thrash --seed 42 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` repeats the workload for `--seconds` of host time and
//! reports the end-to-end host metrics (medians over the repetitions).
//! `--trace 1` alternates untraced and traced repetitions and reports
//! the per-layer split of the traced step loop (see `layers.rs`). Both
//! print the simulated outcomes, check them, and end with one JSON line.
//! A failed check prints `"correct": false` and exits with code 1.
//! See `perfbench/README.md` for the workloads and metrics.

mod calib;
mod layers;
mod scenes;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use agile_cluster::scenario::datacenter::{self, DatacenterConfig, WallStats};
use agile_cluster::scenario::scaleout::{self, CloneArm, ScaleoutConfig};
use agile_cluster::scenario::single_vm::{self, SingleVmConfig};
use agile_cluster::scenario::ycsb::{self, YcsbScenarioConfig};
use agile_cluster::World;
use agile_migration::Technique;
use agile_sim_core::{FixedHistogram, SimDuration, SimTime, Simulation, GIB};

use calib::Calib;
use layers::{Buckets, StepAcc, BUCKETS};
use scenes::{Counts, Outcome, SceneCfg};

const USAGE: &str =
    "usage: perfbench --workload <ycsb_thrash|migrate_sweep|clone_burst|datacenter> \
                     --seed <u64> --seconds <u64> --trace <0|1>";

/// Repetitions every untraced run makes, however long they take.
const MIN_REPS: usize = 3;

/// Reference calls per thread before and after a datacenter repetition.
const DC_CALLS: u64 = 100;

/// Per-scale sizing. Byte quantities are the paper's divided by the
/// scale; run lengths are cut so one repetition takes seconds.
fn plan(workload: &str, seed: u64) -> Option<Plan> {
    Some(match workload {
        // The paper's §V-A timeline compressed about 30×: the four VMs
        // widen their query windows 2 s apart from 5 s until the host
        // thrashes, one is migrated at 13 s, recovery runs to 20 s.
        "ycsb_thrash" => Plan::Scenes(vec![SceneCfg::Ycsb(YcsbScenarioConfig {
            technique: Technique::Agile,
            scale: 256,
            n_vms: 4,
            duration_secs: 20,
            ramp_start_secs: 5,
            ramp_step_secs: 2,
            migrate_at_secs: 13,
            read_ratio: 0.65,
            measure_window_secs: 7,
            seed,
        })]),
        // Fig. 7–8 points past the 6 GB host: every technique at two sizes.
        "migrate_sweep" => Plan::Scenes(
            [8 * GIB, 12 * GIB]
                .into_iter()
                .flat_map(|vm_mem| {
                    [Technique::PreCopy, Technique::PostCopy, Technique::Agile]
                        .into_iter()
                        .map(move |technique| {
                            SceneCfg::SingleVm(SingleVmConfig {
                                technique,
                                vm_mem,
                                scale: 8,
                                warmup_secs: 5,
                                deadline_secs: 4000,
                                seed,
                                ..SingleVmConfig::default()
                            })
                        })
                })
                .collect(),
        ),
        "clone_burst" => Plan::Scenes(
            [CloneArm::Streamed, CloneArm::Precopy]
                .into_iter()
                .map(|arm| {
                    SceneCfg::Scaleout(ScaleoutConfig {
                        arm,
                        clones: 16,
                        dest_hosts: 4,
                        scale: 16,
                        seed,
                        ..ScaleoutConfig::default()
                    })
                })
                .collect(),
        ),
        // The large preset's racks (32 hosts, 20 VMs per packed host)
        // but 8 of them rather than 32: 256 hosts and 2,560 VMs peak near
        // 1.0 GB resident where the full preset takes 4.3 GB.
        "datacenter" => Plan::Datacenter(DatacenterConfig {
            racks: 8,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(2),
            seed,
            ..DatacenterConfig::large()
        }),
        _ => return None,
    })
}

/// What one workload runs.
enum Plan {
    /// Worlds the benchmark builds and steps itself, one after another.
    Scenes(Vec<SceneCfg>),
    /// `scenario::datacenter::run`, which owns its sharded worlds.
    Datacenter(DatacenterConfig),
}

/// Simulated outcome of one repetition: equal for equal seeds.
enum SimOut {
    Scenes(Vec<Outcome>),
    Datacenter {
        report: String,
        racks: u64,
        unconverged: u64,
        started: u64,
        finished: u64,
        epochs: u64,
        sim_secs: f64,
    },
}

impl SimOut {
    /// Everything simulated, as one comparable string.
    fn fingerprint(&self) -> String {
        match self {
            SimOut::Scenes(outs) => format!("{outs:?}"),
            SimOut::Datacenter { report, .. } => report.clone(),
        }
    }
}

/// One repetition of a workload.
struct Rep {
    /// Host seconds from each scene's build start to its first event,
    /// summed over scenes.
    setup_s: f64,
    /// Host seconds of the event loops, summed over scenes.
    wall_s: f64,
    /// Reference calls made during the repetition: `(seconds, calls)`.
    cal: (f64, u64),
    events: u64,
    sim: SimOut,
    trace: Option<(StepAcc, Buckets)>,
    shard: Option<WallStats>,
}

/// Simulated time between reference calls' chances to run.
const SLICE: SimDuration = SimDuration::from_secs(1);

/// `run_until(t)` as a sequence of `run_until` calls at every `SLICE`
/// boundary before `t`, timed, with reference calls in between.
/// Splitting changes nothing simulated: no event runs between the calls.
fn run_sliced(
    sim: &mut Simulation<World>,
    t: SimTime,
    wall_s: &mut f64,
    calib: &mut Calib,
    mut run_until: impl FnMut(&mut Simulation<World>, SimTime),
) {
    loop {
        let boundary = (sim.now().as_nanos() / SLICE.as_nanos() + 1) * SLICE.as_nanos();
        let next = SimTime::from_nanos(boundary).min(t);
        let t0 = Instant::now();
        run_until(sim, next);
        let dt = t0.elapsed().as_secs_f64();
        *wall_s += dt;
        calib.after(dt);
        if sim.now() >= t {
            return;
        }
    }
}

fn run_rep(plan: &Plan, traced: bool) -> Rep {
    match plan {
        Plan::Scenes(cfgs) => {
            let mut calib = Calib::default();
            let mut setup_s = 0.0;
            let mut wall_s = 0.0;
            let mut events = 0;
            let mut trace = traced.then(|| (StepAcc::default(), Buckets::default()));
            let mut outs = Vec::with_capacity(cfgs.len());
            for cfg in cfgs {
                let t0 = Instant::now();
                let mut built = scenes::build(cfg);
                let dt = t0.elapsed().as_secs_f64();
                setup_s += dt;
                calib.after(dt);
                let (wall, cal) = (&mut wall_s, &mut calib);
                let n = match trace.as_mut() {
                    Some((acc_all, buckets_all)) => {
                        layers::install(&mut built.sim);
                        let mut acc = StepAcc::default();
                        built.drive.run(&mut built.sim, |sim, t| {
                            run_sliced(sim, t, wall, cal, |sim, t| {
                                layers::run_until_traced(sim, t, &mut acc)
                            })
                        });
                        acc_all.add(&acc);
                        buckets_all.add(&layers::buckets());
                        acc.events
                    }
                    None => {
                        built.drive.run(&mut built.sim, |sim, t| {
                            run_sliced(sim, t, wall, cal, |sim, t| sim.run_until(t))
                        });
                        built.sim.events_executed()
                    }
                };
                events += n;
                outs.push(scenes::outcome(cfg, &built.sim, n));
            }
            Rep {
                setup_s,
                wall_s,
                cal: calib.totals(),
                events,
                sim: SimOut::Scenes(outs),
                trace,
                shard: None,
            }
        }
        Plan::Datacenter(cfg) => {
            // The epoch loop runs inside the library, so the reference
            // calls bracket it instead, on as many threads as it uses.
            let before = calib::parallel_calls(cfg.workers, DC_CALLS);
            let t0 = Instant::now();
            let r = datacenter::run(cfg);
            let total = t0.elapsed().as_secs_f64();
            let after = calib::parallel_calls(cfg.workers, DC_CALLS);
            let mut started = 0;
            let mut finished = 0;
            let mut unconverged = 0;
            for line in r
                .report
                .lines()
                .filter(|l| l.trim_start().starts_with("rack="))
            {
                started += field(line, "migrations=");
                finished += field(line, "finished=");
                unconverged += u64::from(line.contains("converged=false"));
            }
            Rep {
                // `run` builds every rack before its epoch loop and
                // assembles the report after it; only the loop is in
                // `WallStats`, so everything else counts as set-up.
                setup_s: total - r.wall.wall_secs,
                wall_s: r.wall.wall_secs,
                cal: (before.0 + after.0, before.1 + after.1),
                events: r.events_executed,
                sim: SimOut::Datacenter {
                    report: r.report,
                    racks: r.racks as u64,
                    unconverged,
                    started,
                    finished,
                    epochs: r.epochs,
                    sim_secs: r.sim_secs,
                },
                trace: None,
                shard: Some(r.wall),
            }
        }
    }
}

/// The number after `key` in a `key=value` report line.
fn field(line: &str, key: &str) -> u64 {
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix(key))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("report line without {key}: {line}"))
}

/// The three fields of the result line plus the reasons behind `failed`.
#[derive(Default)]
struct Verdict {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Verdict {
    /// Count `attempted` operations of which `failed` failed.
    fn ops(&mut self, what: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.problems
                .push(format!("{failed} of {attempted} {what} failed"));
        }
    }

    /// A yes/no check counts as one operation.
    fn check(&mut self, what: &str, ok: bool) {
        self.ops(what, 1, u64::from(!ok));
    }
}

/// The workload's operations and their failures, from one repetition.
fn judge(sim: &SimOut, v: &mut Verdict) {
    match sim {
        SimOut::Scenes(outs) => {
            for o in outs {
                let unfinished = o.migrations.iter().filter(|m| !m.finished).count() as u64;
                v.ops("migrations", o.migrations.len() as u64, unfinished);
                if let Some(c) = &o.clone {
                    v.ops(
                        "clones (spawn, serve, tear down)",
                        c.wanted,
                        c.wanted - c.served_and_torn_down,
                    );
                }
                v.ops("VMD reads", o.vmd_reads, o.lost_reads);
                v.ops("VMD slots (lost)", o.slots_lost, o.slots_lost);
                v.ops("VMD server ledgers", o.servers, o.bad_ledgers);
            }
            // Each ycsb and single-VM scene migrates exactly one VM.
            let expected = outs.iter().filter(|o| o.clone.is_none()).count() as u64;
            let started = outs.iter().map(|o| o.migrations.len() as u64).sum::<u64>();
            v.check("expected migrations started", started == expected);
        }
        SimOut::Datacenter {
            racks,
            unconverged,
            started,
            finished,
            ..
        } => {
            v.ops("racks (converge)", *racks, *unconverged);
            v.ops("migrations", *started, started.saturating_sub(*finished));
        }
    }
}

/// Simulated end-to-end metrics `(name, value, unit)` of one
/// repetition. A metric the workload does not exercise is left out.
fn sim_metrics(plan: &Plan, sim: &SimOut) -> Vec<(String, f64, &'static str)> {
    let mut m = Vec::new();
    match sim {
        SimOut::Scenes(outs) => {
            let Plan::Scenes(cfgs) = plan else {
                unreachable!("scene outcomes come from scene plans")
            };
            let migs: Vec<_> = outs.iter().flat_map(|o| &o.migrations).collect();
            if !migs.is_empty() {
                let n = migs.len() as f64;
                m.push((
                    "migration_s".into(),
                    migs.iter().map(|x| x.total_s).sum::<f64>() / n,
                    "s",
                ));
                let down = migs.iter().map(|x| x.downtime_s).fold(f64::NAN, f64::max);
                m.push(("downtime_ms".into(), down * 1e3, "ms"));
                let bytes: u64 = migs.iter().map(|x| x.bytes).sum();
                m.push(("migration_mb".into(), bytes as f64 / 1e6, "MB"));
            }
            if let Some(ops) = outs.iter().find_map(|o| o.app_ops_per_s) {
                m.push(("app_ops_per_s".into(), ops, "1/s"));
            }
            if let Some(p99) = fault_p99_ns(outs) {
                m.push(("fault_p99_ms".into(), p99 as f64 / 1e6, "ms"));
            }
            for (cfg, o) in cfgs.iter().zip(outs) {
                if let (SceneCfg::Scaleout(c), Some(x)) = (cfg, &o.clone) {
                    m.push((
                        format!("clone_ready_s[{}]", c.arm.label()),
                        x.fleet_ready_s,
                        "s",
                    ));
                }
            }
        }
        SimOut::Datacenter {
            started,
            epochs,
            sim_secs,
            ..
        } => {
            m.push(("migrations".into(), *started as f64, "count"));
            m.push(("epochs".into(), *epochs as f64, "count"));
            m.push(("sim_s".into(), *sim_secs, "s"));
        }
    }
    m
}

/// p99 over the union of every scene's fault histogram, by the rule of
/// `FixedHistogram::quantile_ceil_ns`.
fn fault_p99_ns(outs: &[Outcome]) -> Option<u64> {
    let mut merged = vec![0u64; outs.iter().map(|o| o.fault_buckets.len()).max()?];
    for o in outs {
        for (m, b) in merged.iter_mut().zip(&o.fault_buckets) {
            *m += b;
        }
    }
    let total: u64 = merged.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = (0.99 * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0;
    let i = merged.iter().position(|&c| {
        seen += c;
        seen >= rank
    })?;
    Some(FixedHistogram::bucket_floor_ns(i + 1))
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(plan) = plan(&args.workload, args.seed) else {
        eprintln!("perfbench: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let budget = args.seconds as f64;
    // Warm the reference kernel: its one-time allocations happen here,
    // not at a host-time-dependent point inside a repetition.
    calib::reference_call();

    // Untraced repetitions (and, with --trace 1, traced ones in
    // between) until the next would overrun the budget.
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let start = Instant::now();
    let mut peak_rss_mb = f64::NAN;
    loop {
        plain.push(run_rep(&plan, false));
        if plain.len() == 1 {
            // Later repetitions reuse the allocator's free lists in an
            // order that depends on how many ran; the first does not.
            peak_rss_mb = read_peak_rss_mb();
        }
        if args.trace && matches!(plan, Plan::Scenes(_)) {
            traced.push(run_rep(&plan, true));
        }
        let elapsed = start.elapsed().as_secs_f64();
        let per = elapsed / plain.len() as f64;
        let enough = if args.trace { 1 } else { MIN_REPS };
        if plain.len() >= enough && elapsed + per > budget {
            break;
        }
    }

    let mut v = Verdict::default();
    let reference = plain[0].sim.fingerprint();
    v.check(
        "untraced repetitions identical",
        plain.iter().all(|r| r.sim.fingerprint() == reference),
    );
    for r in &traced {
        v.check(
            "traced run identical to untraced",
            r.sim.fingerprint() == reference,
        );
        let (acc, b) = r.trace.expect("traced repetition carries its trace");
        v.check(
            "traced step loop fully attributed",
            acc.loop_ns == acc.queue_ns + b.total_ns() + acc.closure_ns,
        );
    }
    judge(&plain[0].sim, &mut v);
    // The library cross-check re-runs every scene once more, so only
    // the traced run, which checks rather than times, pays for it.
    if let (true, Plan::Scenes(cfgs)) = (args.trace, &plan) {
        let SimOut::Scenes(outs) = &plain[0].sim else {
            unreachable!("scene plans give scene outcomes")
        };
        for (cfg, o) in cfgs.iter().zip(outs) {
            let (what, same) = cross_check(cfg, o);
            v.check(&format!("library cross-check ({what})"), same);
        }
    }

    let factors = calibration(&plan, &plain);
    let traced_factors = calibration(&plan, &traced);
    let calibrated = |reps: &[Rep], f: &[f64], x: fn(&Rep) -> f64| {
        median(reps.iter().zip(f).map(|(r, f)| x(r) * f))
    };
    let wall = calibrated(&plain, &factors, |r| r.wall_s);
    let metrics = if args.trace {
        // Calibrated on both sides, so a slow stretch during one kind
        // of repetition does not read as tracing cost.
        let overhead = if traced.is_empty() {
            0.0
        } else {
            calibrated(&traced, &traced_factors, |r| r.wall_s) / wall - 1.0
        };
        layer_metrics(&plain, &traced, overhead)
    } else {
        vec![
            ("wall_s", wall, "s"),
            ("setup_s", calibrated(&plain, &factors, |r| r.setup_s), "s"),
            ("peak_rss_mb", peak_rss_mb, "MB"),
            ("ns_per_event", wall * 1e9 / plain[0].events as f64, "ns"),
        ]
    };
    v.check(
        "metrics finite",
        metrics.iter().all(|(_, x, _)| x.is_finite()),
    );

    // Human-readable report.
    println!(
        "perfbench workload={} seed={} trace={} reps={} traced_reps={} events={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        plain.len(),
        traced.len(),
        plain[0].events
    );
    let sims = sim_metrics(&plan, &plain[0].sim);
    for (name, value, unit) in &sims {
        println!("  sim   {name:<24} {value:>14.6} {unit}");
    }
    println!(
        "  check failed_frac {} / {} = {}",
        v.failed,
        v.attempted,
        v.failed as f64 / v.attempted.max(1) as f64
    );
    for p in &v.problems {
        println!("  FAIL  {p}");
    }

    println!(
        "  host  raw medians over repetitions: wall_s {:.6} s, setup_s {:.6} s; calibration factor {:.4}",
        median(plain.iter().map(|r| r.wall_s)),
        median(plain.iter().map(|r| r.setup_s)),
        median(factors.iter().copied())
    );
    for (name, value, unit) in &metrics {
        println!("  host  {name:<34} {value:>16.6} {unit}");
    }

    let correct = v.failed == 0;
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        v.attempted, v.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { -1.0 };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Re-run the library scenario a scene mirrors and compare simulated
/// outcomes exactly. Returns the scenario name and whether they match.
fn cross_check(cfg: &SceneCfg, o: &Outcome) -> (&'static str, bool) {
    let mig0 = |m: &agile_migration::MigrationMetrics| {
        let mut reg = agile_trace::MetricsRegistry::new();
        m.publish_to(&mut reg, "mig0.");
        reg.to_json()
    };
    match cfg {
        SceneCfg::Ycsb(c) => {
            let r = ycsb::run(c);
            let same = r.events_executed == o.events
                && mig0(&r.metrics) == o.mig_json
                && Some(r.avg_during_migration.to_bits()) == o.app_ops_per_s.map(f64::to_bits);
            ("ycsb::run", same)
        }
        SceneCfg::SingleVm(c) => {
            // `single_vm::run` does not return its event count; its
            // phase-timeline export carries every migration counter and
            // the phase log.
            let r = single_vm::run(c);
            let same =
                mig0(&r.metrics) == o.mig_json && Some(r.timeline.to_json()) == o.timeline_json;
            ("single_vm::run", same)
        }
        SceneCfg::Scaleout(c) => {
            let r = scaleout::run(c);
            let same = o.clone.as_ref().is_some_and(|x| {
                r.events_executed == o.events
                    && r.spawned == x.spawned
                    && r.ready == x.ready
                    && r.torn_down == x.torn_down
                    && r.ttfps_mean_ns == x.ttfps_mean_ns
                    && r.all_ready_ns == x.all_ready_ns
                    && r.fabric_bytes == x.fabric_bytes
                    && r.cow_breaks == x.cow_breaks
                    && r.hydrated_pages == x.hydrated_pages
                    && r.bystander_ops == x.bystander_ops
                    && r.lost_reads == o.lost_reads
            });
            ("scaleout::run", same)
        }
    }
}

/// Per-layer metrics from the traced repetition whose step loop took
/// the median time, so that its parts add up to its own total.
fn layer_metrics(
    plain: &[Rep],
    traced: &[Rep],
    overhead: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let mut acc = StepAcc::default();
    let mut b = Buckets::default();
    let mut counts = Counts::default();
    if !traced.is_empty() {
        let mut order: Vec<usize> = (0..traced.len()).collect();
        order.sort_by(|&x, &y| traced[x].wall_s.total_cmp(&traced[y].wall_s));
        let pick = &traced[order[order.len() / 2]];
        (acc, b) = pick.trace.expect("traced repetition carries its trace");
    }
    let (mut cow_breaks, mut hydrated_pages) = (0, 0);
    if let SimOut::Scenes(outs) = &plain[0].sim {
        for o in outs {
            counts.add(&o.counts);
            if let Some(c) = &o.clone {
                cow_breaks += c.cow_breaks;
                hydrated_pages += c.hydrated_pages;
            }
        }
    }
    // The datacenter's shard figures come from its median repetition.
    let shard = {
        let mut walls: Vec<&Rep> = plain.iter().filter(|r| r.shard.is_some()).collect();
        walls.sort_by(|x, y| x.wall_s.total_cmp(&y.wall_s));
        walls.get(walls.len() / 2).and_then(|r| r.shard)
    };
    let events = if traced.is_empty() {
        plain[0].events
    } else {
        acc.events
    };
    let ratio = |a: u64, d: u64| if d == 0 { 0.0 } else { a as f64 / d as f64 };

    let mut m = vec![
        ("sim_core.events", events as f64, "count"),
        ("sim_core.step_loop_s", acc.loop_ns as f64 / 1e9, "s"),
        ("sim_core.queue_s", acc.queue_ns as f64 / 1e9, "s"),
        (
            "sim_core.queue_ns_per_event",
            ratio(acc.queue_ns, acc.fast_events),
            "ns",
        ),
        ("sim_core.pending_peak", acc.pending_peak as f64, "count"),
    ];
    for (i, (calls, ns)) in BUCKETS.iter().enumerate() {
        m.push((calls, b.calls[i] as f64, "count"));
        m.push((ns, b.ns[i] as f64, "ns"));
    }
    m.extend([
        (
            "netdrv.idle_poll_frac",
            ratio(counts.net_idle_polls, counts.net_polls),
            "ratio",
        ),
        ("netdrv.payloads_peak", acc.payloads_peak as f64, "count"),
        ("guest.ops", counts.guest_ops as f64, "count"),
        ("blockdev.reads", counts.blockdev_reads as f64, "count"),
        ("blockdev.writes", counts.blockdev_writes as f64, "count"),
        ("memory.major_faults", counts.major_faults as f64, "count"),
        (
            "memory.swap_out_writes",
            counts.swap_out_writes as f64,
            "count",
        ),
        ("memory.clean_drops", counts.clean_drops as f64, "count"),
        ("closure.calls", acc.closure_calls as f64, "count"),
        ("closure.ns", acc.closure_ns as f64, "ns"),
        ("vmd.server_pages", counts.vmd_server_pages as f64, "count"),
        ("vmd.stale_msgs", counts.vmd_stale_msgs as f64, "count"),
        ("vmd.lost_slots", counts.vmd_lost_slots as f64, "count"),
        ("migration.pages_full", counts.pages_full as f64, "count"),
        (
            "migration.pages_offset",
            counts.pages_offset as f64,
            "count",
        ),
        ("migration.retransmits", counts.retransmits as f64, "count"),
        (
            "migration.dest_faults_from_swap",
            counts.dest_faults_from_swap as f64,
            "count",
        ),
        (
            "migration.dest_faults_from_source",
            counts.dest_faults_from_source as f64,
            "count",
        ),
        ("clone.cow_breaks", cow_breaks as f64, "count"),
        ("clone.hydrated_pages", hydrated_pages as f64, "count"),
        (
            "shard.epochs",
            shard.map_or(0.0, |_| match &plain[0].sim {
                SimOut::Datacenter { epochs, .. } => *epochs as f64,
                SimOut::Scenes(_) => 0.0,
            }),
            "count",
        ),
        ("shard.busy_s", shard.map_or(0.0, |s| s.busy_secs), "s"),
        (
            "shard.critical_path_s",
            shard.map_or(0.0, |s| s.critical_path_secs),
            "s",
        ),
        (
            "shard.available_parallelism",
            shard.map_or(0.0, |s| s.available_parallelism),
            "ratio",
        ),
        (
            "shard.overhead_s",
            shard.map_or(0.0, |s| s.wall_secs - s.critical_path_secs),
            "s",
        ),
        ("bench.trace_overhead_frac", overhead, "ratio"),
    ]);
    m
}

/// Per-repetition factors from host seconds to calibrated ones. Scene
/// repetitions interleave their reference calls finely and each gets its
/// own factor. A datacenter repetition's calls only bracket it, and a
/// bracket says little about the second after it, so those repetitions
/// share one factor pooled over the whole run, which still follows the
/// slow stretches that outlast a repetition.
fn calibration(plan: &Plan, reps: &[Rep]) -> Vec<f64> {
    let factor = |(secs, calls): (f64, u64)| calib::REF_CALL_S * calls as f64 / secs;
    match plan {
        Plan::Scenes(_) => reps.iter().map(|r| factor(r.cal)).collect(),
        Plan::Datacenter(_) => {
            let pooled = reps
                .iter()
                .fold((0.0, 0), |(s, c), r| (s + r.cal.0, c + r.cal.1));
            vec![factor(pooled); reps.len()]
        }
    }
}

fn median(xs: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = xs.collect();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Resident-memory high-water mark of this process (`VmHWM`), MB.
fn read_peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let num = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a number: {value}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(num()?),
                "--seconds" => seconds = Some(num()?),
                "--trace" => {
                    trace = Some(match num()? {
                        0 => false,
                        1 => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?.max(1),
            trace: trace.unwrap_or(false),
        })
    }
}
