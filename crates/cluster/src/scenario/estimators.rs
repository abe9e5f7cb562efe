//! WSS-estimator accuracy A/B: swap-I/O vs simulated-PML vs ground truth.
//!
//! The paper's iostat estimator (§IV-D) only sees a working set once it
//! *swaps* — a guest whose resident demand grows while still under its
//! reservation reads as zero swap rate, so the α/β/τ controller keeps
//! shrinking toward the floor and the watermark scheduler's WSS samples
//! stay flat until the guest is already thrashing. This scenario runs
//! the *same* workload twice, once per estimator, with the ground-truth
//! epoch oracle armed in both arms:
//!
//! * Three YCSB guests packed on one host ramp their active window from
//!   well under to well over the reservation floor over two minutes
//!   (plus a small diurnal wobble), with **no preload**: the ramp is
//!   demand-filled by minor faults, so for the first `no_swap_secs`
//!   there is genuinely zero swap traffic to observe.
//! * The **swap-I/O arm** tracks reservations with the legacy monitor +
//!   controller; [`crate::wssctl::arm_oracle`] additionally arms the
//!   memory image's epoch tracker so every tick also logs the exact
//!   distinct-pages-touched truth without perturbing the arithmetic.
//! * The **PML arm** tracks the same guests with the dirty-epoch
//!   estimator (512-entry log, overflow → full-scan fallback — at this
//!   scale the overflow path *is* the common path, as on real hardware).
//!
//! Per arm the run reports: per-epoch |estimate − truth| error (mean
//! and log₂-bucket quantiles, split at the no-swap boundary), the first
//! time the estimator *detects* working-set growth (PML: estimate
//! crosses the detect threshold; swap-I/O: rate first exceeds τ), the
//! reservation sizing that resulted, migration-selection differences,
//! and the downstream fault/throughput cost. Equal seeds produce
//! byte-identical reports at any sharded worker count; `BENCH_4.json`
//! pins the headline (PML detects the ramp at least one epoch before
//! swap-I/O, with strictly lower error on the no-swap phase).

use agile_migration::Technique;
use agile_sim_core::{FixedHistogram, SimDuration, SimTime, Simulation, GIB, MIB};
use agile_vm::VmConfig;
use agile_workload::driver::{Binding, Knob};
use agile_workload::{Signal, WorkloadDriver, YcsbParams};
use agile_wss::ControllerParams;

use crate::build::{start_all_workloads, ClusterBuilder, SwapKind};
use crate::config::{ClusterConfig, WssEstimatorKind};
use crate::scenario::{paper_source_config, RedisLayout, Scenario};
use crate::sched::{self, ManagedHost, SchedConfig, SchedCounters};
use crate::wlctl;
use crate::world::{WorkloadKind, World, WssCounters};
use crate::wssctl;

/// One estimator-accuracy run. Everything except `estimator` (and
/// `trace`) must match across the two arms of an A/B.
#[derive(Clone, Debug)]
pub struct EstimatorsConfig {
    /// Which estimator tracks the guests (the oracle runs either way).
    pub estimator: WssEstimatorKind,
    /// Divide every byte quantity by this (1 = paper scale).
    pub scale: u64,
    /// End of the guaranteed-no-swap phase, in seconds: the active ramp
    /// stays under the reservation floor until after this point, so the
    /// swap-I/O estimator has nothing to see. MAE is split here.
    pub no_swap_secs: u64,
    /// Detection threshold at paper scale (divided by `scale`): the
    /// first estimate/rate signal at or above this counts as detection.
    pub detect_bytes: u64,
    /// Fixed run deadline in seconds.
    pub deadline_secs: u64,
    /// Master seed.
    pub seed: u64,
    /// Keep the JSONL trace export in the result (the tracer itself is
    /// always on — the accuracy analysis reads it).
    pub trace: bool,
}

impl Default for EstimatorsConfig {
    fn default() -> Self {
        EstimatorsConfig {
            estimator: WssEstimatorKind::SwapIo,
            scale: 1,
            no_swap_secs: 90,
            detect_bytes: 512 * MIB,
            deadline_secs: 240,
            seed: 42,
            trace: false,
        }
    }
}

/// Everything an estimator run reports. With equal seeds two runs
/// produce byte-identical `report`, `trace_jsonl`, and `metrics_json`
/// at any worker count.
#[derive(Clone, Debug, PartialEq)]
pub struct EstimatorsResult {
    /// The deterministic report.
    pub report: String,
    /// `"swap_io"` or `"pml"` — the arm that ran.
    pub estimator: &'static str,
    /// Mean |estimate − truth| over epochs ending before
    /// `no_swap_secs` (the phase where swap-I/O is blind), in bytes.
    pub mae_no_swap_bytes: u64,
    /// Mean |estimate − truth| over the whole run, in bytes.
    pub mae_total_bytes: u64,
    /// First detection of working-set growth (ns); `u64::MAX` if never.
    /// PML: first estimate ≥ the detect threshold. Swap-I/O: first
    /// sample whose rate exceeds the controller's τ.
    pub detect_ns: u64,
    /// Estimate-vs-truth samples inside the no-swap window.
    pub epochs_no_swap: u64,
    /// Estimate-vs-truth samples over the whole run.
    pub epochs_total: u64,
    /// Guest major faults summed over the tracked VMs (thrashing cost).
    pub major_faults: u64,
    /// Guest minor faults summed over the tracked VMs.
    pub minor_faults: u64,
    /// Completed guest operations summed over the tracked VMs.
    pub completions: u64,
    /// Time-weighted mean reservation across the tracked VMs, in bytes.
    pub reservation_avg_bytes: u64,
    /// Migrations the watermark scheduler started.
    pub migrations: u64,
    /// Start of the first migration (ns); `u64::MAX` if none fired.
    pub first_migration_ns: u64,
    /// Scheduler counters.
    pub counters: SchedCounters,
    /// Estimator-plumbing counters (samples, epoch drains, overflows).
    pub wss_counters: WssCounters,
    /// Metrics-registry JSON export.
    pub metrics_json: String,
    /// Total DES events executed (the determinism fingerprint).
    pub events_executed: u64,
    /// JSONL event trace (`Some` only when `cfg.trace` was set).
    pub trace_jsonl: Option<String>,
}

/// Run the full A/B (both arms sequentially, same seed) and render the
/// comparison block `BENCH_4.json` is generated from.
pub fn ab_summary(swap: &EstimatorsResult, pml: &EstimatorsResult) -> String {
    use std::fmt::Write;
    assert_eq!(swap.estimator, "swap_io");
    assert_eq!(pml.estimator, "pml");
    let mut s = String::new();
    let _ = writeln!(s, "# estimator A/B (pml vs swap_io)");
    let _ = writeln!(
        s,
        "mae_no_swap_bytes: pml={} swap_io={} delta={}",
        pml.mae_no_swap_bytes,
        swap.mae_no_swap_bytes,
        pml.mae_no_swap_bytes as i128 - swap.mae_no_swap_bytes as i128,
    );
    let _ = writeln!(
        s,
        "mae_total_bytes: pml={} swap_io={} delta={}",
        pml.mae_total_bytes,
        swap.mae_total_bytes,
        pml.mae_total_bytes as i128 - swap.mae_total_bytes as i128,
    );
    let _ = writeln!(
        s,
        "detect_ns: pml={} swap_io={} delta={}",
        pml.detect_ns,
        swap.detect_ns,
        pml.detect_ns as i128 - swap.detect_ns as i128,
    );
    let _ = writeln!(
        s,
        "migrations: pml={} swap_io={} first_ns: pml={} swap_io={}",
        pml.migrations, swap.migrations, pml.first_migration_ns, swap.first_migration_ns,
    );
    let _ = writeln!(
        s,
        "major_faults: pml={} swap_io={}",
        pml.major_faults, swap.major_faults,
    );
    let _ = writeln!(
        s,
        "completions: pml={} swap_io={}",
        pml.completions, swap.completions,
    );
    let _ = writeln!(
        s,
        "reservation_avg_bytes: pml={} swap_io={}",
        pml.reservation_avg_bytes, swap.reservation_avg_bytes,
    );
    s
}

impl Scenario for EstimatorsConfig {
    /// The tracked VMs and the managed hosts.
    type Meta = (Vec<usize>, Vec<ManagedHost>);
    type Result = EstimatorsResult;

    /// Build the world: one packed host, one spare destination, three
    /// ramping YCSB guests, estimator-tracked reservations, the ground-truth
    /// oracle, and the watermark scheduler.
    fn setup(&self) -> (Simulation<World>, Self::Meta) {
        let sc = self.scale.max(1);
        let host_mem = 10240 * MIB / sc;
        let host_os = 256 * MIB / sc;
        let vm_mem = 4096 * MIB / sc;
        let guest_os = 256 * MIB / sc;
        let dataset_bytes = 2560 * MIB / sc;
        let resv_init = 2304 * MIB / sc;
        // The operator floor: the α-shrink converges here while the rate
        // reads zero, and the no-swap phase is exactly the ramp staying
        // under it (minus guest-OS overhead).
        let resv_floor = 2048 * MIB / sc;
        // Active window: ramp from idle to just under the dataset over
        // [10 s, 130 s] (then hold), plus a small diurnal wobble. The ramp
        // crosses the reservation floor around t ≈ 100 s > `no_swap_secs`.
        let active_lo = 256 * MIB / sc;
        let active_hi = 2304 * MIB / sc;
        let diurnal_amp = 128 * MIB / sc;
        // Closed loop: 4 threads × ~0.25 ms think sweeps the active window
        // inside one 4 s PML epoch (the estimator measures what the guest
        // *touches* — too slow a loop and per-epoch distinct pages read the
        // op rate, not the window, and the sized reservation undercuts the
        // demand it is supposed to admit).
        let think_base_ns: u64 = 250_000;

        let cluster_cfg = ClusterConfig {
            seed: self.seed,
            wss_estimator: self.estimator,
            pml_epoch: SimDuration::from_secs(4),
            ..ClusterConfig::default()
        };
        let page = cluster_cfg.page_size;
        let mut b = ClusterBuilder::new(cluster_cfg);

        let packed = b.add_host("host0", host_mem, host_os, false);
        let spare = b.add_host("host1", host_mem, host_os, false);
        let client_host = b.add_host("client", 4 * GIB / sc, host_os, false);
        let im = b.add_host("intermediate", 16 * GIB / sc, host_os, false);
        b.add_vmd_server(im, 12 * GIB / sc, 0);
        b.ensure_vmd_client(packed);
        b.ensure_vmd_client(spare);

        // Three identical guests, demand-filled (no preload): until the
        // ramp outgrows the floor nothing ever reaches the swap device.
        let mut vms = Vec::new();
        for _ in 0..3usize {
            let vm = b.add_vm(
                packed,
                VmConfig {
                    mem_bytes: vm_mem,
                    page_size: page,
                    vcpus: 2,
                    reservation_bytes: resv_init,
                    guest_os_bytes: guest_os,
                },
                SwapKind::PerVmVmd,
            );
            let model = RedisLayout::alloc(&mut b, vm, dataset_bytes).ycsb(YcsbParams {
                client_threads: 4,
                ..YcsbParams::default()
            });
            b.attach_workload(vm, client_host, WorkloadKind::Ycsb(model));
            b.enable_os_background(vm);
            vms.push(vm);
        }

        let mut sim = b.build();
        // The tracer is always on here: the accuracy analysis folds the
        // `wss_estimate`/`wss_sample` stream. `self.trace` only gates whether
        // the JSONL export is kept in the result.
        sim.state_mut().trace = agile_trace::Tracer::with_capacity(1 << 18);

        let mut bindings = Vec::new();
        for (i, &vm) in vms.iter().enumerate() {
            let phase = SimDuration::from_secs(7 * i as u64);
            let active = Signal::ramp(
                SimTime::from_secs(10),
                SimDuration::from_secs(2),
                60,
                active_lo as f64,
                active_hi as f64,
            )
            .sum(Signal::diurnal(
                SimDuration::from_secs(60),
                diurnal_amp as f64,
                phase,
            ));
            bindings.push(Binding {
                vm,
                knob: Knob::ActiveBytes,
                signal: active.clamp((128 * MIB / sc) as f64, dataset_bytes as f64),
            });
            bindings.push(Binding {
                vm,
                knob: Knob::ThinkNanos {
                    base_ns: think_base_ns,
                },
                signal: Signal::constant(1.0),
            });
        }
        wlctl::arm_driver(
            &mut sim,
            WorkloadDriver::new(bindings),
            SimDuration::from_secs(2),
        );
        start_all_workloads(&mut sim, SimTime::from_secs(1));

        // Estimator-tracked reservations (the arm under test), plus the
        // ground-truth oracle on the swap-I/O arm (the PML arm's tracker is
        // already armed by `enable_tracking`).
        let params = ControllerParams::paper(resv_floor, vm_mem);
        for &vm in &vms {
            wssctl::enable_tracking(&mut sim, vm, params, SimTime::from_secs(2));
            if self.estimator == WssEstimatorKind::SwapIo {
                wssctl::arm_oracle(&mut sim, vm, wssctl::PML_LOG_CAP);
            }
        }

        let sched_cfg = SchedConfig {
            max_in_flight: 1,
            src_cfg: paper_source_config(Technique::Agile, sc),
            verify_content: true,
        };
        let managed = sched::arm_scheduler(&mut sim, &[packed, spare], (0.55, 0.72), sched_cfg);

        (sim, (vms, managed))
    }

    fn deadline(&self) -> SimTime {
        SimTime::from_secs(self.deadline_secs)
    }

    /// Runs to the deadline.
    fn done(_sim: &Simulation<World>, _meta: &Self::Meta) -> bool {
        false
    }

    /// Disarm everything, fold the estimate-vs-truth stream, and assemble
    /// the deterministic result.
    fn finish(&self, mut sim: Simulation<World>, (vms, managed): Self::Meta) -> EstimatorsResult {
        sched::disarm_scheduler(&mut sim);
        wlctl::disarm_driver(&mut sim);

        let sc = self.scale.max(1);
        let detect_bytes = self.detect_bytes / sc;
        let tau_kbps = ControllerParams::paper(0, u64::MAX).tau_kbps;
        let no_swap_ns = SimTime::from_secs(self.no_swap_secs).as_nanos();
        let deadline = SimTime::from_secs(self.deadline_secs);
        let events_executed = sim.events_executed();
        let w = sim.state();
        let s = w.sched.as_ref().expect("scheduler armed");
        let estimator = match self.estimator {
            WssEstimatorKind::SwapIo => "swap_io",
            WssEstimatorKind::Pml => "pml",
        };

        // Fold the trace: per-epoch |estimate − truth| (histograms observe
        // error *bytes* through the nanosecond-keyed log₂ buckets — same
        // data-independent layout, quantiles read as byte ceilings) and the
        // arm's detection time.
        let mut err_hist_no_swap = FixedHistogram::new();
        let mut err_hist_total = FixedHistogram::new();
        let (mut sum_no_swap, mut n_no_swap) = (0u128, 0u64);
        let (mut sum_total, mut n_total) = (0u128, 0u64);
        let mut detect_ns = u64::MAX;
        for (t, ev) in w.trace.events() {
            match *ev {
                agile_trace::TraceEvent::WssEstimate {
                    est_bytes,
                    truth_bytes,
                    ..
                } => {
                    let err = est_bytes.abs_diff(truth_bytes);
                    err_hist_total.observe(SimDuration::from_nanos(err));
                    sum_total += err as u128;
                    n_total += 1;
                    if t.as_nanos() < no_swap_ns {
                        err_hist_no_swap.observe(SimDuration::from_nanos(err));
                        sum_no_swap += err as u128;
                        n_no_swap += 1;
                    }
                    if self.estimator == WssEstimatorKind::Pml
                        && detect_ns == u64::MAX
                        && est_bytes >= detect_bytes
                    {
                        detect_ns = t.as_nanos();
                    }
                }
                agile_trace::TraceEvent::WssSample { rate_kbps, .. }
                    if self.estimator == WssEstimatorKind::SwapIo
                        && detect_ns == u64::MAX
                        && rate_kbps > tau_kbps =>
                {
                    detect_ns = t.as_nanos();
                }
                _ => {}
            }
        }
        let mae_no_swap_bytes = (sum_no_swap / u128::from(n_no_swap.max(1))) as u64;
        let mae_total_bytes = (sum_total / u128::from(n_total.max(1))) as u64;

        // Time-weighted mean reservation across the tracked VMs (integer
        // arithmetic: Σ bytes·ns / Σ ns, piecewise-constant between samples).
        let mut resv_weighted = 0u128;
        let mut resv_span = 0u128;
        let (mut major_faults, mut minor_faults, mut completions) = (0u64, 0u64, 0u64);
        for &vm in &vms {
            let slot = &w.vms[vm];
            let c = slot.vm.memory().counters();
            major_faults += c.major_faults;
            minor_faults += c.minor_faults;
            completions += slot.meter.total();
            let pts = slot.reservation_series.points();
            for (i, &(t, v)) in pts.iter().enumerate() {
                let end = pts
                    .get(i + 1)
                    .map(|&(t2, _)| t2)
                    .unwrap_or(deadline)
                    .min(deadline);
                if end > t {
                    let span = (end.as_nanos() - t.as_nanos()) as u128;
                    resv_weighted += (v as u64) as u128 * span;
                    resv_span += span;
                }
            }
        }
        let reservation_avg_bytes = (resv_weighted / resv_span.max(1)) as u64;

        let migs: Vec<(usize, usize, usize, u64)> = w
            .migrations
            .iter()
            .map(|m| {
                (
                    m.vm,
                    m.source_host,
                    m.dest_host,
                    m.src.metrics().started_at.as_nanos(),
                )
            })
            .collect();
        let first_migration_ns = migs.iter().map(|&(_, _, _, t)| t).min().unwrap_or(u64::MAX);
        let metrics_json = crate::report::metrics_registry(w).to_json();

        let mut report = String::new();
        {
            use std::fmt::Write;
            let _ = writeln!(report, "# wss estimator accuracy report");
            let _ = writeln!(
                report,
                "seed={} scale={} estimator={} no_swap_secs={} detect_bytes={} deadline={}",
                self.seed, sc, estimator, self.no_swap_secs, detect_bytes, self.deadline_secs,
            );
            sched::write_watermarks(&mut report, &managed);
            let _ = writeln!(
                report,
                "accuracy: epochs_no_swap={} mae_no_swap_bytes={} epochs_total={} mae_total_bytes={}",
                n_no_swap, mae_no_swap_bytes, n_total, mae_total_bytes,
            );
            let _ = writeln!(
                report,
                "error_quantiles_no_swap: p50<={} p90<={} max={}",
                err_hist_no_swap.quantile_ceil_ns(0.50),
                err_hist_no_swap.quantile_ceil_ns(0.90),
                err_hist_no_swap.max_ns(),
            );
            let _ = writeln!(
                report,
                "error_quantiles_total: p50<={} p90<={} max={}",
                err_hist_total.quantile_ceil_ns(0.50),
                err_hist_total.quantile_ceil_ns(0.90),
                err_hist_total.max_ns(),
            );
            let _ = writeln!(report, "detect_ns={detect_ns}");
            let _ = writeln!(
                report,
                "reservations: avg_bytes={} samples={} epoch_drains={} pml_overflows={}",
                reservation_avg_bytes,
                w.wss_counters.samples,
                w.wss_counters.epoch_drains,
                w.wss_counters.pml_overflows,
            );
            let _ = writeln!(
                report,
                "guest: major_faults={major_faults} minor_faults={minor_faults} \
                 completions={completions}",
            );
            let _ = writeln!(report, "migrations:");
            for (i, &(vm, src, dest, start_ns)) in migs.iter().enumerate() {
                let _ = writeln!(
                    report,
                    "  mig={i} vm={vm} src={src} dest={dest} start_ns={start_ns}"
                );
            }
            let c = s.counters;
            let _ = writeln!(
                report,
                "counters: started={} queued={} deferred_no_dest={} completed={}",
                c.started, c.queued, c.deferred_no_dest, c.completed,
            );
            let _ = writeln!(
                report,
                "totals: migrations={} trace_dropped={} events_executed={}",
                migs.len(),
                w.trace.dropped(),
                events_executed,
            );
        }

        EstimatorsResult {
            report,
            estimator,
            mae_no_swap_bytes,
            mae_total_bytes,
            detect_ns,
            epochs_no_swap: n_no_swap,
            epochs_total: n_total,
            major_faults,
            minor_faults,
            completions,
            reservation_avg_bytes,
            migrations: migs.len() as u64,
            first_migration_ns,
            counters: s.counters,
            wss_counters: w.wss_counters,
            metrics_json,
            events_executed,
            trace_jsonl: self.trace.then(|| w.trace.to_jsonl()),
        }
    }
}
