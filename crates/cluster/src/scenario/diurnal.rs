//! Diurnal/flash-crowd scenario: cycle-predictive vs naive migration.
//!
//! Eight YCSB guests packed on two of four working hosts follow a shared
//! diurnal load cycle (reservation, active fraction, and — for the
//! flash-crowd pair on each host — client think time all driven from the
//! [`agile_workload::Signal`] DSL through the [`crate::wlctl`] driver).
//! The diurnal swing alone stays under every high watermark; a flash
//! crowd on two guests per packed host then pushes the host over its
//! trigger. The naive scheduler migrates at the breach — near the flash
//! peak, when the guests' resident sets are largest. With the
//! [`crate::predict`] overlay armed, the same selections defer to the
//! predicted diurnal trough, after the reservation shrink has evicted
//! the cold tail to the VMD pool: Agile then ships those pages as
//! 16-byte swap offsets instead of full frames, and the suspend-time
//! stream backlog behind the handoff is smaller — strictly fewer bytes
//! moved *and* strictly lower downtime on the same seed, which
//! `BENCH_3.json` and the root `diurnal_predict` test pin.
//!
//! Both arms run to a fixed deadline (the load is periodic, so there is
//! no quiescent convergence point); equal seeds produce byte-identical
//! reports at any sharded worker count.

use agile_migration::Technique;
use agile_sim_core::{SimDuration, SimTime, Simulation, GIB, MIB};
use agile_vm::VmConfig;
use agile_workload::driver::{Binding, Knob};
use agile_workload::{Signal, WorkloadDriver, YcsbParams};

use crate::build::{start_all_workloads, ClusterBuilder, SwapKind};
use crate::config::ClusterConfig;
use crate::predict::{PredictConfig, PredictCounters};
use crate::scenario::{paper_source_config, RedisLayout, Scenario};
use crate::sched::{self, ManagedHost, SchedConfig, SchedCounters};
use crate::wlctl;
use crate::world::{WorkloadKind, World};

/// One diurnal run (naive when `predict` is false, trough-scheduled when
/// true — everything else identical).
#[derive(Clone, Debug)]
pub struct DiurnalConfig {
    /// Arm the cycle predictor over the watermark scheduler.
    pub predict: bool,
    /// Divide every byte quantity by this (1 = paper scale).
    pub scale: u64,
    /// Diurnal period in seconds (must be an exact multiple of the 5 s
    /// [`sched::TICK_PERIOD`] for the detector's folded bins to line up).
    pub period_secs: u64,
    /// Flash-crowd arrival on the first packed host, in seconds.
    pub flash1_secs: u64,
    /// Flash-crowd arrival on the second packed host, in seconds.
    pub flash2_secs: u64,
    /// Fixed run deadline in seconds.
    pub deadline_secs: u64,
    /// Master seed.
    pub seed: u64,
    /// Enable the event tracer (`sched_defer` lines appear in the JSONL
    /// export when the predictor defers).
    pub trace: bool,
}

impl Default for DiurnalConfig {
    fn default() -> Self {
        DiurnalConfig {
            predict: false,
            scale: 1,
            period_secs: 60,
            flash1_secs: 250,
            flash2_secs: 350,
            deadline_secs: 480,
            seed: 42,
            trace: false,
        }
    }
}

/// One migration observed by the run, with the cost terms the
/// naive-vs-predicted comparison is about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DiurnalMig {
    /// The migrated VM.
    pub vm: usize,
    /// Source host.
    pub src: usize,
    /// Destination host.
    pub dest: usize,
    /// When the migration started (ns).
    pub start_ns: u64,
    /// When it finalized (ns); `u64::MAX` if it never did.
    pub end_ns: u64,
    /// Bytes on the migration channels.
    pub bytes: u64,
    /// Full page frames shipped (swapped pages travel as offsets).
    pub pages_full: u64,
    /// Suspend-to-resume blackout (ns); `u64::MAX` if never suspended.
    pub downtime_ns: u64,
    /// Whether it finalized before the deadline.
    pub finished: bool,
}

/// Everything a diurnal run reports. With equal seeds two runs produce
/// byte-identical `report`, `trace_jsonl`, and `metrics_json` at any
/// worker count.
#[derive(Clone, Debug, PartialEq)]
pub struct DiurnalResult {
    /// The deterministic report (watermarks, decisions, migrations,
    /// totals, predictor counters).
    pub report: String,
    /// Per-migration records, in start order.
    pub migrations: Vec<DiurnalMig>,
    /// Sum of migration-channel bytes across migrations.
    pub total_bytes: u64,
    /// Sum of full page frames shipped across migrations.
    pub total_pages_full: u64,
    /// p99 of per-migration downtime (ns); `u64::MAX` when no migration
    /// ever suspended.
    pub downtime_p99_ns: u64,
    /// Scheduler counters.
    pub counters: SchedCounters,
    /// Predictor counters (`Some` iff `cfg.predict`).
    pub predict: Option<PredictCounters>,
    /// Metrics-registry JSON export.
    pub metrics_json: String,
    /// Total DES events executed (the determinism fingerprint).
    pub events_executed: u64,
    /// JSONL event trace (`Some` only when `cfg.trace` was set).
    pub trace_jsonl: Option<String>,
}

/// Percentile over an unsorted sample set (nearest-rank, 0 < p ≤ 1).
fn percentile(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return u64::MAX;
    }
    let mut s = samples.to_vec();
    s.sort_unstable();
    let rank = ((p * s.len() as f64).ceil() as usize).max(1);
    s[rank.min(s.len()) - 1]
}

impl Scenario for DiurnalConfig {
    /// The managed hosts.
    type Meta = Vec<ManagedHost>;
    type Result = DiurnalResult;

    /// Build the world: hosts, VMD pool, packed YCSB guests, signal-driven
    /// workload knobs, watermark scheduler, and (optionally) the predictor.
    fn setup(&self) -> (Simulation<World>, Self::Meta) {
        let sc = self.scale.max(1);
        let host_mem = 24 * GIB / sc;
        let host_os = 300 * MIB / sc;
        let vm_mem = 8 * GIB / sc;
        let guest_os = 300 * MIB / sc;
        let dataset_bytes = 6 * GIB / sc;
        // Reservation signal: mid ± amp diurnal swing. Four guests per
        // packed host peak at 4 × (mid + amp) = 16 GiB — under the 0.75
        // high watermark (~17.8 GiB) — so only a flash crowd breaches.
        let resv_mid = 3328 * MIB / sc;
        let resv_amp = 768 * MIB / sc;
        let flash_peak = 3 * GIB / sc;
        // Decay fast enough that the residual is gone by the next diurnal
        // trough: the deferred reservation then undercuts the resident set
        // and the cold tail spills to the VMD pool before the migration
        // fires.
        let flash_decay = SimDuration::from_secs(15);
        // Active window tracks the reservation shape minus the OS/index
        // overhead, so the guest actually touches (and re-faults) what the
        // reservation admits.
        let active_mid = 2560 * MIB / sc;
        let think_base_ns: u64 = 4_000_000;
        let period = SimDuration::from_secs(self.period_secs);

        let cluster_cfg = ClusterConfig {
            seed: self.seed,
            ..ClusterConfig::default()
        };
        let page = cluster_cfg.page_size;
        let mut b = ClusterBuilder::new(cluster_cfg);

        let working: Vec<usize> = (0..4)
            .map(|i| b.add_host(&format!("host{i}"), host_mem, host_os, false))
            .collect();
        let client_host = b.add_host("client", 16 * GIB / sc, host_os, false);
        for i in 0..2 {
            let im = b.add_host(&format!("intermediate{i}"), 48 * GIB / sc, host_os, false);
            b.add_vmd_server(im, 40 * GIB / sc, 0);
        }
        for &h in &working {
            b.ensure_vmd_client(h);
        }

        // Eight guests, four per packed host, each with a YCSB/Redis-style
        // dataset and a uniform-prefix key mix (the Zipfian resize-
        // determinism audit lives in the workload crate's own tests).
        let mut vms = Vec::new();
        for i in 0..8usize {
            let host = working[i / 4];
            let vm = b.add_vm(
                host,
                VmConfig {
                    mem_bytes: vm_mem,
                    page_size: page,
                    vcpus: 2,
                    reservation_bytes: resv_mid,
                    guest_os_bytes: guest_os,
                },
                SwapKind::PerVmVmd,
            );
            let model = RedisLayout::alloc(&mut b, vm, dataset_bytes).ycsb(YcsbParams {
                client_threads: 4,
                ..YcsbParams::default()
            });
            b.attach_workload(vm, client_host, WorkloadKind::Ycsb(model));
            b.preload_pages(vm, 0, (vm_mem / page) as u32);
            vms.push(vm);
        }

        let mut sim = b.build();
        if self.trace {
            sim.state_mut().trace = agile_trace::Tracer::with_capacity(1 << 17);
        }

        // The temporal workload: every guest's reservation and active
        // fraction follow the host's diurnal phase; two guests per packed
        // host additionally catch a flash crowd (reservation spike + think
        // collapse), and one guest per host remaps its working-set window
        // on a slow phase-change cycle.
        let stride = (dataset_bytes / 1024 / 8).max(1);
        let mut bindings = Vec::new();
        for (i, &vm) in vms.iter().enumerate() {
            let host_idx = i / 4;
            let phase = SimDuration::from_secs(15 * host_idx as u64);
            let arrival = SimTime::from_secs(if host_idx == 0 {
                self.flash1_secs
            } else {
                self.flash2_secs
            });
            let flashy = i % 4 < 2;
            let diurnal = |amp: f64| Signal::diurnal(period, amp, phase);
            let mut resv = Signal::constant(resv_mid as f64).sum(diurnal(resv_amp as f64));
            let mut active = Signal::constant(active_mid as f64).sum(diurnal(resv_amp as f64));
            if flashy {
                // The crowd hits the *guest* first (think collapse + active
                // window blown out to the whole dataset, scattering resident
                // pages across the scan order); the operator's elastic
                // reservation response lags by 15 s — and that lagged spike
                // is what breaches the watermark.
                let crowd_at = SimTime::from_nanos(
                    arrival
                        .as_nanos()
                        .saturating_sub(SimDuration::from_secs(15).as_nanos()),
                );
                let crowd = Signal::flash_crowd(crowd_at, flash_peak as f64, flash_decay);
                resv = resv.sum(Signal::flash_crowd(arrival, flash_peak as f64, flash_decay));
                active = active.sum(crowd);
                bindings.push(Binding {
                    vm,
                    knob: Knob::ThinkNanos {
                        base_ns: think_base_ns,
                    },
                    signal: Signal::constant(1.0)
                        .sum(Signal::flash_crowd(crowd_at, -0.8, flash_decay))
                        .clamp(0.2, 1.0),
                });
            } else {
                bindings.push(Binding {
                    vm,
                    knob: Knob::ThinkNanos {
                        base_ns: think_base_ns,
                    },
                    signal: Signal::constant(1.0),
                });
            }
            bindings.push(Binding {
                vm,
                knob: Knob::ReservationBytes,
                signal: resv,
            });
            bindings.push(Binding {
                vm,
                knob: Knob::ActiveBytes,
                signal: active.clamp((128 * MIB / sc) as f64, dataset_bytes as f64),
            });
            if i % 4 == 3 {
                bindings.push(Binding {
                    vm,
                    knob: Knob::WindowPhase {
                        stride_records: stride,
                    },
                    signal: Signal::phase_change(SimDuration::from_secs(150), 4),
                });
            }
        }
        wlctl::arm_driver(
            &mut sim,
            WorkloadDriver::new(bindings),
            SimDuration::from_secs(5),
        );
        start_all_workloads(&mut sim, SimTime::from_secs(1));

        let sched_cfg = SchedConfig {
            max_in_flight: 2,
            src_cfg: paper_source_config(Technique::Agile, sc),
            verify_content: true,
        };
        let managed = sched::arm_scheduler(&mut sim, &working, (0.60, 0.75), sched_cfg);
        if self.predict {
            sched::arm_predictor(
                &mut sim,
                PredictConfig {
                    min_confidence: 0.4,
                },
            );
        }

        (sim, managed)
    }

    fn deadline(&self) -> SimTime {
        SimTime::from_secs(self.deadline_secs)
    }

    /// Runs to the deadline.
    fn done(_sim: &Simulation<World>, _managed: &Self::Meta) -> bool {
        false
    }

    /// Disarm everything and assemble the deterministic result.
    fn finish(&self, mut sim: Simulation<World>, managed: Self::Meta) -> DiurnalResult {
        sched::disarm_scheduler(&mut sim);
        wlctl::disarm_driver(&mut sim);

        let events_executed = sim.events_executed();
        let w = sim.state();
        let s = w.sched.as_ref().expect("scheduler armed");

        let migrations: Vec<DiurnalMig> = w
            .migrations
            .iter()
            .map(|m| {
                let met = m.src.metrics();
                DiurnalMig {
                    vm: m.vm,
                    src: m.source_host,
                    dest: m.dest_host,
                    start_ns: met.started_at.as_nanos(),
                    end_ns: met.completed_at.map(|t| t.as_nanos()).unwrap_or(u64::MAX),
                    bytes: met.migration_bytes,
                    pages_full: met.pages_sent_full,
                    downtime_ns: met.downtime().map(|d| d.as_nanos()).unwrap_or(u64::MAX),
                    finished: m.finished,
                }
            })
            .collect();
        let total_bytes: u64 = migrations.iter().map(|m| m.bytes).sum();
        let total_pages_full: u64 = migrations.iter().map(|m| m.pages_full).sum();
        let downtimes: Vec<u64> = migrations
            .iter()
            .filter(|m| m.downtime_ns != u64::MAX)
            .map(|m| m.downtime_ns)
            .collect();
        let downtime_p99_ns = percentile(&downtimes, 0.99);
        let predict = s.predict.as_ref().map(|p| p.counters);
        let metrics_json = crate::report::metrics_registry(w).to_json();

        let mut report = String::new();
        {
            use std::fmt::Write;
            let _ = writeln!(report, "# diurnal cycle-prediction report");
            let _ = writeln!(
                report,
                "seed={} scale={} predict={} period_secs={} flash1={} flash2={} deadline={}",
                self.seed,
                self.scale.max(1),
                self.predict,
                self.period_secs,
                self.flash1_secs,
                self.flash2_secs,
                self.deadline_secs,
            );
            sched::write_watermarks(&mut report, &managed);
            sched::write_decisions(&mut report, &s.decisions);
            let _ = writeln!(report, "migrations:");
            for (i, m) in migrations.iter().enumerate() {
                let _ = writeln!(
                    report,
                    "  mig={} vm={} src={} dest={} start_ns={} end_ns={} bytes={} \
                     pages_full={} downtime_ns={} finished={}",
                    i,
                    m.vm,
                    m.src,
                    m.dest,
                    m.start_ns,
                    m.end_ns,
                    m.bytes,
                    m.pages_full,
                    m.downtime_ns,
                    m.finished,
                );
            }
            let c = s.counters;
            let _ = writeln!(
                report,
                "counters: started={} queued={} deferred_no_dest={} completed={} max_in_flight={}",
                c.started, c.queued, c.deferred_no_dest, c.completed, c.max_in_flight_observed,
            );
            if let Some(p) = predict {
                let _ = writeln!(
                    report,
                    "predict: cycles={} deferrals={} expiries={} hits={} misses={} cancelled={}",
                    p.cycles_detected,
                    p.deferrals,
                    p.window_expiries,
                    p.trough_hits,
                    p.trough_misses,
                    p.cancelled,
                );
            }
            let _ = writeln!(
                report,
                "totals: migrations={} bytes={} pages_full={} downtime_p99_ns={} \
                 events_executed={}",
                migrations.len(),
                total_bytes,
                total_pages_full,
                downtime_p99_ns,
                events_executed,
            );
        }

        DiurnalResult {
            report,
            migrations,
            total_bytes,
            total_pages_full,
            downtime_p99_ns,
            counters: s.counters,
            predict,
            metrics_json,
            events_executed,
            trace_jsonl: self.trace.then(|| w.trace.to_jsonl()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::percentile;

    #[test]
    fn percentile_is_nearest_rank_with_a_sentinel_for_no_samples() {
        assert_eq!(percentile(&[], 0.99), u64::MAX);
        assert_eq!(percentile(&[7], 0.99), 7);
        // Unsorted input; rank = ceil(p · n), at least 1.
        let s = [50, 10, 40, 20, 30];
        assert_eq!(percentile(&s, 0.01), 10);
        assert_eq!(percentile(&s, 0.2), 10);
        assert_eq!(percentile(&s, 0.5), 30);
        assert_eq!(percentile(&s, 0.99), 50);
        assert_eq!(percentile(&s, 1.0), 50);
        let hundred: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&hundred, 0.99), 99);
    }
}
