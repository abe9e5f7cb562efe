//! Pluggable working-set-size estimators.
//!
//! The paper's only WSS signal is swap-device I/O (§IV-D): cheap, but
//! blind until the VM actually swaps. Bitchebe et al. (*Intel Page
//! Modification Logging for VM working set estimation*, PAPERS.md)
//! estimate WSS from hardware dirty logs with **zero** swap pressure.
//! [`WssEstimator`] abstracts over both so the cluster executor's
//! sampling chain, reservation sizing, and the watermark scheduler all
//! run off a trait object:
//!
//! * [`SwapIoEstimator`] — the legacy path, a [`SwapActivityMonitor`]
//!   feeding the α/β/τ [`ReservationController`]; bit-identical to the
//!   pre-trait arithmetic, so golden traces replay byte-for-byte.
//! * [`PmlEstimator`] — sizes the reservation from per-epoch dirty-page
//!   counts (the simulated-PML drains fed in via
//!   [`WssObservation::epoch`]). Reservation arithmetic is exactly
//!   linear in the estimate (`pages * (page_size / headroom_den) *
//!   headroom_num`, no flooring) so power-of-two workload scalings map
//!   to power-of-two reservation scalings — the metamorphic suite pins
//!   this.
//! * [`GroundTruthWss`] — an oracle consuming the *exact*
//!   distinct-pages-touched count. Test/bench only: real hosts cannot
//!   observe it; the accuracy harness scores the other two against it.
//!
//! Estimators are sans-IO: the executor samples devices and drains epoch
//! trackers, then hands both to [`WssEstimator::on_tick`] as a
//! [`WssObservation`]. Inputs an estimator does not consume are ignored
//! (the swap-I/O estimator disregards epoch drains), which lets the A/B
//! harness arm the ground-truth oracle alongside either estimator
//! without perturbing it.

use agile_sim_core::{IoCounters, SimDuration, SimTime};

use crate::controller::{Adjustment, ControllerParams, ReservationController};
use crate::monitor::SwapActivityMonitor;

/// One simulated-PML epoch drain, as observed by the executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpochSample {
    /// The bounded-log (PML) page count — exact unless `overflowed`.
    pub pml_pages: u64,
    /// Exact distinct pages touched this epoch (ground truth; only the
    /// oracle may consume it).
    pub exact_pages: u64,
    /// Whether the bounded log overflowed this epoch.
    pub overflowed: bool,
}

/// Everything the executor observed since the last tick.
#[derive(Clone, Copy, Debug)]
pub struct WssObservation {
    /// Cumulative swap-device counters (the iostat snapshot).
    pub io: IoCounters,
    /// The epoch drain, when epoch tracking is armed on the VM.
    pub epoch: Option<EpochSample>,
}

/// The estimator-specific signal behind a tick, for tracing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EstimateSignal {
    /// Swap-I/O rate that drove the α/β/τ controller.
    SwapRate {
        /// Combined read+write rate in KB/s.
        kbps: f64,
    },
    /// Dirty-epoch estimate that drove reservation sizing.
    DirtyEpoch {
        /// Estimated bytes touched this epoch.
        est_bytes: u64,
        /// Whether the simulated PML buffer overflowed.
        overflowed: bool,
    },
}

/// One estimator decision.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EstimatorTick {
    /// The reservation adjustment to apply.
    pub adjustment: Adjustment,
    /// What the estimator saw (for the trace).
    pub signal: EstimateSignal,
}

/// A pluggable working-set-size estimator (see module docs).
pub trait WssEstimator {
    /// Stable short name, used in traces and reports.
    fn kind(&self) -> &'static str;

    /// Consume one observation. `None` means the estimator is still
    /// priming (e.g. the swap monitor's first window) — the executor
    /// reschedules at [`WssEstimator::priming_interval`] and applies
    /// nothing.
    fn on_tick(
        &mut self,
        now: SimTime,
        obs: &WssObservation,
        current_reservation: u64,
    ) -> Option<EstimatorTick>;

    /// Re-sample delay while priming.
    fn priming_interval(&self) -> SimDuration;

    /// The estimator's current working-set estimate in bytes, when it
    /// has one distinct from the reservation it sized. The swap-I/O
    /// estimator returns `None`: its reservation *is* its estimate
    /// (§IV-D hovers the cgroup limit just above the WSS).
    fn wss_estimate(&self) -> Option<u64>;

    /// Drop sampling history (the VM paused for migration, or resumed on
    /// another host where the swap device binding was replaced).
    fn reset(&mut self);
}

// ---------------------------------------------------------------------
// Swap-I/O estimator (the paper's §IV-D path)
// ---------------------------------------------------------------------

/// [`SwapActivityMonitor`] + [`ReservationController`], behind the trait.
///
/// The arithmetic is exactly the pre-trait sampling chain's: golden
/// traces under the default estimator replay byte-identically.
#[derive(Clone, Debug)]
pub struct SwapIoEstimator {
    monitor: SwapActivityMonitor,
    controller: ReservationController,
}

impl SwapIoEstimator {
    /// Estimator with the given controller parameters.
    pub fn new(params: ControllerParams) -> Self {
        SwapIoEstimator {
            monitor: SwapActivityMonitor::new(),
            controller: ReservationController::new(params),
        }
    }

    /// The underlying controller (tests inspect stability).
    pub fn controller(&self) -> &ReservationController {
        &self.controller
    }
}

impl WssEstimator for SwapIoEstimator {
    fn kind(&self) -> &'static str {
        "swap_io"
    }

    fn on_tick(
        &mut self,
        now: SimTime,
        obs: &WssObservation,
        current_reservation: u64,
    ) -> Option<EstimatorTick> {
        let rate = self.monitor.sample(now, obs.io)?;
        let adjustment = self.controller.on_sample(current_reservation, rate);
        Some(EstimatorTick {
            adjustment,
            signal: EstimateSignal::SwapRate {
                kbps: rate.total_kbps(),
            },
        })
    }

    fn priming_interval(&self) -> SimDuration {
        crate::controller::FAST_INTERVAL
    }

    fn wss_estimate(&self) -> Option<u64> {
        None
    }

    fn reset(&mut self) {
        self.monitor.reset();
    }
}

// ---------------------------------------------------------------------
// Simulated-PML estimator
// ---------------------------------------------------------------------

/// Parameters for [`PmlEstimator`] (and [`GroundTruthWss`]).
#[derive(Clone, Copy, Debug)]
pub struct PmlParams {
    /// Fixed sampling epoch (Bitchebe et al. use a constant tick; there
    /// is no fast/slow switch because the signal is never degenerate).
    pub epoch: SimDuration,
    /// Sliding window (in epochs) the estimate is the max over — absorbs
    /// epochs that under-sample a working set the guest cycles through
    /// more slowly than the epoch length.
    pub window: u32,
    /// Reservation headroom numerator: reservation = estimate ×
    /// `headroom_num / headroom_den`, computed as
    /// `pages * (page_size / headroom_den) * headroom_num` so the map is
    /// exactly linear (requires `page_size % headroom_den == 0`).
    pub headroom_num: u64,
    /// Reservation headroom denominator (must divide `page_size`).
    pub headroom_den: u64,
    /// Guest page size in bytes.
    pub page_size: u64,
    /// Reservation floor.
    pub min_bytes: u64,
    /// Reservation ceiling.
    pub max_bytes: u64,
    /// Consecutive in-band epochs required to declare stability.
    pub stable_after: u32,
    /// Stability band half-width as a right-shift of the previous
    /// estimate (4 → ±6.25%). Scale-free, so power-of-two scalings
    /// preserve stability decisions bit-exactly.
    pub band_shift: u32,
}

impl PmlParams {
    /// Defaults: 2 s epochs, 3-epoch window, 5/4 headroom, stability
    /// after 4 in-band epochs at ±6.25%.
    pub fn defaults(page_size: u64, min_bytes: u64, max_bytes: u64) -> Self {
        PmlParams {
            epoch: SimDuration::from_secs(2),
            window: 3,
            headroom_num: 5,
            headroom_den: 4,
            page_size,
            min_bytes,
            max_bytes,
            stable_after: 4,
            band_shift: 4,
        }
    }
}

/// Shared window/stability machinery for the two epoch-fed estimators.
#[derive(Clone, Debug)]
struct EpochWindow {
    params: PmlParams,
    /// Recent per-epoch byte estimates, newest last, at most
    /// `params.window` entries.
    recent: Vec<u64>,
    /// Previous windowed estimate, for the stability band.
    prev_est: Option<u64>,
    streak: u32,
    stable: bool,
}

impl EpochWindow {
    fn new(params: PmlParams) -> Self {
        assert!(params.window >= 1, "window >= 1");
        assert!(params.headroom_den >= 1 && params.headroom_num >= params.headroom_den);
        assert_eq!(
            params.page_size % params.headroom_den,
            0,
            "headroom_den must divide page_size for exactly-linear sizing"
        );
        assert!(params.min_bytes <= params.max_bytes);
        EpochWindow {
            params,
            recent: Vec::new(),
            prev_est: None,
            streak: 0,
            stable: false,
        }
    }

    /// Fold one epoch's page count; returns (windowed estimate bytes,
    /// reservation adjustment).
    fn on_epoch(&mut self, pages: u64) -> (u64, Adjustment) {
        let p = self.params;
        // Exactly linear in `pages`: page_size % headroom_den == 0, so no
        // truncation — power-of-two input scalings scale the output by
        // the same power of two (the metamorphic suite pins this).
        let epoch_bytes = pages * p.page_size;
        if self.recent.len() == p.window as usize {
            self.recent.remove(0);
        }
        self.recent.push(epoch_bytes);
        let est = *self.recent.iter().max().expect("non-empty");
        // Scale-free stability: |est - prev| <= prev >> band_shift for
        // `stable_after` consecutive epochs.
        match self.prev_est {
            Some(prev) if est.abs_diff(prev) <= prev >> p.band_shift => {
                self.streak += 1;
                if self.streak >= p.stable_after {
                    self.stable = true;
                }
            }
            _ => {
                self.streak = 0;
                self.stable = false;
            }
        }
        self.prev_est = Some(est);
        let sized = (est / p.page_size) * (p.page_size / p.headroom_den) * p.headroom_num;
        let adjustment = Adjustment {
            new_reservation: sized.clamp(p.min_bytes, p.max_bytes),
            next_sample_in: p.epoch,
            stable: self.stable,
        };
        (est, adjustment)
    }

    fn reset(&mut self) {
        self.recent.clear();
        self.prev_est = None;
        self.streak = 0;
        self.stable = false;
    }
}

/// Simulated-PML dirty-log estimator (see module docs).
#[derive(Clone, Debug)]
pub struct PmlEstimator {
    win: EpochWindow,
}

impl PmlEstimator {
    /// Estimator with the given parameters.
    pub fn new(params: PmlParams) -> Self {
        PmlEstimator {
            win: EpochWindow::new(params),
        }
    }
}

impl WssEstimator for PmlEstimator {
    fn kind(&self) -> &'static str {
        "pml"
    }

    fn on_tick(
        &mut self,
        _now: SimTime,
        obs: &WssObservation,
        _current_reservation: u64,
    ) -> Option<EstimatorTick> {
        let ep = obs.epoch?;
        let (est_bytes, adjustment) = self.win.on_epoch(ep.pml_pages);
        Some(EstimatorTick {
            adjustment,
            signal: EstimateSignal::DirtyEpoch {
                est_bytes,
                overflowed: ep.overflowed,
            },
        })
    }

    fn priming_interval(&self) -> SimDuration {
        self.win.params.epoch
    }

    fn wss_estimate(&self) -> Option<u64> {
        self.win.prev_est
    }

    fn reset(&mut self) {
        self.win.reset();
    }
}

// ---------------------------------------------------------------------
// Ground-truth oracle (test/bench only)
// ---------------------------------------------------------------------

/// Exact distinct-pages-touched-per-epoch oracle.
///
/// **Test/bench only**: it consumes [`EpochSample::exact_pages`], which
/// no real host can observe. The accuracy harness runs it alongside the
/// production estimators to score their per-epoch error.
#[derive(Clone, Debug)]
pub struct GroundTruthWss {
    win: EpochWindow,
}

impl GroundTruthWss {
    /// Oracle with the given parameters (headroom applies to its
    /// reservation sizing exactly as for [`PmlEstimator`], so sizing
    /// deltas isolate estimation error).
    pub fn new(params: PmlParams) -> Self {
        GroundTruthWss {
            win: EpochWindow::new(params),
        }
    }
}

impl WssEstimator for GroundTruthWss {
    fn kind(&self) -> &'static str {
        "ground_truth"
    }

    fn on_tick(
        &mut self,
        _now: SimTime,
        obs: &WssObservation,
        _current_reservation: u64,
    ) -> Option<EstimatorTick> {
        let ep = obs.epoch?;
        let (est_bytes, adjustment) = self.win.on_epoch(ep.exact_pages);
        Some(EstimatorTick {
            adjustment,
            signal: EstimateSignal::DirtyEpoch {
                est_bytes,
                overflowed: false,
            },
        })
    }

    fn priming_interval(&self) -> SimDuration {
        self.win.params.epoch
    }

    fn wss_estimate(&self) -> Option<u64> {
        self.win.prev_est
    }

    fn reset(&mut self) {
        self.win.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agile_sim_core::{GIB, MIB};

    fn obs_epoch(pml: u64, exact: u64, overflowed: bool) -> WssObservation {
        WssObservation {
            io: IoCounters::default(),
            epoch: Some(EpochSample {
                pml_pages: pml,
                exact_pages: exact,
                overflowed,
            }),
        }
    }

    fn pml_params() -> PmlParams {
        PmlParams::defaults(4096, 8 * MIB, 4 * GIB)
    }

    #[test]
    fn pml_primes_until_epochs_flow() {
        let mut e = PmlEstimator::new(pml_params());
        let no_epoch = WssObservation {
            io: IoCounters::default(),
            epoch: None,
        };
        assert!(e.on_tick(SimTime::from_secs(2), &no_epoch, GIB).is_none());
        assert_eq!(e.priming_interval(), SimDuration::from_secs(2));
        assert_eq!(e.wss_estimate(), None);
    }

    #[test]
    fn pml_sizes_reservation_linearly_with_headroom() {
        let mut e = PmlEstimator::new(pml_params());
        let t = e
            .on_tick(SimTime::from_secs(2), &obs_epoch(4096, 4096, false), GIB)
            .unwrap();
        // 4096 pages × 4096 B × 5/4 = 20 MiB.
        assert_eq!(t.adjustment.new_reservation, 20 * MIB);
        assert_eq!(e.wss_estimate(), Some(16 * MIB));
        match t.signal {
            EstimateSignal::DirtyEpoch {
                est_bytes,
                overflowed,
            } => {
                assert_eq!(est_bytes, 16 * MIB);
                assert!(!overflowed);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pml_window_max_rides_out_a_shallow_epoch() {
        let mut e = PmlEstimator::new(pml_params());
        let now = SimTime::from_secs(2);
        e.on_tick(now, &obs_epoch(4096, 4096, false), GIB);
        let t = e.on_tick(now, &obs_epoch(512, 512, false), GIB).unwrap();
        assert_eq!(e.wss_estimate(), Some(4096 * 4096));
        assert_eq!(t.adjustment.new_reservation, 4096 * 4096 / 4 * 5);
    }

    #[test]
    fn pml_stability_declared_after_in_band_epochs() {
        let mut e = PmlEstimator::new(pml_params());
        let now = SimTime::from_secs(2);
        let mut last = None;
        for _ in 0..6 {
            last = e.on_tick(now, &obs_epoch(10_000, 10_000, false), GIB);
        }
        assert!(last.unwrap().adjustment.stable);
        let t = e.on_tick(now, &obs_epoch(40_000, 40_000, false), GIB);
        assert!(!t.unwrap().adjustment.stable, "4x jump breaks the band");
    }

    #[test]
    fn swap_io_matches_raw_monitor_plus_controller() {
        let params = ControllerParams::paper(64 * MIB, 4 * GIB);
        let mut e = SwapIoEstimator::new(params);
        let mut m = SwapActivityMonitor::new();
        let mut c = ReservationController::new(params);
        let snaps = [
            (0u64, IoCounters::default()),
            (
                2,
                IoCounters {
                    read_ops: 4,
                    write_ops: 4,
                    read_bytes: 1 << 20,
                    write_bytes: 1 << 19,
                    busy_nanos: 0,
                },
            ),
            (
                4,
                IoCounters {
                    read_ops: 8,
                    write_ops: 4,
                    read_bytes: 1 << 21,
                    write_bytes: 1 << 19,
                    busy_nanos: 0,
                },
            ),
        ];
        let mut r = GIB;
        for (s, io) in snaps {
            let now = SimTime::from_secs(s);
            let want = m.sample(now, io).map(|rate| c.on_sample(r, rate));
            let got = e.on_tick(
                now,
                &WssObservation {
                    io,
                    epoch: Some(EpochSample {
                        pml_pages: 9999,
                        exact_pages: 9999,
                        overflowed: true,
                    }),
                },
                r,
            );
            assert_eq!(got.map(|t| t.adjustment), want, "at {s}s");
            if let Some(t) = got {
                r = t.adjustment.new_reservation;
            }
        }
        assert_eq!(e.wss_estimate(), None);
    }

    #[test]
    fn oracle_uses_exact_count() {
        let mut o = GroundTruthWss::new(pml_params());
        let t = o
            .on_tick(SimTime::from_secs(2), &obs_epoch(100, 7000, true), GIB)
            .unwrap();
        assert_eq!(o.wss_estimate(), Some(7000 * 4096));
        match t.signal {
            EstimateSignal::DirtyEpoch { est_bytes, .. } => assert_eq!(est_bytes, 7000 * 4096),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn reset_clears_window_and_stability() {
        let mut e = PmlEstimator::new(pml_params());
        let now = SimTime::from_secs(2);
        for _ in 0..6 {
            e.on_tick(now, &obs_epoch(10_000, 10_000, false), GIB);
        }
        e.reset();
        assert_eq!(e.wss_estimate(), None);
        let t = e.on_tick(now, &obs_epoch(10, 10, false), GIB).unwrap();
        assert!(!t.adjustment.stable);
        assert_eq!(e.wss_estimate(), Some(10 * 4096));
    }
}
