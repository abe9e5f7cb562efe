//! The reservation controller of §IV-D.
//!
//! Every sampling interval the controller looks at the VM's swap rate `S`
//! and multiplies the cgroup reservation by β > 1 (grow) when `S` exceeds
//! the threshold τ, or by α < 1 (shrink) otherwise. The paper's parameters
//! are α = 0.95, β = 1.03, τ = 4 KB/s; adjustment starts at a 2-second
//! interval and relaxes to 30 seconds once the reservation has stabilized
//! (it then hovers just above the true working-set size, where shrinks and
//! grows alternate).

use agile_sim_core::SimDuration;

use crate::monitor::SwapRate;

/// Direction of the last adjustment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Direction {
    Grow,
    Shrink,
}

/// Sampling interval while converging.
pub const FAST_INTERVAL: SimDuration = SimDuration::from_secs(2);

/// Sampling interval once stable.
const SLOW_INTERVAL: SimDuration = SimDuration::from_secs(30);

/// Direction alternations required to declare stability.
const STABLE_AFTER_FLIPS: u32 = 4;

/// Controller parameters (the paper's values in [`ControllerParams::paper`]).
#[derive(Clone, Copy, Debug)]
pub struct ControllerParams {
    /// Shrink factor (< 1).
    pub alpha: f64,
    /// Grow factor (> 1).
    pub beta: f64,
    /// Swap-rate threshold in KB/s.
    pub tau_kbps: f64,
    /// Floor for the reservation (a VM always needs some memory).
    pub min_bytes: u64,
    /// Ceiling for the reservation (the VM's memory size).
    pub max_bytes: u64,
}

impl ControllerParams {
    /// The paper's §V-D parameters, bounded to `[min_bytes, max_bytes]`.
    pub fn paper(min_bytes: u64, max_bytes: u64) -> Self {
        ControllerParams {
            alpha: 0.95,
            beta: 1.03,
            tau_kbps: 4.0,
            min_bytes,
            max_bytes,
        }
    }
}

/// One adjustment decision.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Adjustment {
    /// The reservation to apply now.
    pub new_reservation: u64,
    /// When to sample next.
    pub next_sample_in: SimDuration,
    /// Whether the controller currently considers the WSS stable.
    pub stable: bool,
}

/// Multiplicative-adjustment reservation controller.
#[derive(Clone, Debug)]
pub struct ReservationController {
    params: ControllerParams,
    last_direction: Option<Direction>,
    flips: u32,
    streak: u32,
    stable: bool,
    ever_stable: bool,
}

impl ReservationController {
    /// Create a controller.
    pub fn new(params: ControllerParams) -> Self {
        assert!(params.alpha < 1.0 && params.alpha > 0.0, "alpha in (0,1)");
        assert!(params.beta > 1.0, "beta > 1");
        assert!(params.min_bytes <= params.max_bytes);
        ReservationController {
            params,
            last_direction: None,
            flips: 0,
            streak: 0,
            stable: false,
            ever_stable: false,
        }
    }

    /// Whether the controller has declared stability.
    pub fn is_stable(&self) -> bool {
        self.stable
    }

    /// The tracked working-set estimate: once stable, the reservation
    /// itself is the estimate.
    pub fn wss_estimate(&self, current_reservation: u64) -> u64 {
        current_reservation
    }

    /// Apply one sample.
    pub fn on_sample(&mut self, current_reservation: u64, rate: SwapRate) -> Adjustment {
        let dir = if rate.total_kbps() > self.params.tau_kbps {
            Direction::Grow
        } else {
            Direction::Shrink
        };
        match self.last_direction {
            Some(prev) if prev != dir => {
                self.flips += 1;
                self.streak = 1;
            }
            Some(_) => {
                self.streak += 1;
                // A sustained shrink trend means the working set shrank:
                // drop back to fast tracking. Grow trends deliberately do
                // NOT re-enter fast mode (the paper keeps the 30 s interval
                // once stable): a sustained above-τ reading is usually the
                // *refill* of previously evicted cold pages, and compounding
                // β every 2 s on that artifact runs the reservation away.
                if self.streak >= 3 && dir == Direction::Shrink {
                    self.flips = 0;
                    self.stable = false;
                }
            }
            None => {
                self.streak = 1;
            }
        }
        self.last_direction = Some(dir);
        if self.flips >= STABLE_AFTER_FLIPS {
            self.stable = true;
            self.ever_stable = true;
        }

        let factor = match dir {
            Direction::Grow => self.params.beta,
            Direction::Shrink => self.params.alpha,
        };
        let raw = (current_reservation as f64 * factor) as u64;
        let new_reservation = raw.clamp(self.params.min_bytes, self.params.max_bytes);
        // Cadence: fast while first converging (and for downward tracking
        // after a workload shrink); once the WSS has been found, grow
        // steps always pace at the slow interval — a string of above-τ
        // samples after convergence is almost always the refill of
        // previously evicted cold pages, and compounding β at the fast
        // interval on that signal ratchets the reservation away from the
        // working set.
        let slow_paced = self.stable || (self.ever_stable && dir == Direction::Grow);
        Adjustment {
            new_reservation,
            next_sample_in: if slow_paced {
                SLOW_INTERVAL
            } else {
                FAST_INTERVAL
            },
            stable: self.stable,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agile_sim_core::{SimTime, GIB, MIB};

    fn rate(kbps: f64) -> SwapRate {
        SwapRate {
            at: SimTime::ZERO,
            read_bps: kbps * 1024.0,
            write_bps: 0.0,
        }
    }

    fn ctl() -> ReservationController {
        ReservationController::new(ControllerParams::paper(64 * MIB, 5 * GIB))
    }

    #[test]
    fn swapping_grows_reservation() {
        let mut c = ctl();
        let adj = c.on_sample(GIB, rate(100.0));
        assert_eq!(adj.new_reservation, (GIB as f64 * 1.03) as u64);
        assert!(!adj.stable);
        assert_eq!(adj.next_sample_in, SimDuration::from_secs(2));
    }

    #[test]
    fn quiet_device_shrinks_reservation() {
        let mut c = ctl();
        let adj = c.on_sample(GIB, rate(0.5));
        assert_eq!(adj.new_reservation, (GIB as f64 * 0.95) as u64);
    }

    #[test]
    fn threshold_is_exclusive() {
        let mut c = ctl();
        // Exactly τ counts as quiet (S must go *above* τ to grow).
        let adj = c.on_sample(GIB, rate(4.0));
        assert!(adj.new_reservation < GIB);
    }

    #[test]
    fn bounds_are_enforced() {
        let mut c = ctl();
        let at_max = c.on_sample(5 * GIB, rate(100.0));
        assert_eq!(at_max.new_reservation, 5 * GIB);
        let mut c = ctl();
        let at_min = c.on_sample(64 * MIB, rate(0.0));
        assert_eq!(at_min.new_reservation, 64 * MIB);
    }

    #[test]
    fn alternation_reaches_stability_and_slows_down() {
        let mut c = ctl();
        let mut r = 2 * GIB;
        // Alternate grow/shrink: the hallmark of hovering at the WSS.
        for i in 0..10 {
            let s = if i % 2 == 0 { 10.0 } else { 0.0 };
            let adj = c.on_sample(r, rate(s));
            r = adj.new_reservation;
        }
        assert!(c.is_stable());
        let adj = c.on_sample(r, rate(10.0));
        assert_eq!(adj.next_sample_in, SimDuration::from_secs(30));
    }

    #[test]
    fn sustained_shrink_trend_breaks_stability() {
        let mut c = ctl();
        let mut r = 2 * GIB;
        for i in 0..10 {
            let s = if i % 2 == 0 { 10.0 } else { 0.0 };
            r = c.on_sample(r, rate(s)).new_reservation;
        }
        assert!(c.is_stable());
        // The working set shrank: sustained silence on the swap device.
        for _ in 0..3 {
            r = c.on_sample(r, rate(0.0)).new_reservation;
        }
        assert!(!c.is_stable(), "shrink trend must re-enter fast tracking");
        let adj = c.on_sample(r, rate(0.0));
        assert_eq!(adj.next_sample_in, SimDuration::from_secs(2));
    }

    #[test]
    fn sustained_grow_trend_stays_slow() {
        // Growth (often a cold-page refill artifact) must keep the paper's
        // 30 s cadence instead of compounding β every 2 s.
        let mut c = ctl();
        let mut r = 2 * GIB;
        for i in 0..10 {
            let s = if i % 2 == 0 { 10.0 } else { 0.0 };
            r = c.on_sample(r, rate(s)).new_reservation;
        }
        assert!(c.is_stable());
        for _ in 0..5 {
            let adj = c.on_sample(r, rate(500.0));
            r = adj.new_reservation;
            assert_eq!(adj.next_sample_in, SimDuration::from_secs(30));
        }
        assert!(c.is_stable());
    }

    #[test]
    fn converges_to_working_set_in_closed_loop() {
        // Closed-loop toy plant: swapping occurs iff reservation < WSS.
        let wss = 1_717 * MIB;
        let mut c = ctl();
        let mut r = 5 * GIB;
        for _ in 0..200 {
            let s = if r < wss { 200.0 } else { 0.2 };
            r = c.on_sample(r, rate(s)).new_reservation;
        }
        let err = (r as f64 - wss as f64).abs() / wss as f64;
        assert!(err < 0.06, "reservation {r} vs wss {wss} (err {err:.3})");
        assert!(c.is_stable());
    }

    #[test]
    #[should_panic(expected = "alpha in (0,1)")]
    fn bad_alpha_rejected() {
        let mut p = ControllerParams::paper(0, GIB);
        p.alpha = 1.5;
        let _ = ReservationController::new(p);
    }
}
