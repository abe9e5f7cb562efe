//! Workload-cycle prediction for migration orchestration.
//!
//! Following Baruchi et al. (*Exploiting Workload Cycles for
//! Orchestration of VM Live Migrations*), the scheduler can do better
//! than firing a migration the instant a watermark trips: cyclic guests
//! (diurnal load, periodic batch jobs) are cheapest to move at the
//! *trough* of their cycle, when the resident set and dirty rate are
//! smallest. This module detects cycles in the per-host aggregate-WSS
//! sample stream the scheduler already computes each tick, and predicts
//! when the next trough lands.
//!
//! Detection is **epoch-folded autocorrelation**:
//!
//! 1. keep a ring of the most recent `window` samples per host;
//! 2. compute the normalized autocorrelation `r(L)` for every candidate
//!    lag `L` in `[MIN_PERIOD, MAX_PERIOD]` that at least two full
//!    epochs of data support; the best `r` is the cycle *confidence*;
//! 3. fold the sample history into `L` phase bins (epoch folding) and
//!    take the bin with the minimal mean as the *trough phase*.
//!
//! Everything is pure integer/float arithmetic over the sample ring —
//! no RNG, no events — so detection is deterministic and (for
//! power-of-two amplitude scalings) exactly scale-invariant, which the
//! metamorphic suite pins.

/// Shortest candidate period, in scheduler ticks.
const MIN_PERIOD: usize = 4;

/// Longest candidate period, in scheduler ticks.
const MAX_PERIOD: usize = 32;

/// Cycle-predictor configuration (lives inside the scheduler's
/// deferral layer, see [`crate::sched::arm_predictor`]).
#[derive(Clone, Copy, Debug)]
pub struct PredictConfig {
    /// Minimum autocorrelation for a cycle to be trusted; below this the
    /// scheduler falls back to naive watermark firing.
    pub min_confidence: f64,
}

impl Default for PredictConfig {
    fn default() -> Self {
        PredictConfig {
            min_confidence: 0.5,
        }
    }
}

/// A detected cycle in one host's load samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Cycle {
    /// Period in samples (scheduler ticks).
    pub period: usize,
    /// Normalized autocorrelation at that period, in `[-1, 1]`.
    pub confidence: f64,
    /// Phase bin (sample index mod period) with the minimal folded mean.
    pub trough_phase: usize,
    /// Phase bin of the newest sample.
    pub current_phase: usize,
}

impl Cycle {
    /// Ticks from the newest sample to the next trough (0 = now is the
    /// trough).
    pub fn ticks_to_trough(&self) -> usize {
        (self.trough_phase + self.period - self.current_phase) % self.period
    }
}

/// Fixed-capacity ring of load samples with cycle detection.
#[derive(Clone, Debug)]
pub struct CycleDetector {
    buf: Vec<f64>,
    head: usize,
    len: usize,
    /// Total samples ever pushed (phase origin for epoch folding).
    pushed: u64,
}

impl CycleDetector {
    /// A detector retaining the most recent `window` samples.
    pub fn new(window: usize) -> Self {
        assert!(window >= 8, "window too small to fold");
        CycleDetector {
            buf: vec![0.0; window],
            head: 0,
            len: 0,
            pushed: 0,
        }
    }

    /// Append one sample, evicting the oldest when full.
    pub fn push(&mut self, v: f64) {
        let cap = self.buf.len();
        let pos = (self.head + self.len) % cap;
        self.buf[pos] = v;
        if self.len < cap {
            self.len += 1;
        } else {
            self.head = (self.head + 1) % cap;
        }
        self.pushed += 1;
    }

    /// Samples currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no sample has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sample `i` (0 = oldest retained).
    fn at(&self, i: usize) -> f64 {
        self.buf[(self.head + i) % self.buf.len()]
    }

    /// Detect the strongest cycle, if any lag in
    /// `[MIN_PERIOD, MAX_PERIOD]` reaches `cfg.min_confidence`.
    ///
    /// Ties break toward the *shortest* period (the fundamental beats
    /// its harmonics), and the trough phase breaks ties toward the
    /// earliest bin — both deterministic.
    pub fn detect(&self, cfg: &PredictConfig) -> Option<Cycle> {
        let n = self.len;
        if n < 2 * MIN_PERIOD {
            return None;
        }
        let nf = n as f64;
        let mut mean = 0.0;
        for i in 0..n {
            mean += self.at(i);
        }
        mean /= nf;
        let mut denom = 0.0;
        for i in 0..n {
            let d = self.at(i) - mean;
            denom += d * d;
        }
        if denom == 0.0 {
            return None; // flat signal: no cycle
        }
        let mut best: Option<(usize, f64)> = None;
        let max_lag = MAX_PERIOD.min(n / 2);
        for lag in MIN_PERIOD..=max_lag {
            let mut num = 0.0;
            for i in 0..n - lag {
                num += (self.at(i) - mean) * (self.at(i + lag) - mean);
            }
            let r = num / denom;
            if r >= cfg.min_confidence && best.map(|(_, b)| r > b).unwrap_or(true) {
                best = Some((lag, r));
            }
        }
        let (period, confidence) = best?;
        // Epoch folding: mean per phase bin. Phases are anchored at the
        // *global* sample count so a detector that has evicted old
        // samples keeps a stable phase origin.
        let oldest_idx = self.pushed - n as u64;
        let mut sums = vec![0.0f64; period];
        let mut counts = vec![0u32; period];
        for i in 0..n {
            let phase = ((oldest_idx + i as u64) % period as u64) as usize;
            sums[phase] += self.at(i);
            counts[phase] += 1;
        }
        let mut trough_phase = 0usize;
        let mut trough_mean = f64::INFINITY;
        for (b, (&s, &c)) in sums.iter().zip(counts.iter()).enumerate() {
            if c == 0 {
                continue;
            }
            let m = s / f64::from(c);
            if m < trough_mean {
                trough_mean = m;
                trough_phase = b;
            }
        }
        let current_phase = ((self.pushed - 1) % period as u64) as usize;
        Some(Cycle {
            period,
            confidence,
            trough_phase,
            current_phase,
        })
    }
}

/// Counters published under `sched.predict.*` when the predictor is
/// armed (satellite: observability).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PredictCounters {
    /// Host-cycle detections (transitions from "no cycle" to "cycle").
    pub cycles_detected: u64,
    /// Watermark selections deferred toward a predicted trough.
    pub deferrals: u64,
    /// Deferrals whose predicted trough fell outside the bounded window
    /// and were clamped to its end (naive fallback).
    pub window_expiries: u64,
    /// Deferred firings where the host aggregate at fire time was lower
    /// than at selection time (the trough materialized).
    pub trough_hits: u64,
    /// Deferred firings where it was not.
    pub trough_misses: u64,
    /// Deferrals abandoned because the VM migrated or vanished meanwhile.
    pub cancelled: u64,
}

/// One migration waiting for its predicted trough.
#[derive(Clone, Copy, Debug)]
pub struct DeferredMig {
    /// The selected VM.
    pub vm: usize,
    /// Its overloaded host at selection time.
    pub src: usize,
    /// When to fire (already clamped into the deferral window).
    pub fire_at: agile_sim_core::SimTime,
    /// Host aggregate WSS at selection time (hit/miss baseline).
    pub load_at_defer: u64,
    /// True when `fire_at` was clamped by the deferral bound.
    pub clamped: bool,
}

/// Trough-deferral state hanging off the scheduler
/// ([`crate::sched::SchedExec::predict`]). `None` there means the
/// scheduler behaves exactly as before — the predictor is pure overlay.
pub struct PredictExec {
    /// Configuration.
    pub cfg: PredictConfig,
    /// One detector per managed host (parallel to `SchedExec::hosts`).
    pub detectors: Vec<CycleDetector>,
    /// Whether each managed host currently shows a confident cycle
    /// (edge-detected for the `cycles_detected` counter).
    pub had_cycle: Vec<bool>,
    /// The cycle (if any) each managed host showed at the last sample
    /// tick; the deferral decision in `check_host` reads this cache.
    pub cycles: Vec<Option<Cycle>>,
    /// Migrations waiting for their trough.
    pub deferred: Vec<DeferredMig>,
    /// Counters.
    pub counters: PredictCounters,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PredictConfig {
        PredictConfig::default()
    }

    /// A clean period-8 square wave is detected with its trough.
    #[test]
    fn detects_square_wave_cycle() {
        let mut d = CycleDetector::new(64);
        for i in 0..64u64 {
            // Phase 0..3 high, 4..7 low.
            d.push(if i % 8 < 4 { 100.0 } else { 10.0 });
        }
        let c = d.detect(&cfg()).expect("cycle");
        assert_eq!(c.period, 8);
        // A perfect cycle scores (n - lag) / n: the lag-truncated sum
        // covers 56 of the 64 equal squared deviations.
        assert_eq!(c.confidence, 56.0 / 64.0);
        assert!(
            (4..8).contains(&c.trough_phase),
            "trough {}",
            c.trough_phase
        );
        assert_eq!(c.current_phase, 63 % 8);
    }

    /// Flat load has zero variance: no cycle, no deferral.
    #[test]
    fn flat_signal_has_no_cycle() {
        let mut d = CycleDetector::new(64);
        for _ in 0..64 {
            d.push(42.0);
        }
        assert!(d.detect(&cfg()).is_none());
    }

    /// Too little history: no detection.
    #[test]
    fn needs_two_epochs() {
        let mut d = CycleDetector::new(64);
        for i in 0..7u64 {
            d.push(i as f64);
        }
        assert!(d.detect(&cfg()).is_none());
    }

    /// ticks_to_trough wraps correctly.
    #[test]
    fn ticks_to_trough_wraps() {
        let c = Cycle {
            period: 8,
            confidence: 1.0,
            trough_phase: 2,
            current_phase: 6,
        };
        assert_eq!(c.ticks_to_trough(), 4);
        let at = Cycle {
            current_phase: 2,
            ..c
        };
        assert_eq!(at.ticks_to_trough(), 0);
    }

    /// The ring keeps a stable phase origin across evictions: after
    /// overflowing the window, detection still works and phases stay
    /// consistent with the global push count.
    #[test]
    fn phase_origin_survives_eviction() {
        let mut d = CycleDetector::new(64);
        for i in 0..200u64 {
            d.push(if i % 8 < 4 { 100.0 } else { 10.0 });
        }
        let c = d.detect(&cfg()).expect("cycle");
        assert_eq!(c.period, 8);
        assert_eq!(c.current_phase, 199 % 8);
        assert!((4..8).contains(&c.trough_phase));
    }
}
