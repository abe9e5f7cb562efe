//! Deterministic random-number streams.
//!
//! Every stochastic component of the simulation (workload key selection,
//! think times, placement tie-breaks) draws from its own [`DetRng`] stream,
//! derived from the experiment's master seed with [`SeedSequence`]. Two runs
//! with the same master seed produce bit-identical event traces; changing
//! one component's draw pattern does not perturb any other component's
//! stream.

use crate::StreamHash;

/// SplitMix64 step — used to derive independent stream seeds from a master
/// seed. This is the standard seed-sequencing construction from Steele et
/// al., "Fast Splittable Pseudorandom Number Generators" (OOPSLA 2014).
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives independent per-component seeds from one master seed.
///
/// Streams are labelled so that the mapping from component to stream is
/// stable across code reorderings: `seq.stream("workload.vm3")` always
/// yields the same seed for the same master seed.
#[derive(Clone, Copy, Debug)]
pub struct SeedSequence {
    master: u64,
}

impl SeedSequence {
    /// Create a sequence rooted at `master`.
    pub fn new(master: u64) -> Self {
        SeedSequence { master }
    }

    /// The master seed this sequence was rooted at.
    pub fn master(&self) -> u64 {
        self.master
    }

    /// Derive the seed for a labelled stream. The label is hashed with
    /// [`StreamHash`] and mixed with the master seed through SplitMix64.
    pub fn stream_seed(&self, label: &str) -> u64 {
        let mut h = StreamHash::new();
        for &b in label.as_bytes() {
            h.write_u64(u64::from(b));
        }
        let mut state = self.master ^ h.finish();
        // Two rounds so that closely-related labels decorrelate fully.
        splitmix64(&mut state);
        splitmix64(&mut state)
    }

    /// Create a [`DetRng`] for a labelled stream.
    pub fn stream(&self, label: &str) -> DetRng {
        DetRng::seed_from(self.stream_seed(label))
    }
}

/// A deterministic RNG stream.
///
/// A self-contained xoshiro256++ generator (Blackman & Vigna) seeded through
/// SplitMix64 expansion, recording its seed for diagnostics and offering the
/// handful of draw shapes the simulator needs. The implementation is local so
/// that the stream is bit-stable regardless of any external crate's version.
#[derive(Clone, Debug)]
pub struct DetRng {
    seed: u64,
    s: [u64; 4],
}

impl DetRng {
    /// Construct from an explicit 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        // Expand the 64-bit seed into the 256-bit state with SplitMix64,
        // the construction xoshiro's authors recommend for seeding.
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { seed, s }
    }

    /// The seed this stream started from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Uniform `u64` over the full range.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, n)`. Panics if `n == 0`.
    #[inline]
    pub fn index(&mut self, n: u64) -> u64 {
        assert!(n > 0, "index() requires a non-empty range");
        // Widening-multiply rejection sampling (Lemire): unbiased and
        // needs one draw almost always.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            let lo = m as u64;
            if lo >= n {
                return (m >> 64) as u64;
            }
            // Low word small enough that bias is possible: reject the
            // draws that would over-represent small residues.
            let threshold = n.wrapping_neg() % n;
            if lo >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform in `[lo, hi)` for `f64`. Panics on an empty range.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "range_f64 requires lo < hi");
        lo + self.unit_f64() * (hi - lo)
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        // 53 random mantissa bits scaled into [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit_f64() < p
        }
    }

    /// Exponentially-distributed value with the given mean (used for
    /// inter-arrival jitter). Returns `0` mean unchanged.
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        // Inverse-CDF; guard the log argument away from 0.
        let u = self.unit_f64().max(1e-18);
        -mean * u.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from(42);
        let mut b = DetRng::seed_from(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_labels_differ() {
        let seq = SeedSequence::new(7);
        assert_ne!(seq.stream_seed("a"), seq.stream_seed("b"));
        assert_ne!(
            seq.stream_seed("workload.vm0"),
            seq.stream_seed("workload.vm1")
        );
    }

    #[test]
    fn labels_stable_across_masters() {
        let s1 = SeedSequence::new(1).stream_seed("x");
        let s2 = SeedSequence::new(2).stream_seed("x");
        assert_ne!(s1, s2);
        // Same master, same label: stable.
        assert_eq!(SeedSequence::new(1).stream_seed("x"), s1);
    }

    #[test]
    fn index_in_bounds() {
        let mut r = DetRng::seed_from(3);
        for _ in 0..1000 {
            assert!(r.index(17) < 17);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::seed_from(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn exponential_mean_close() {
        let mut r = DetRng::seed_from(11);
        let n = 20_000;
        let mean = 4.0;
        let sum: f64 = (0..n).map(|_| r.exponential(mean)).sum();
        let avg = sum / n as f64;
        assert!((avg - mean).abs() < 0.15, "avg={avg}");
    }

    #[test]
    fn exponential_degenerate_mean() {
        let mut r = DetRng::seed_from(11);
        assert_eq!(r.exponential(0.0), 0.0);
        assert_eq!(r.exponential(-1.0), 0.0);
    }

    #[test]
    fn unit_in_range() {
        let mut r = DetRng::seed_from(13);
        for _ in 0..1000 {
            let v = r.unit_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }
}
