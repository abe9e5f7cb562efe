//! YCSB's bounded Zipfian generator.
//!
//! This is the Gray et al. ("Quickly Generating Billion-Record Synthetic
//! Databases", SIGMOD '94) rejection-free construction that YCSB's
//! `ZipfianGenerator` uses, with the standard θ = 0.99. Item 0 is the most
//! popular. The *scrambled* variant hashes ranks so popularity is spread
//! uniformly across the key space — which is what YCSB actually applies to
//! database keys, and what makes a Zipfian working set touch pages all over
//! the dataset rather than one hot prefix.

use agile_sim_core::{DetRng, StreamHash};

/// Default YCSB skew constant.
pub const YCSB_ZIPFIAN_CONSTANT: f64 = 0.99;

/// Bounded Zipfian distribution over `[0, n)`.
#[derive(Clone, Debug)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    scrambled: bool,
}

fn zeta(n: u64, theta: f64) -> f64 {
    let mut sum = 0.0;
    for i in 1..=n {
        sum += 1.0 / (i as f64).powf(theta);
    }
    sum
}

/// [`StreamHash`] over the rank's eight bytes, used for rank scrambling.
#[inline]
fn fnv1a(x: u64) -> u64 {
    let mut h = StreamHash::new();
    for shift in (0..64).step_by(8) {
        h.write_u64((x >> shift) & 0xff);
    }
    h.finish()
}

impl Zipfian {
    /// Plain Zipfian over `[0, n)`: item 0 is hottest.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "empty key space");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0,1)");
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2.min(n), theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian {
            n,
            theta,
            alpha,
            zetan,
            eta,
            scrambled: false,
        }
    }

    /// YCSB-default skew.
    pub fn ycsb(n: u64) -> Self {
        Zipfian::new(n, YCSB_ZIPFIAN_CONSTANT)
    }

    /// Scrambled variant: popularity ranks are hashed across the key space.
    pub fn scrambled(n: u64, theta: f64) -> Self {
        let mut z = Zipfian::new(n, theta);
        z.scrambled = true;
        z
    }

    /// Key-space size.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Draw the next item.
    pub fn sample(&self, rng: &mut DetRng) -> u64 {
        let u = rng.unit_f64();
        let uz = u * self.zetan;
        let rank = if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
            r.min(self.n - 1)
        };
        if self.scrambled {
            fnv1a(rank) % self.n
        } else {
            rank
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram(z: &Zipfian, draws: usize, seed: u64) -> Vec<u64> {
        let mut rng = DetRng::seed_from(seed);
        let mut h = vec![0u64; z.n() as usize];
        for _ in 0..draws {
            h[z.sample(&mut rng) as usize] += 1;
        }
        h
    }

    #[test]
    fn all_samples_in_range() {
        let z = Zipfian::ycsb(100);
        let mut rng = DetRng::seed_from(1);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 100);
        }
    }

    #[test]
    fn item_zero_is_hottest() {
        let z = Zipfian::ycsb(1000);
        let h = histogram(&z, 100_000, 2);
        let max = *h.iter().max().unwrap();
        assert_eq!(h[0], max, "rank 0 must be the mode");
        // Long tail: the bottom half of ranks together get a minority.
        let tail: u64 = h[500..].iter().sum();
        assert!(tail < 20_000, "tail too heavy: {tail}");
    }

    #[test]
    fn frequencies_follow_power_law_roughly() {
        let z = Zipfian::new(1000, 0.99);
        let h = histogram(&z, 400_000, 3);
        // f(1)/f(10) ≈ 10^0.99 ≈ 9.8; allow generous tolerance.
        let ratio = h[0] as f64 / h[9].max(1) as f64;
        assert!((4.0..25.0).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn scrambled_spreads_the_mode() {
        let z = Zipfian::scrambled(1000, 0.99);
        let h = histogram(&z, 100_000, 4);
        // The hottest item exists but is not at rank 0 specifically
        // (fnv1a(0) % 1000 relocates it).
        let argmax = h
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| **c)
            .map(|(i, _)| i)
            .unwrap();
        assert_eq!(argmax as u64, fnv1a(0) % 1000);
    }

    #[test]
    fn deterministic_across_runs() {
        let z = Zipfian::ycsb(500);
        let mut a = DetRng::seed_from(9);
        let mut b = DetRng::seed_from(9);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut a), z.sample(&mut b));
        }
    }

    #[test]
    fn tiny_keyspaces_work() {
        for n in [1u64, 2, 3] {
            let z = Zipfian::ycsb(n);
            let mut rng = DetRng::seed_from(5);
            for _ in 0..100 {
                assert!(z.sample(&mut rng) < n);
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty key space")]
    fn zero_n_rejected() {
        let _ = Zipfian::ycsb(0);
    }
}
