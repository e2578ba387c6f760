//! Seeded input generation. Every input of every workload is a pure
//! function of `--seed`; the simulator itself only ever sees the
//! generated streams.

use traces::spec2006::Spec2006;
use traces::WorkloadSpec;

/// The seed a run uses when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// The seed held out from tuning: checks run on it only after the
/// benchmark or a change is final.
pub const HELDOUT_SEED: u64 = 20_131_207;

/// SplitMix64's output function: a well-mixed 64-bit image of `x`.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A SplitMix64 stream: the benchmark's own generator for the serving
/// tenants' keys and address mix.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0.wrapping_sub(0x9e37_79b9_7f4a_7c15))
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The workload model of `bench`'s simpoint `index`, footprints scaled by
/// `shift`, with the generator seed perturbed by the run seed. The
/// simpoint perturbation is the figure harness's own.
pub fn simpoint_spec(bench: Spec2006, index: u64, shift: u32, seed: u64) -> WorkloadSpec {
    let mut spec = bench.workload().scaled_down(shift);
    spec.seed ^= index.wrapping_mul(0x517c_c1b7_2722_0a95) ^ mix(seed);
    spec
}

/// Zipf(`s`) sampler over `n` ranks by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += 1.0 / (k as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// A rank in `[0, n)`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut SplitMix) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_perturb_specs_deterministically() {
        let a = simpoint_spec(Spec2006::Mcf, 1, 3, 5);
        let b = simpoint_spec(Spec2006::Mcf, 1, 3, 5);
        let c = simpoint_spec(Spec2006::Mcf, 1, 3, 6);
        assert_eq!(a, b);
        assert_ne!(a.seed, c.seed);
        let ga: Vec<_> = a.generator(1).take(1000).collect();
        let gb: Vec<_> = b.generator(1).take(1000).collect();
        assert_eq!(ga, gb);
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = SplitMix::new(3);
        let draws: Vec<usize> = (0..20_000).map(|_| z.sample(&mut rng)).collect();
        let top = draws.iter().filter(|&&r| r < 10).count();
        let tail = draws.iter().filter(|&&r| r >= 990).count();
        assert!(top > 10 * tail.max(1), "top {top} tail {tail}");
        assert!(draws.iter().all(|&r| r < 1000));
    }
}
