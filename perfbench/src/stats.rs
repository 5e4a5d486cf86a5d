//! Raw-sample statistics, the seeded generator and the simulated-output
//! digest. Every percentile the benchmark reports comes from here, from
//! raw samples, never from the program's own histograms or sketches.

/// The nearest-rank `q`-quantile of `samples` (`0 < q <= 1`): the
/// smallest sample with at least `q * n` samples at or below it.
/// Reorders `samples`; selection is linear, no full sort.
///
/// # Panics
///
/// Panics on an empty slice or a `q` outside `(0, 1]`.
pub fn quantile<T: Copy + PartialOrd>(samples: &mut [T], q: f64) -> T {
    assert!(!samples.is_empty(), "quantile of no samples");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let k = rank(samples.len(), q) - 1;
    *samples
        .select_nth_unstable_by(k, |a, b| a.partial_cmp(b).expect("samples are ordered"))
        .1
}

/// 1-based nearest rank of the `q`-quantile among `n` samples. The small
/// epsilon keeps `0.999 * 1000` from rounding up to 1000.
pub fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples a tail leaves beyond it.
const TAIL_BEYOND: usize = 10;

/// A tail percentile with its evidence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, as a fraction: `(n - beyond) / n`.
    pub q: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples beyond it in rank.
    pub beyond: usize,
    /// All samples.
    pub n: usize,
}

/// The highest percentile that leaves ten samples beyond it: the
/// eleventh largest sample. With ten samples or fewer, the largest.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn tail(samples: &mut [f64]) -> Tail {
    let n = samples.len();
    let beyond = if n > TAIL_BEYOND { TAIL_BEYOND } else { 0 };
    let q = (n - beyond) as f64 / n as f64;
    Tail {
        q,
        value: quantile(samples, q),
        beyond,
        n,
    }
}

/// The median of `samples` (the lower middle for an even count).
pub fn median(samples: &[f64]) -> f64 {
    quantile(&mut samples.to_vec(), 0.5)
}

/// The distance between the nearest-rank quartiles of `samples`, as a
/// share of their median.
pub fn spread(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    (quantile(&mut s, 0.75) - quantile(&mut s, 0.25)) / median(samples)
}

/// 64-bit FNV-1a, folded incrementally.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// fixes every generated input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// The process's resident-set high-water mark in MiB (`VmHWM`), or
/// `None` where `/proc` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle: sort, then take the nearest rank directly.
    fn oracle(samples: &[u64], q: f64) -> u64 {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let idx = (q * sorted.len() as f64).ceil() as usize;
        sorted[idx.clamp(1, sorted.len()) - 1]
    }

    #[test]
    fn quantile_matches_sorted_oracle() {
        let mut rng = Rng::new(7);
        for n in [1usize, 2, 3, 10, 11, 999, 1000, 1001, 4096] {
            let samples: Vec<u64> = (0..n).map(|_| rng.below(500)).collect();
            for q in [0.001, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
                let mut work = samples.clone();
                assert_eq!(quantile(&mut work, q), oracle(&samples, q), "n={n} q={q}");
            }
        }
    }

    #[test]
    fn quantile_is_exact_on_round_counts() {
        let mut v: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile(&mut v, 0.999), 999);
        assert_eq!(quantile(&mut v, 0.5), 500);
        assert_eq!(quantile(&mut v, 1.0), 1000);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let mut v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&mut v);
        assert_eq!((t.q, t.value, t.beyond, t.n), (0.99, 990.0, 10, 1000));
        let mut v: Vec<f64> = (1..=250).map(f64::from).collect();
        assert_eq!(tail(&mut v).value, 240.0);
        let mut few: Vec<f64> = vec![3.0, 1.0, 2.0];
        let t = tail(&mut few);
        assert_eq!((t.q, t.value, t.beyond), (1.0, 3.0, 0));
    }

    #[test]
    fn rng_is_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = (0..4)
            .scan(Rng::new(1), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .scan(Rng::new(1), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..4)
            .scan(Rng::new(2), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn fnv_matches_reference_vector() {
        let mut h = Fnv::new();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
