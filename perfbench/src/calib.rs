//! Host-speed calibration.
//!
//! The benchmark shares its host with other tenants, whose load takes a
//! varying share of the CPU's throughput for minutes at a time: the same
//! pass can take twice as long in one minute as in the next, with on-CPU
//! time tracking wall time. A fixed reference kernel, run between the
//! operations, measures that share as it changes. Every host time of the
//! end-to-end run is scaled by `REFERENCE_S / kernel time`, so it reads
//! as the time on a host where the kernel takes `REFERENCE_S`.
//!
//! The kernel is the benchmark's own code and calls nothing of the
//! simulator, so a change to the simulator moves the scaled times and
//! leaves the scale alone. Like the simulator it is branchy integer work
//! over hashed tables: a dependent walk with writes over a 1 MiB table,
//! and churn in a `HashMap`. An operation leaves the table cold, so the
//! kernel's first run after one also times refills from the shared
//! caches, where the co-tenants' load shows most.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// The kernel's time on the reference host, seconds: about its median on
/// an unloaded 2-core x86-64 Linux host, release build. Only the ratio
/// to a measured kernel time enters a metric.
pub const REFERENCE_S: f64 = 250e-6;

/// Table words of the dependent walk: 1 MiB.
const TABLE_WORDS: usize = 1 << 17;
const WALK_STEPS: u32 = 12_000;
const MAP_KEYS: u64 = 2_048;
const MAP_STEPS: u64 = 3_000;
/// Kernel runs per sample, timed together. A sample is their mean, not
/// the fastest: the host's speed also changes within a millisecond, and
/// the simulator's operations see the average speed, so the kernel must
/// too. The median over a pass's samples discards an interrupted one.
const RUNS_PER_SAMPLE: usize = 2;

/// The kernel's state, kept between samples so a sample allocates
/// nothing. The map's hasher has fixed keys, so every run hashes alike.
pub struct Calibrator {
    table: Vec<u64>,
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    checksum: Option<u64>,
}

impl Calibrator {
    pub fn new() -> Self {
        Calibrator {
            table: vec![0; TABLE_WORDS],
            map: HashMap::with_capacity_and_hasher(MAP_KEYS as usize * 2, Default::default()),
            checksum: None,
        }
    }

    /// One run of the kernel from a fixed start state, returning its
    /// checksum.
    fn kernel(&mut self) -> u64 {
        let mask = TABLE_WORDS as u64 - 1;
        for (i, w) in self.table.iter_mut().enumerate() {
            *w = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
        let (mut x, mut at, mut sum) = (0x2545_f491_4f6c_dd1du64, 0u64, 0u64);
        for _ in 0..WALK_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let w = self.table[at as usize];
            if w & 3 == 0 {
                sum = sum.wrapping_add(w >> 2);
            } else {
                sum ^= w.rotate_left((x & 63) as u32);
            }
            self.table[at as usize] = w ^ x;
            at = (w ^ (x >> 11)) & mask;
        }
        self.map.clear();
        for step in 0..MAP_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % MAP_KEYS;
            match self.map.get_mut(&key) {
                Some(v) if step % 3 == 0 => {
                    sum = sum.wrapping_add(*v);
                    self.map.remove(&key);
                }
                Some(v) => *v = v.wrapping_add(step),
                None => {
                    self.map.insert(key, x);
                }
            }
        }
        sum ^ self.map.len() as u64
    }

    /// Seconds the kernel takes now: the mean of a few runs.
    ///
    /// # Panics
    ///
    /// Panics if the kernel's checksum changes between runs, which would
    /// mean it no longer does fixed work.
    pub fn sample(&mut self) -> f64 {
        let start = Instant::now();
        for _ in 0..RUNS_PER_SAMPLE {
            let sum = black_box(self.kernel());
            let want = *self.checksum.get_or_insert(sum);
            assert_eq!(sum, want, "the calibration kernel's work changed");
        }
        start.elapsed().as_secs_f64() / RUNS_PER_SAMPLE as f64
    }

    /// The factor that turns host seconds measured next to `samples`
    /// into reference-host seconds.
    pub fn scale(samples: &[f64]) -> f64 {
        REFERENCE_S / median(samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_does_the_same_work_every_run() {
        let mut c = Calibrator::new();
        let first = c.kernel();
        assert_eq!(c.kernel(), first);
        assert!(c.sample() > 0.0);
    }

    #[test]
    fn scale_is_one_at_reference_speed() {
        assert_eq!(Calibrator::scale(&[REFERENCE_S, 1.0, 0.0]), 1.0);
        assert_eq!(Calibrator::scale(&[2.0 * REFERENCE_S]), 0.5);
    }
}
