//! A mergeable streaming quantile sketch with a guaranteed relative
//! error bound (DDSketch-style log bucketing, pure-integer mapping).
//!
//! It is the workspace's one estimator of page-wait distributions:
//! summary percentiles and far tails, time-series windows, Prometheus
//! quantiles, heat refault intervals and `explain`'s tails all read it.
//! A sparse store keeps a sketch small whether it holds one run or one
//! of thousands of per-window partials:
//!
//! * 128 linear sub-buckets per power-of-two octave, so any reported
//!   quantile (the bucket *midpoint* of the exact order statistic's
//!   bucket) is within [`QuantileSketch::MAX_RELATIVE_ERROR`] = 1/256
//!   (≈0.4%) of the true value on either side — values below 128 are
//!   exact.
//! * Deterministic, exactly commutative and associative merges: the
//!   whole `u64` range maps to fewer than 7 500 bucket indices, so no
//!   bucket collapsing is ever needed and a merge is a plain sum of
//!   sparse count lists. Two sketches built from the same multiset of
//!   samples are `==` whatever the recording or merge order, which is
//!   what lets per-thread and per-node partials roll up byte-stably.
//! * Exact `count`, `sum`, `min` and `max`, so the extreme statistics
//!   are never quantized (and `quantile(1.0)` is the true maximum).

/// Sub-bucket resolution: 2^7 = 128 linear sub-buckets per octave.
const SUB_BITS: u32 = 7;
const SUBS: u64 = 1 << SUB_BITS;

/// Bucket index of a value (values below [`SUBS`] map to themselves).
fn index_of(v: u64) -> u32 {
    if v < SUBS {
        return v as u32;
    }
    let msb = 63 - v.leading_zeros();
    let octave = msb - SUB_BITS + 1;
    let sub = ((v >> (octave - 1)) - SUBS) as u32;
    octave * SUBS as u32 + sub
}

/// Inclusive lower bound of a bucket.
fn low_of(index: u32) -> u64 {
    let index = u64::from(index);
    if index < SUBS {
        return index;
    }
    let octave = index / SUBS;
    let sub = index % SUBS;
    (SUBS + sub) << (octave - 1)
}

/// The value a bucket reports: its midpoint, so the error is two-sided
/// (half a bucket width each way) instead of a full width one-sided.
/// Buckets below [`SUBS`] hold a single value and report it exactly.
fn mid_of(index: u32) -> u64 {
    let i = u64::from(index);
    if i < SUBS {
        return i;
    }
    let octave = (i / SUBS) as u32;
    // Every sub-bucket of octave `o` spans 2^(o-1) values.
    low_of(index) + (1u64 << (octave - 1)) / 2
}

/// Samples a sketch buffers before folding them into its sorted
/// bucket list, at least. A record is then a push; the buffer may grow
/// to the list's length before a fold sorts it and merges it in one
/// pass, so a sample costs O(log n) however many buckets the sketch
/// holds, and the buffer never outgrows the list it feeds.
const MIN_PENDING: usize = 256;

/// Merges two `(index, count)` sequences, each ascending by index,
/// into one sorted list with one entry per index (counts of equal
/// indices add).
pub(crate) fn merge_counts<C: Copy + std::ops::AddAssign>(
    a: impl IntoIterator<Item = (u32, C)>,
    b: impl IntoIterator<Item = (u32, C)>,
) -> Vec<(u32, C)> {
    let (mut a, mut b) = (a.into_iter().peekable(), b.into_iter().peekable());
    let mut out: Vec<(u32, C)> = Vec::with_capacity(a.size_hint().0 + b.size_hint().0);
    loop {
        let next = match (a.peek(), b.peek()) {
            (Some(x), Some(y)) if x.0 <= y.0 => a.next(),
            (_, Some(_)) => b.next(),
            (Some(_), None) => a.next(),
            (None, None) => return out,
        };
        let (idx, count) = next.expect("peeked");
        match out.last_mut() {
            Some(last) if last.0 == idx => last.1 += count,
            _ => out.push((idx, count)),
        }
    }
}

/// Sorted bucket indices as `(index, 1)` entries for [`merge_counts`].
fn ones(sorted: impl IntoIterator<Item = u32>) -> impl Iterator<Item = (u32, u64)> {
    sorted.into_iter().map(|idx| (idx, 1))
}

/// A sparse, mergeable log-bucketed quantile sketch of `u64` samples
/// (nanoseconds in this workspace, but unit-agnostic).
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    /// `(bucket index, count)` pairs, sorted by index, counts > 0.
    buckets: Vec<(u32, u64)>,
    /// Bucket indices of samples not yet added to `buckets` (at most
    /// [`MIN_PENDING`] or `buckets.len()`, whichever is larger);
    /// readers see them through `folded`.
    pending: Vec<u32>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

/// `default()` is [`QuantileSketch::new`]. (A derived `Default` would
/// zero the `min` sentinel that `new` pins to `u64::MAX`, making every
/// later `min()` report 0 — so the empty states must coincide for
/// sketches reached through `Default`, e.g. inside `entry().or_default()`
/// accumulators, to behave.)
impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl QuantileSketch {
    /// Worst-case relative error of any reported quantile against the
    /// exact order statistic it targets: half a sub-bucket width over
    /// the bucket's lower bound, `1 / (2 * 128)`.
    pub const MAX_RELATIVE_ERROR: f64 = 1.0 / 256.0;

    /// An empty sketch.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: Vec::new(),
            pending: Vec::new(),
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        if self.pending.len() >= self.buckets.len().max(MIN_PENDING) {
            self.fold_pending();
        }
        self.pending.push(index_of(v));
        self.total += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether no samples were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact smallest sample, or 0 when empty.
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest sample, or 0 when empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean of the samples, or 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Exact sum of the samples.
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// The value at quantile `q` in `[0, 1]`: the midpoint of the
    /// bucket holding the `ceil(q * count)`-th smallest sample, clamped
    /// to the exact min/max. Within [`Self::MAX_RELATIVE_ERROR`] of the
    /// exact order statistic on either side; 0 for an empty sketch.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        if rank >= self.total {
            return self.max;
        }
        let mut seen = 0u64;
        for &(idx, c) in self.folded().iter() {
            seen += c;
            if seen >= rank {
                return mid_of(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merge another sketch into this one. Exactly commutative and
    /// associative: the result is the sketch that would have recorded
    /// the combined sample multiset directly, so any merge tree over
    /// any partition of the samples yields `==` sketches.
    pub fn merge(&mut self, other: &QuantileSketch) {
        if other.total == 0 {
            return;
        }
        self.fold_pending();
        self.buckets = merge_counts(self.buckets.iter().copied(), other.folded().iter().copied());
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(lower bound, count)` pairs, ascending.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.folded()
            .into_owned()
            .into_iter()
            .map(|(i, c)| (low_of(i), c))
    }

    fn fold_pending(&mut self) {
        self.pending.sort_unstable();
        self.buckets = merge_counts(self.buckets.iter().copied(), ones(self.pending.drain(..)));
    }

    /// The sorted bucket list with the pending samples added (borrowed
    /// when nothing is pending).
    fn folded(&self) -> std::borrow::Cow<'_, [(u32, u64)]> {
        if self.pending.is_empty() {
            std::borrow::Cow::Borrowed(&self.buckets)
        } else {
            let mut pending = self.pending.clone();
            pending.sort_unstable();
            std::borrow::Cow::Owned(merge_counts(self.buckets.iter().copied(), ones(pending)))
        }
    }
}

/// Two sketches are equal when they hold the same sample multiset,
/// however much of it is still pending.
impl PartialEq for QuantileSketch {
    fn eq(&self, other: &Self) -> bool {
        self.total == other.total
            && self.sum == other.sum
            && self.min == other.min
            && self.max == other.max
            && self.folded() == other.folded()
    }
}

impl Eq for QuantileSketch {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn small_values_are_exact() {
        let mut s = QuantileSketch::new();
        for v in 0..SUBS {
            s.record(v);
            assert_eq!(u64::from(index_of(v)), v);
            assert_eq!(mid_of(v as u32), v);
        }
        assert_eq!(s.count(), SUBS);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), SUBS - 1);
        // Every quantile of 0..=127 is the exact order statistic.
        for step in 1..=10 {
            let q = f64::from(step) / 10.0;
            let rank = ((q * SUBS as f64).ceil() as u64).max(1);
            assert_eq!(s.quantile(q), rank - 1, "q={q}");
        }
    }

    #[test]
    fn empty_sketch_is_zeroed() {
        let s = QuantileSketch::new();
        assert!(s.is_empty());
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.quantile(0.999), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn tail_quantiles_on_known_distribution() {
        let mut s = QuantileSketch::new();
        for v in 1..=10_000u64 {
            s.record(v * 1_000);
        }
        for (q, exact) in [
            (0.5, 5_000_000.0),
            (0.999, 9_990_000.0),
            (0.9999, 9_999_000.0),
        ] {
            let got = s.quantile(q) as f64;
            let err = (got - exact).abs() / exact;
            assert!(
                err <= QuantileSketch::MAX_RELATIVE_ERROR,
                "q={q}: got {got}, exact {exact}, err {err}"
            );
        }
        assert_eq!(s.quantile(1.0), 10_000_000);
        assert_eq!(s.max(), 10_000_000);
    }

    proptest! {
        /// The reported value of every bucket is within 1/256 of every
        /// value the bucket can hold — the sketch's error bound, checked
        /// directly on the mapping under adversarial values.
        #[test]
        fn bucket_midpoint_error_bounded(v in 1u64..u64::MAX / 2) {
            let idx = index_of(v);
            let low = low_of(idx);
            prop_assert!(low <= v, "low({idx}) = {low} > {v}");
            let mid = mid_of(idx);
            let err = (v as f64 - mid as f64).abs() / v as f64;
            prop_assert!(
                err <= QuantileSketch::MAX_RELATIVE_ERROR,
                "err {err} for {v} (mid {mid})"
            );
        }

        /// Quantiles stay within the bound against the exact order
        /// statistic under adversarial inputs spanning many octaves.
        #[test]
        fn quantile_error_bounded_adversarially(
            mut samples in prop::collection::vec(1u64..u64::MAX / 4, 1..200),
        ) {
            let mut s = QuantileSketch::new();
            for &v in &samples {
                s.record(v);
            }
            samples.sort_unstable();
            for step in 0..=20 {
                let q = f64::from(step) / 20.0;
                let rank = ((q * samples.len() as f64).ceil() as usize).max(1);
                let exact = samples[rank - 1] as f64;
                let got = s.quantile(q) as f64;
                let err = (got - exact).abs() / exact;
                prop_assert!(
                    err <= QuantileSketch::MAX_RELATIVE_ERROR,
                    "q={q}: got {got}, exact {exact}, err {err}"
                );
            }
            prop_assert_eq!(s.quantile(1.0), *samples.last().unwrap());
            prop_assert_eq!(s.min(), samples[0]);
        }

        /// Merge is exactly commutative and associative, and any merge
        /// grouping equals direct recording — the determinism the
        /// scheduler relies on when rolling per-thread partials up.
        #[test]
        fn merge_commutative_and_associative(
            xs in prop::collection::vec(0u64..u64::MAX / 4, 0..100),
            ys in prop::collection::vec(0u64..u64::MAX / 4, 0..100),
            zs in prop::collection::vec(0u64..u64::MAX / 4, 0..100),
        ) {
            let of = |vals: &[u64]| {
                let mut s = QuantileSketch::new();
                for &v in vals {
                    s.record(v);
                }
                s
            };
            let (a, b, c) = (of(&xs), of(&ys), of(&zs));

            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            prop_assert_eq!(&ab, &ba);

            let mut ab_c = ab.clone();
            ab_c.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut a_bc = a.clone();
            a_bc.merge(&bc);
            prop_assert_eq!(&ab_c, &a_bc);

            let mut all: Vec<u64> = xs.clone();
            all.extend(&ys);
            all.extend(&zs);
            let direct = of(&all);
            prop_assert_eq!(&ab_c, &direct);
            prop_assert_eq!(ab_c.count(), all.len() as u64);
            prop_assert_eq!(
                ab_c.sum(),
                all.iter().map(|&v| u128::from(v)).sum::<u128>()
            );
        }

        /// Quantile is monotone in q and bounded by the exact extremes.
        #[test]
        fn quantile_monotone(samples in prop::collection::vec(0u64..10_000_000, 1..200)) {
            let mut s = QuantileSketch::new();
            for &v in &samples {
                s.record(v);
            }
            let mut last = 0u64;
            for step in 0..=20 {
                let q = f64::from(step) / 20.0;
                let v = s.quantile(q);
                prop_assert!(v >= last, "quantile not monotone at q={q}");
                prop_assert!(v >= s.min() && v <= s.max());
                last = v;
            }
        }
    }
}
