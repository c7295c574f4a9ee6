//! Fixed-memory streaming histograms (DDSketch-style log buckets).
//!
//! [`StreamingHistogram`] replaces the unbounded raw-sample `Vec<f64>`
//! storage obs v1 used: samples are folded into logarithmically spaced
//! buckets so a histogram's memory is bounded by the number of *distinct
//! magnitudes* observed (at most a few hundred buckets over the full `f64`
//! range), not by the number of samples. A 1000-job batch therefore runs in
//! O(1) telemetry memory per histogram name.
//!
//! # Accuracy contract
//!
//! Buckets are sized with relative accuracy `ALPHA` (1%): bucket `i` covers
//! `(γ^(i-1), γ^i]` with `γ = (1 + α) / (1 − α)`, and every bucket reports
//! its midpoint representative `2γ^i / (γ + 1)`. Rank selection is exact
//! (bucket counts are integers), so any quantile estimate is the
//! representative of the bucket containing the true nearest-rank sample:
//!
//! > `|quantile_pct(q) − exact_q| ≤ ALPHA · |exact_q|`
//!
//! for samples within the clamp range. `count`, `min`, `max`, and the most
//! recent sample (`last`) are tracked exactly; the mean is computed from
//! bucket representatives (same ≤ `ALPHA` relative bound) so it is
//! bit-deterministic regardless of the order concurrent threads recorded
//! samples in. `NaN` samples are ignored. Tests check the estimates
//! against exact statistics they compute from their own copy of the
//! samples.

use std::collections::BTreeMap;

use crate::HistogramStats;

/// Relative accuracy of quantile estimates (1%).
pub const ALPHA: f64 = 0.01;

/// Bucket growth factor `γ = (1 + α) / (1 − α)`.
const GAMMA: f64 = (1.0 + ALPHA) / (1.0 - ALPHA);

/// Largest bucket key magnitude; `ln(f64::MAX) / ln(γ)` is ≈ 35 500 and
/// subnormals reach ≈ −37 300, so ±40 000 covers every finite `f64`.
const MAX_KEY: i32 = 40_000;

fn ln_gamma() -> f64 {
    GAMMA.ln()
}

fn bucket_key(magnitude: f64) -> i32 {
    let key = (magnitude.ln() / ln_gamma()).ceil();
    if key.is_nan() {
        0
    } else {
        (key.max(-(MAX_KEY as f64)).min(MAX_KEY as f64)) as i32
    }
}

fn representative(key: i32) -> f64 {
    2.0 * GAMMA.powi(key) / (GAMMA + 1.0)
}

/// A bounded-memory histogram with ~1% relative-error quantiles.
///
/// See the [module docs](self) for the accuracy contract.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingHistogram {
    count: u64,
    zeros: u64,
    min: f64,
    max: f64,
    last: f64,
    /// Bucket key → sample count for positive samples.
    pos: BTreeMap<i32, u64>,
    /// Bucket key (of `|v|`) → sample count for negative samples.
    neg: BTreeMap<i32, u64>,
}

impl Default for StreamingHistogram {
    fn default() -> Self {
        StreamingHistogram::new()
    }
}

impl StreamingHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        StreamingHistogram {
            count: 0,
            zeros: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            last: f64::NAN,
            pos: BTreeMap::new(),
            neg: BTreeMap::new(),
        }
    }

    /// Folds one sample in. `NaN` is ignored.
    pub fn record(&mut self, value: f64) {
        if value.is_nan() {
            return;
        }
        self.count += 1;
        self.last = value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if value == 0.0 {
            self.zeros += 1;
        } else if value > 0.0 {
            *self.pos.entry(bucket_key(value)).or_insert(0) += 1;
        } else {
            *self.neg.entry(bucket_key(-value)).or_insert(0) += 1;
        }
    }

    /// Folds another histogram's buckets into this one (used by rolling
    /// windows and by `pcd report` aggregation).
    pub fn merge(&mut self, other: &StreamingHistogram) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.zeros += other.zeros;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.last = other.last;
        for (k, c) in &other.pos {
            *self.pos.entry(*k).or_insert(0) += c;
        }
        for (k, c) in &other.neg {
            *self.neg.entry(*k).or_insert(0) += c;
        }
    }

    /// Number of samples recorded (exact).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest sample (exact), if any.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (exact), if any.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// The most recently recorded sample, bit-exact, if any.
    pub fn last(&self) -> Option<f64> {
        (self.count > 0).then_some(self.last)
    }

    /// Arithmetic mean over bucket representatives (≤ [`ALPHA`] relative
    /// error; deterministic under any thread interleaving), if any.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let mut sum = 0.0;
        for (k, c) in self.neg.iter().rev() {
            sum += (-representative(*k)).clamp(self.min, self.max) * *c as f64;
        }
        for (k, c) in &self.pos {
            sum += representative(*k).clamp(self.min, self.max) * *c as f64;
        }
        Some(sum / self.count as f64)
    }

    /// Nearest-rank percentile estimate (`pct` in `[0, 100]`), within
    /// [`ALPHA`] relative error of the exact nearest-rank value. Uses the
    /// same rank convention as obs v1: index `round(q · (n − 1))` of the
    /// sorted samples.
    pub fn quantile_pct(&self, pct: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((pct / 100.0).clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        // Ascending sample order: most-negative first (largest |v| bucket
        // key), then zeros, then positives ascending.
        for (k, c) in self.neg.iter().rev() {
            seen += c;
            if rank < seen {
                return Some((-representative(*k)).clamp(self.min, self.max));
            }
        }
        seen += self.zeros;
        if rank < seen {
            return Some(0.0);
        }
        for (k, c) in &self.pos {
            seen += c;
            if rank < seen {
                return Some(representative(*k).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Summary statistics (`count`/`min`/`max` exact, `mean`/percentiles
    /// within [`ALPHA`] relative error), if any samples were recorded.
    pub fn stats(&self) -> Option<HistogramStats> {
        if self.count == 0 {
            return None;
        }
        Some(HistogramStats {
            count: self.count,
            min: self.min,
            max: self.max,
            mean: self.mean().unwrap_or(0.0),
            p50: self.quantile_pct(50.0).unwrap_or(0.0),
            p90: self.quantile_pct(90.0).unwrap_or(0.0),
            p99: self.quantile_pct(99.0).unwrap_or(0.0),
        })
    }

    /// Number of occupied buckets (memory footprint proxy; bounded by the
    /// number of distinct sample magnitudes, not the sample count).
    pub fn bucket_count(&self) -> usize {
        self.pos.len() + self.neg.len() + usize::from(self.zeros > 0)
    }
}

/// A rolling window over [`StreamingHistogram`]s: the live window absorbs
/// new samples, [`RollingHistogram::roll`] retires it, and at most
/// `window_cap` retired windows are kept. [`RollingHistogram::windowed`]
/// merges the retained windows, giving "recent" statistics (e.g. attempt
/// latency over the last N progress ticks) in bounded memory.
#[derive(Debug, Clone)]
pub struct RollingHistogram {
    windows: std::collections::VecDeque<StreamingHistogram>,
    live: StreamingHistogram,
    window_cap: usize,
    total: StreamingHistogram,
}

impl RollingHistogram {
    /// A rolling histogram retaining at most `window_cap` retired windows
    /// (clamped to ≥ 1).
    pub fn new(window_cap: usize) -> Self {
        RollingHistogram {
            windows: std::collections::VecDeque::new(),
            live: StreamingHistogram::new(),
            window_cap: window_cap.max(1),
            total: StreamingHistogram::new(),
        }
    }

    /// Records into both the live window and the all-time total.
    pub fn record(&mut self, value: f64) {
        self.live.record(value);
        self.total.record(value);
    }

    /// Retires the live window, evicting the oldest retained window when
    /// more than `window_cap` would remain.
    pub fn roll(&mut self) {
        let retired = std::mem::take(&mut self.live);
        self.windows.push_back(retired);
        while self.windows.len() > self.window_cap {
            self.windows.pop_front();
        }
    }

    /// Statistics over the retained windows plus the live one.
    pub fn windowed(&self) -> StreamingHistogram {
        let mut merged = StreamingHistogram::new();
        for w in &self.windows {
            merged.merge(w);
        }
        merged.merge(&self.live);
        merged
    }

    /// All-time statistics (never evicted).
    pub fn total(&self) -> &StreamingHistogram {
        &self.total
    }
}
