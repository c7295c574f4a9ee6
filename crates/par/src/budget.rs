//! Cooperative execution budgets: wall-clock deadlines and iteration caps.
//!
//! Long-running stages (L-BFGS VQE iterations, Monte-Carlo chunk waves)
//! poll a shared [`Budget`] at their natural loop boundaries.
//! When the budget expires the stage stops *cooperatively*: it snapshots its
//! loop state and returns an `Interrupted` outcome instead of panicking or
//! being killed mid-write. Two independent limits compose:
//!
//! - a **wall-clock deadline** (non-deterministic, for production `--deadline`
//!   runs), and
//! - a **tick cap** (deterministic, for tests and the kill-and-resume chaos
//!   harness — "die after exactly k iterations" reproduces bit-for-bit).
//!
//! A `Budget` is cheap to poll (`Instant::now` + one atomic increment) and
//! shareable by reference across threads. [`Budget::unlimited`] never
//! expires, so budget-aware code paths cost nothing for ordinary callers.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A cooperative wall-clock + iteration budget.
///
/// `tick()` is called once per unit of work (one L-BFGS iteration, one
/// Monte-Carlo chunk wave). The budget expires when
/// either the deadline passes or the tick cap is exhausted; expiry is
/// sticky — once expired, a budget stays expired.
#[derive(Debug)]
pub struct Budget {
    /// When the budget was created — the origin for wall-clock fractions.
    start: Instant,
    deadline: Option<Instant>,
    max_ticks: Option<u64>,
    ticks: AtomicU64,
    expired: AtomicBool,
}

impl Budget {
    /// A budget that never expires.
    pub fn unlimited() -> Self {
        Budget {
            start: Instant::now(),
            deadline: None,
            max_ticks: None,
            ticks: AtomicU64::new(0),
            expired: AtomicBool::new(false),
        }
    }

    /// A budget that expires `limit` after now.
    pub fn wall_clock(limit: Duration) -> Self {
        Budget {
            deadline: Some(Instant::now() + limit),
            ..Budget::unlimited()
        }
    }

    /// A budget that expires at an absolute instant (used to share one
    /// deadline across sequential pipeline stages).
    pub fn until(deadline: Instant) -> Self {
        Budget {
            deadline: Some(deadline),
            ..Budget::unlimited()
        }
    }

    /// A deterministic budget that expires after `n` ticks.
    pub fn max_ticks(n: u64) -> Self {
        Budget {
            max_ticks: Some(n),
            ..Budget::unlimited()
        }
    }

    /// Adds a tick cap to an existing budget (both limits then apply).
    pub fn with_max_ticks(mut self, n: u64) -> Self {
        self.max_ticks = Some(n);
        self
    }

    /// Consumes one tick. Returns `true` while the budget still has room,
    /// `false` once it has expired (the tick that hits the cap is the last
    /// one allowed to run; the *next* poll reports expiry).
    pub fn tick(&self) -> bool {
        let used = self.ticks.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(cap) = self.max_ticks {
            if used > cap {
                self.mark_expired();
                return false;
            }
        }
        if self.past_deadline() {
            self.mark_expired();
            return false;
        }
        true
    }

    /// Whether the budget has expired (without consuming a tick).
    pub fn is_expired(&self) -> bool {
        if self.expired.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(cap) = self.max_ticks {
            if self.ticks.load(Ordering::Relaxed) >= cap {
                self.mark_expired();
                return true;
            }
        }
        if self.past_deadline() {
            self.mark_expired();
            return true;
        }
        false
    }

    /// Ticks consumed so far.
    pub fn ticks_used(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// Fraction of the budget remaining in `[0, 1]`, or `None` when the
    /// budget is unlimited. With both limits active, the scarcer resource
    /// wins (the minimum of the two fractions). Degradation policies use
    /// this to decide when to start shedding work.
    pub fn remaining_fraction(&self) -> Option<f64> {
        let tick_frac = self.max_ticks.map(|cap| {
            if cap == 0 {
                0.0
            } else {
                let used = self.ticks.load(Ordering::Relaxed).min(cap);
                (cap - used) as f64 / cap as f64
            }
        });
        let wall_frac = self.deadline.map(|d| {
            let now = Instant::now();
            if now >= d {
                return 0.0;
            }
            let span = (d - self.start).as_secs_f64();
            if span <= 0.0 {
                0.0
            } else {
                ((d - now).as_secs_f64() / span).clamp(0.0, 1.0)
            }
        });
        match (tick_frac, wall_frac) {
            (None, None) => None,
            (Some(t), None) => Some(t),
            (None, Some(w)) => Some(w),
            (Some(t), Some(w)) => Some(t.min(w)),
        }
    }

    /// Wall-clock time remaining before the deadline, or `None` when no
    /// deadline is set. Zero once the deadline has passed.
    pub fn remaining_wall_clock(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    fn past_deadline(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    fn mark_expired(&self) {
        if !self.expired.swap(true, Ordering::Relaxed) {
            obs::counter_add("budget.expired", 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_expires() {
        let b = Budget::unlimited();
        for _ in 0..10_000 {
            assert!(b.tick());
        }
        assert!(!b.is_expired());
        assert_eq!(b.remaining_fraction(), None);
    }

    #[test]
    fn tick_cap_expires_deterministically() {
        let b = Budget::max_ticks(3);
        assert!(b.tick());
        assert!(b.tick());
        assert!(b.tick());
        assert!(!b.tick(), "fourth tick exceeds the cap");
        assert!(b.is_expired());
        assert!(!b.tick(), "expiry is sticky");
    }

    #[test]
    fn zero_tick_budget_is_born_expired() {
        let b = Budget::max_ticks(0);
        assert!(b.is_expired());
        assert!(!b.tick());
    }

    #[test]
    fn past_deadline_expires() {
        let b = Budget::wall_clock(Duration::from_secs(0));
        assert!(b.is_expired());
        assert!(!b.tick());
        assert_eq!(b.remaining_wall_clock(), Some(Duration::ZERO));
    }

    #[test]
    fn generous_deadline_does_not_expire() {
        let b = Budget::wall_clock(Duration::from_secs(3600));
        assert!(b.tick());
        assert!(!b.is_expired());
        assert!(b.remaining_wall_clock().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn remaining_fraction_tracks_tick_usage() {
        let b = Budget::max_ticks(10);
        assert_eq!(b.remaining_fraction(), Some(1.0));
        for _ in 0..5 {
            b.tick();
        }
        assert_eq!(b.remaining_fraction(), Some(0.5));
        for _ in 0..5 {
            b.tick();
        }
        assert_eq!(b.remaining_fraction(), Some(0.0));
    }

    #[test]
    fn combined_limits_take_the_scarcer() {
        let b = Budget::wall_clock(Duration::from_secs(3600)).with_max_ticks(4);
        for _ in 0..4 {
            assert!(b.tick());
        }
        assert!(b.is_expired(), "tick cap expires first");
    }
}
