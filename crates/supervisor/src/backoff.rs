//! Seedable exponential-backoff-plus-jitter retry ladder.
//!
//! Delays are *computed* deterministically from `(seed, attempt)` — the
//! jitter comes from the same SplitMix64 mixer as the fault plan, not from
//! wall-clock entropy — so a batch's retry schedule replays bit-for-bit.
//! Whether the supervisor actually *sleeps* the computed delay is a
//! policy knob: tests and the chaos harness run with `base_ms = 0` (no
//! sleeping, same retry counts), production batches space retries out.

use resilience::splitmix64;

/// Exponential backoff with deterministic jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffPolicy {
    /// Delay before the first retry, in milliseconds. `0` disables
    /// sleeping entirely (delays still compute, for the record).
    pub base_ms: u64,
    /// Multiplier per attempt (attempt `a` waits `base * factor^a`).
    pub factor: f64,
    /// Upper bound on any single delay.
    pub cap_ms: u64,
    /// Jitter fraction in `[0, 1]`: the delay is scaled by a
    /// deterministic factor drawn from `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base_ms: 0,
            factor: 2.0,
            cap_ms: 5_000,
            jitter: 0.25,
        }
    }
}

impl BackoffPolicy {
    /// The delay before retry `attempt` (0-based: attempt 0 is the delay
    /// before the first retry), deterministically jittered by
    /// `(seed, attempt)`.
    pub fn delay_ms(&self, seed: u64, attempt: usize) -> u64 {
        if self.base_ms == 0 {
            return 0;
        }
        let exp = self.factor.max(1.0).powi(attempt.min(32) as i32);
        let nominal = (self.base_ms as f64 * exp).min(self.cap_ms as f64);
        let jitter = self.jitter.clamp(0.0, 1.0);
        // Uniform in [0, 1) from the mixed key, mapped to [1-j, 1+j].
        let u = (splitmix64(seed ^ splitmix64(attempt as u64)) >> 11) as f64 / (1u64 << 53) as f64;
        let scale = 1.0 - jitter + 2.0 * jitter * u;
        (nominal * scale).min(self.cap_ms as f64).max(0.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> BackoffPolicy {
        BackoffPolicy {
            base_ms: 100,
            factor: 2.0,
            cap_ms: 1_000,
            jitter: 0.25,
        }
    }

    #[test]
    fn zero_base_never_sleeps() {
        let p = BackoffPolicy::default();
        for a in 0..10 {
            assert_eq!(p.delay_ms(42, a), 0);
        }
    }

    #[test]
    fn delays_grow_exponentially_until_the_cap() {
        let p = BackoffPolicy {
            jitter: 0.0,
            ..policy()
        };
        assert_eq!(p.delay_ms(1, 0), 100);
        assert_eq!(p.delay_ms(1, 1), 200);
        assert_eq!(p.delay_ms(1, 2), 400);
        assert_eq!(p.delay_ms(1, 10), 1_000, "capped");
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = policy();
        for attempt in 0..6 {
            let a = p.delay_ms(99, attempt);
            let b = p.delay_ms(99, attempt);
            assert_eq!(a, b, "same key, same delay");
            let nominal = (100.0 * 2f64.powi(attempt as i32)).min(1_000.0);
            assert!(
                (a as f64) >= nominal * 0.75 - 1.0 && (a as f64) <= nominal * 1.25 + 1.0,
                "attempt {attempt}: {a} outside ±25% of {nominal}"
            );
        }
        // Different seeds jitter differently somewhere in the ladder.
        assert!((0..6).any(|a| policy().delay_ms(1, a) != policy().delay_ms(2, a)));
    }
}
