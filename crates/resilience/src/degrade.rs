//! Graceful degradation under a shrinking budget.
//!
//! When a run is close to its deadline, finishing with a cheaper answer
//! beats being interrupted with none. A [`DegradationLadder`] declares the
//! acceptable work sizes for one knob (Monte-Carlo samples, measurement
//! shots) from full fidelity down to the cheapest acceptable level, and a
//! [`DegradationPolicy`] maps the budget's remaining fraction onto a rung.
//! Every downgrade is recorded as an obs event (`degrade.step`) and counter
//! (`degrade.steps`), so a trace shows exactly what fidelity was shed and
//! when.

use par::Budget;

/// A descending ladder of work sizes for one degradable knob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradationLadder {
    /// Knob name, used in obs events (`"yield.samples"`, `"vqe.shots"`).
    pub name: String,
    /// Acceptable work sizes, full fidelity first, strictly descending.
    pub levels: Vec<usize>,
}

impl DegradationLadder {
    /// A ladder for `name` with the given levels.
    ///
    /// # Panics
    ///
    /// Panics unless `levels` is non-empty and strictly descending.
    pub fn new(name: impl Into<String>, levels: Vec<usize>) -> Self {
        assert!(!levels.is_empty(), "a ladder needs at least one level");
        assert!(
            levels.windows(2).all(|w| w[0] > w[1]),
            "ladder levels must be strictly descending"
        );
        DegradationLadder {
            name: name.into(),
            levels,
        }
    }

    /// The full-fidelity (top) level.
    pub fn full(&self) -> usize {
        self.levels[0]
    }
}

/// Maps remaining budget onto a ladder rung.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationPolicy {
    /// The knob being degraded.
    pub ladder: DegradationLadder,
    /// Remaining-budget fraction below which degradation starts, in
    /// `(0, 1]`. Above it (or with an unlimited budget) the full level is
    /// used.
    pub threshold: f64,
}

impl DegradationPolicy {
    /// A policy degrading `ladder` once the budget's remaining fraction
    /// drops below `threshold`.
    ///
    /// # Panics
    ///
    /// Panics unless `threshold` is in `(0, 1]`.
    pub fn new(ladder: DegradationLadder, threshold: f64) -> Self {
        assert!(
            threshold > 0.0 && threshold <= 1.0,
            "degradation threshold must be in (0, 1]"
        );
        DegradationPolicy { ladder, threshold }
    }

    /// Selects the work size for the current budget state. Unlimited
    /// budgets and budgets above the threshold get full fidelity; below it,
    /// rungs are taken progressively as the remaining fraction approaches
    /// zero. Each downgrade is recorded in obs.
    pub fn select(&self, budget: &Budget) -> usize {
        let full = self.ladder.full();
        let Some(frac) = budget.remaining_fraction() else {
            return full;
        };
        if frac >= self.threshold {
            return full;
        }
        let rungs = self.ladder.levels.len();
        if rungs == 1 {
            return full;
        }
        // How far below the threshold we are, in [0, 1): 0 just below the
        // threshold, → 1 as the budget runs dry.
        let depth = 1.0 - (frac / self.threshold).clamp(0.0, 1.0);
        let step = 1 + (depth * (rungs - 1) as f64).floor() as usize;
        let rung = step.min(rungs - 1);
        let level = self.ladder.levels[rung];
        obs::counter_add("degrade.steps", 1);
        obs::event_fields(
            "degrade.step",
            vec![
                (
                    "knob".to_string(),
                    obs::Value::from(self.ladder.name.as_str()),
                ),
                ("from".to_string(), obs::Value::from(full)),
                ("to".to_string(), obs::Value::from(level)),
                ("remaining_fraction".to_string(), obs::Value::from(frac)),
            ],
        );
        level
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> DegradationPolicy {
        DegradationPolicy::new(
            DegradationLadder::new("yield.samples", vec![20_000, 5_000, 1_000]),
            0.5,
        )
    }

    #[test]
    fn unlimited_budget_gets_full_fidelity() {
        let _gate = crate::obs_gate();
        assert_eq!(policy().select(&Budget::unlimited()), 20_000);
    }

    #[test]
    fn budget_above_threshold_gets_full_fidelity() {
        let _gate = crate::obs_gate();
        let b = Budget::max_ticks(10);
        for _ in 0..2 {
            b.tick();
        }
        // 80% remaining, threshold 50%.
        assert_eq!(policy().select(&b), 20_000);
    }

    #[test]
    fn budget_below_threshold_steps_down_the_ladder() {
        let _gate = crate::obs_gate();
        let b = Budget::max_ticks(10);
        for _ in 0..6 {
            b.tick();
        }
        // 40% remaining: just below the 50% threshold → first downgrade.
        assert_eq!(policy().select(&b), 5_000);
        for _ in 0..4 {
            b.tick();
        }
        // Exhausted → bottom rung.
        assert_eq!(policy().select(&b), 1_000);
    }

    #[test]
    fn downgrades_are_counted_in_obs() {
        let _gate = crate::obs_gate();
        obs::reset();
        obs::enable();
        let b = Budget::max_ticks(10);
        for _ in 0..10 {
            b.tick();
        }
        policy().select(&b);
        assert_eq!(obs::snapshot().counter("degrade.steps"), 1);
        obs::disable();
        obs::reset();
    }

    #[test]
    #[should_panic]
    fn non_descending_ladder_is_rejected() {
        DegradationLadder::new("bad", vec![10, 10]);
    }

    #[test]
    #[should_panic]
    fn zero_threshold_is_rejected() {
        DegradationPolicy::new(DegradationLadder::new("x", vec![1]), 0.0);
    }
}
