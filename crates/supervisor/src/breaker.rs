//! Per-stage circuit breaker.
//!
//! A job that keeps dying at the same pipeline stage is not going to be
//! saved by more retries — it is burning worker time the rest of the
//! queue needs. The breaker counts a job's failures per stage (SCF /
//! compile / VQE); the failure that brings a stage's count to the
//! threshold trips the breaker, and the supervisor fails the job fast
//! into quarantine instead of running its remaining retry budget. A
//! count never resets: every attempt of a job fails or finishes it.
//!
//! The gating breaker is **per job**: batch-wide gating on live
//! completion order would make one job's fate depend on scheduling, which
//! breaks the supervisor's worker-count determinism guarantee. Batch-wide
//! failure statistics are instead folded post-hoc in job-index order (see
//! the engine's report).

/// Pipeline stage a breaker guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Chemistry / SCF (including geometry faults).
    Scf,
    /// Circuit compilation.
    Compile,
    /// VQE optimization — also where panics and timeouts are attributed,
    /// since the worker boundary wraps the whole attempt.
    Vqe,
}

impl Stage {
    /// Maps an error's stage label onto a breaker stage. Unknown labels
    /// (panics, transients, timeouts) charge the VQE stage: the attempt
    /// boundary is the VQE slice loop.
    pub fn from_label(label: &str) -> Stage {
        match label {
            "chem" | "scf" => Stage::Scf,
            "compile" | "encoding" => Stage::Compile,
            _ => Stage::Vqe,
        }
    }

    /// Short name for events and reports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Scf => "scf",
            Stage::Compile => "compile",
            Stage::Vqe => "vqe",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Scf => 0,
            Stage::Compile => 1,
            Stage::Vqe => 2,
        }
    }
}

/// Per-stage failure-count circuit breaker over the three pipeline stages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitBreaker {
    threshold: usize,
    failures: [usize; 3],
}

impl CircuitBreaker {
    /// A breaker that trips on a stage's `threshold`-th failure (`0`
    /// disables the breaker).
    pub fn new(threshold: usize) -> Self {
        Self::restore(threshold, [0; 3])
    }

    /// Records a failure at `stage`. Returns `true` when the stage's
    /// count has reached the threshold: the job must fail fast.
    pub fn record_failure(&mut self, stage: Stage) -> bool {
        let i = stage.index();
        self.failures[i] += 1;
        if self.threshold > 0 && self.failures[i] >= self.threshold {
            obs::counter_add("supervisor.breaker_opened", 1);
            // `consecutive` is the trace's established key for the count.
            obs::event!(
                "supervisor.breaker_open",
                stage = stage.name(),
                consecutive = self.failures[i]
            );
            return true;
        }
        false
    }

    /// The failure counts per stage, in SCF / compile / VQE order — what a
    /// drained job's manifest records.
    pub fn snapshot(&self) -> [usize; 3] {
        self.failures
    }

    /// Rebuilds a breaker from a manifest snapshot. A `Pending` job never
    /// has a tripped breaker (tripping quarantines immediately), so the
    /// counts are all that needs restoring.
    pub fn restore(threshold: usize, failures: [usize; 3]) -> Self {
        CircuitBreaker {
            threshold,
            failures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opens_after_threshold_consecutive_failures() {
        let mut b = CircuitBreaker::new(3);
        assert!(!b.record_failure(Stage::Scf));
        assert!(!b.record_failure(Stage::Scf));
        assert!(b.record_failure(Stage::Scf), "third consecutive opens");
        assert!(!b.record_failure(Stage::Vqe));
    }

    #[test]
    fn stages_are_independent() {
        let mut b = CircuitBreaker::new(2);
        assert!(!b.record_failure(Stage::Scf));
        assert!(!b.record_failure(Stage::Compile));
        assert!(!b.record_failure(Stage::Vqe), "no stage has two failures");
    }

    #[test]
    fn zero_threshold_disables() {
        let mut b = CircuitBreaker::new(0);
        for _ in 0..100 {
            assert!(!b.record_failure(Stage::Vqe));
        }
    }

    #[test]
    fn label_mapping_charges_unknowns_to_vqe() {
        assert_eq!(Stage::from_label("scf"), Stage::Scf);
        assert_eq!(Stage::from_label("chem"), Stage::Scf);
        assert_eq!(Stage::from_label("compile"), Stage::Compile);
        assert_eq!(Stage::from_label("panic"), Stage::Vqe);
        assert_eq!(Stage::from_label("timeout"), Stage::Vqe);
    }
}
