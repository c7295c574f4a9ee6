//! Live batch progress tracking and emission.
//!
//! Workers update a shared [`ProgressTracker`] directly (no dependency on
//! obs tracing being enabled), and the engine's monitor thread
//! periodically calls [`ProgressTracker::emit`], which renders a
//! single-line stderr status (under `pcd batch --progress`) and emits
//! structured `supervisor.progress` events that land in the JSONL trace
//! under `--trace`.
//!
//! Per-stage latency statistics use [`obs::RollingHistogram`]s: each emit
//! rolls the live window, so the reported p50/p99 reflect recent attempts
//! (last [`WINDOWS`] ticks) while the all-time totals stay available to
//! `pcd report` via the trace events. Tracking never influences job
//! outcomes — the determinism contract only covers job records, and the
//! tracker only observes.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;

use obs::RollingHistogram;

/// Retired rolling windows kept per stage (one window per emit tick).
pub const WINDOWS: usize = 8;

#[derive(Debug)]
struct ProgressInner {
    queued: usize,
    running: usize,
    done: usize,
    quarantined: usize,
    shed: usize,
    pending: usize,
    retries: u64,
    stage_us: BTreeMap<&'static str, RollingHistogram>,
}

/// Shared, thread-safe batch progress state. See the [module docs](self).
#[derive(Debug)]
pub struct ProgressTracker {
    total: usize,
    inner: Mutex<ProgressInner>,
}

/// A point-in-time copy of the tracker, for rendering or assertions.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressSnapshot {
    /// Jobs in the batch.
    pub total: usize,
    /// Jobs not yet picked up by a worker.
    pub queued: usize,
    /// Jobs currently running.
    pub running: usize,
    /// Jobs completed.
    pub done: usize,
    /// Jobs quarantined.
    pub quarantined: usize,
    /// Jobs carried over as shed from a manifest an older build sealed.
    pub shed: usize,
    /// Jobs parked as pending by a drain.
    pub pending: usize,
    /// Attempt retries so far.
    pub retries: u64,
    /// Per-stage `(name, count, p50_us, p99_us)` over the rolling window.
    pub stages: Vec<(String, u64, f64, f64)>,
}

impl ProgressSnapshot {
    /// Renders the one-line stderr status (no trailing newline; the
    /// engine prefixes `\r` so successive emissions overwrite in place).
    pub fn render_line(&self) -> String {
        let mut line = format!(
            "[batch] {done}/{total} done  {running} running  {queued} queued  \
             {quarantined} quarantined  {shed} shed  {pending} pending  \
             retries {retries}",
            done = self.done,
            total = self.total,
            running = self.running,
            queued = self.queued,
            quarantined = self.quarantined,
            shed = self.shed,
            pending = self.pending,
            retries = self.retries,
        );
        if let Some((_, _, p50, p99)) = self.stages.iter().find(|(name, ..)| name == "attempt") {
            line.push_str(&format!(
                "  attempt p50 {:.0}ms p99 {:.0}ms",
                p50 / 1e3,
                p99 / 1e3
            ));
        }
        line
    }
}

impl ProgressTracker {
    /// A tracker for a batch of `total` jobs, all initially queued.
    pub fn new(total: usize) -> Self {
        ProgressTracker {
            total,
            inner: Mutex::new(ProgressInner {
                queued: total,
                running: 0,
                done: 0,
                quarantined: 0,
                shed: 0,
                pending: 0,
                retries: 0,
                stage_us: BTreeMap::new(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ProgressInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn bump(inner: &mut ProgressInner, label: &str) {
        match label {
            "done" => inner.done += 1,
            "quarantined" => inner.quarantined += 1,
            "shed" => inner.shed += 1,
            _ => inner.pending += 1,
        }
    }

    /// Records a job that reached `label` without ever running (terminal
    /// in a resume manifest, or drained pre-start).
    pub fn job_skipped(&self, label: &str) {
        let mut inner = self.lock();
        inner.queued = inner.queued.saturating_sub(1);
        Self::bump(&mut inner, label);
    }

    /// Marks one queued job as running.
    pub fn job_started(&self) {
        let mut inner = self.lock();
        inner.queued = inner.queued.saturating_sub(1);
        inner.running += 1;
    }

    /// Marks one running job as finished in state `label`, recording its
    /// wall time into the `job` stage histogram.
    pub fn job_finished(&self, label: &str, job_us: f64) {
        let mut inner = self.lock();
        inner.running = inner.running.saturating_sub(1);
        Self::bump(&mut inner, label);
        inner
            .stage_us
            .entry("job")
            .or_insert_with(|| RollingHistogram::new(WINDOWS))
            .record(job_us);
    }

    /// Counts one attempt retry.
    pub fn retry(&self) {
        self.lock().retries += 1;
    }

    /// Records a stage duration (µs) into that stage's rolling histogram.
    /// Stage names are static (`"chem"`, `"vqe"`, `"compile"`,
    /// `"attempt"`, `"job"`).
    pub fn stage_us(&self, stage: &'static str, us: f64) {
        self.lock()
            .stage_us
            .entry(stage)
            .or_insert_with(|| RollingHistogram::new(WINDOWS))
            .record(us);
    }

    /// A consistent copy of the current state.
    pub fn snapshot(&self) -> ProgressSnapshot {
        let inner = self.lock();
        let stages = inner
            .stage_us
            .iter()
            .filter_map(|(name, roll)| {
                let h = roll.windowed();
                let st = h.stats()?;
                Some((name.to_string(), st.count, st.p50, st.p99))
            })
            .collect();
        ProgressSnapshot {
            total: self.total,
            queued: inner.queued,
            running: inner.running,
            done: inner.done,
            quarantined: inner.quarantined,
            shed: inner.shed,
            pending: inner.pending,
            retries: inner.retries,
            stages,
        }
    }

    /// Emits one progress tick: a `supervisor.progress` event (plus one
    /// `supervisor.progress.stage` event per active stage) into the obs
    /// registry when tracing is enabled, an in-place stderr status line
    /// when `stderr` is set, and a window roll on every stage histogram.
    pub fn emit(&self, stderr: bool) -> ProgressSnapshot {
        let snap = self.snapshot();
        obs::event!(
            "supervisor.progress",
            total = snap.total,
            queued = snap.queued,
            running = snap.running,
            done = snap.done,
            quarantined = snap.quarantined,
            shed = snap.shed,
            pending = snap.pending,
            retries = snap.retries
        );
        for (name, count, p50, p99) in &snap.stages {
            obs::event!(
                "supervisor.progress.stage",
                stage = name.as_str(),
                count = *count,
                p50_us = *p50,
                p99_us = *p99
            );
        }
        if stderr {
            // Written, not `eprint!`ed: a closed stderr drops the line
            // rather than panicking.
            let _ = write!(std::io::stderr().lock(), "\r{}", snap.render_line());
        }
        let mut inner = self.lock();
        for roll in inner.stage_us.values_mut() {
            roll.roll();
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_counts_stay_consistent() {
        let t = ProgressTracker::new(4);
        t.job_skipped("shed");
        t.job_started();
        t.job_started();
        t.job_finished("done", 1500.0);
        t.retry();
        t.job_finished("quarantined", 9000.0);
        let s = t.snapshot();
        assert_eq!(
            (s.total, s.queued, s.running, s.done, s.quarantined, s.shed),
            (4, 1, 0, 1, 1, 1)
        );
        assert_eq!(s.retries, 1);
        let job = s.stages.iter().find(|(n, ..)| n == "job").unwrap();
        assert_eq!(job.1, 2);
    }

    #[test]
    fn emit_rolls_windows_and_renders() {
        let t = ProgressTracker::new(1);
        t.job_started();
        t.stage_us("attempt", 2000.0);
        let snap = t.emit(false);
        assert!(snap.render_line().contains("attempt p50"));
        // WINDOWS emits later, the old window has been evicted.
        for _ in 0..WINDOWS + 1 {
            t.emit(false);
        }
        let snap = t.snapshot();
        assert!(
            snap.stages.iter().all(|(n, ..)| n != "attempt"),
            "windowed attempt stats survived eviction: {:?}",
            snap.stages
        );
    }
}
