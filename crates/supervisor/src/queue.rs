//! The two-lane work queue.
//!
//! [`JobQueue`] is the runtime queue workers pull from: `pop` blocks until
//! work or close, and the fast lane drains before the slow one. The batch
//! engine preloads it with every job it owns and the serve daemon pushes
//! every connection it accepts, so the queue never bounds or sheds.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Fast-lane threshold: jobs whose molecule is expected to need at most
/// this many qubits ride the fast lane (H2 and LiH under the paper's
/// Table I sizes). Everything larger is a long VQE run and takes the slow
/// lane so it cannot head-of-line-block the short jobs.
pub const FAST_LANE_MAX_QUBITS: usize = 6;

/// Which of the two priority lanes a job rides in.
///
/// Lane choice affects *scheduling latency only*: every job outcome is a
/// pure function of its arrival index and spec, so records are
/// bit-identical whichever lane ran first — the worker-count-invariance
/// test pins this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Short jobs, drained before any slow-lane work.
    Fast,
    /// Long VQE runs (and the default for unclassified pushes).
    Slow,
}

impl Lane {
    /// Lane label used in events and counters.
    pub fn name(self) -> &'static str {
        match self {
            Lane::Fast => "fast",
            Lane::Slow => "slow",
        }
    }

    /// Classifies a job by its expected qubit count.
    pub fn for_qubits(expected_qubits: usize) -> Self {
        if expected_qubits <= FAST_LANE_MAX_QUBITS {
            Lane::Fast
        } else {
            Lane::Slow
        }
    }
}

struct Lanes<T> {
    fast: VecDeque<T>,
    slow: VecDeque<T>,
    closed: bool,
}

/// A multi-producer multi-consumer queue with two priority lanes: `pop`
/// always drains the fast lane first, FIFO within each lane. It holds
/// job indices in the batch engine, which preloads every job it owns, and
/// connections in the serve daemon. It is unbounded and never sheds.
pub struct JobQueue<T = usize> {
    state: Mutex<Lanes<T>>,
    ready: Condvar,
}

impl<T> std::fmt::Debug for JobQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.lock();
        f.debug_struct("JobQueue")
            .field("fast", &state.fast.len())
            .field("slow", &state.slow.len())
            .field("closed", &state.closed)
            .finish()
    }
}

impl<T> Default for JobQueue<T> {
    fn default() -> Self {
        JobQueue {
            state: Mutex::new(Lanes {
                fast: VecDeque::new(),
                slow: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }
}

impl<T> JobQueue<T> {
    /// An empty, open queue.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, Lanes<T>> {
        // A worker panicking while holding the lock leaves structurally
        // valid state; the supervisor's whole job is to outlive panics.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueues `item` at the back of `lane`.
    pub fn push(&self, item: T, lane: Lane) {
        let mut state = self.lock();
        match lane {
            Lane::Fast => state.fast.push_back(item),
            Lane::Slow => state.slow.push_back(item),
        }
        drop(state);
        self.ready.notify_one();
    }

    /// Blocks until an item is available or the queue is closed and
    /// empty. The fast lane drains completely before any slow-lane item
    /// is handed out.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.fast.pop_front() {
                return Some(item);
            }
            if let Some(item) = state.slow.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Closes the queue: `pop` drains what remains, then returns `None`
    /// to every consumer.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Items currently waiting across both lanes.
    pub fn len(&self) -> usize {
        let state = self.lock();
        state.fast.len() + state.slow.len()
    }

    /// Whether no items are waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_lane_drains_before_slow() {
        let q = JobQueue::new();
        q.push(0, Lane::Slow);
        q.push(1, Lane::Fast);
        q.push(2, Lane::Slow);
        q.push(3, Lane::Fast);
        q.close();
        // Fast lane FIFO first, then slow lane FIFO — deterministic
        // regardless of the interleaved arrival order.
        assert_eq!(
            std::iter::from_fn(|| q.pop()).collect::<Vec<_>>(),
            vec![1, 3, 0, 2]
        );
    }

    #[test]
    fn lane_classification_by_qubits() {
        assert_eq!(Lane::for_qubits(4), Lane::Fast);
        assert_eq!(Lane::for_qubits(FAST_LANE_MAX_QUBITS), Lane::Fast);
        assert_eq!(Lane::for_qubits(FAST_LANE_MAX_QUBITS + 1), Lane::Slow);
        assert_eq!(Lane::Fast.name(), "fast");
        assert_eq!(Lane::Slow.name(), "slow");
    }

    #[test]
    fn close_wakes_blocked_workers() {
        let q = std::sync::Arc::new(JobQueue::<usize>::new());
        let q2 = q.clone();
        let handle = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(handle.join().unwrap(), None);
    }
}
