//! Deterministic load-shedding and the two-lane work queue.
//!
//! Two layers:
//!
//! - [`admit`] — deterministic admission control over a batch's arrival
//!   order. Which jobs are shed is a pure function of `(arrival order,
//!   cap, policy)`, never of timing, so a shed decision replays
//!   identically at any worker count. `RejectNew` keeps the first `cap`
//!   arrivals (the queue is full, newcomers bounce); `DropOldest` keeps
//!   the last `cap` (newcomers push the oldest waiting jobs out).
//! - [`JobQueue`] — the runtime two-lane queue workers pull from: `pop`
//!   blocks until work or close. The supervisor preloads it with the
//!   admitted set, so the runtime path never sheds on its own.
//!
//! Every shed is recorded as a `supervisor.shed` obs event and counted in
//! `supervisor.jobs_shed`.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// What to do when more jobs arrive than the queue cap allows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Keep the oldest `cap` jobs; reject later arrivals.
    RejectNew,
    /// Keep the newest `cap` jobs; drop the oldest waiting ones.
    DropOldest,
}

impl ShedPolicy {
    /// Parses the CLI spelling (`reject-new` / `drop-oldest`).
    ///
    /// # Errors
    ///
    /// A usage message on anything else.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "reject-new" => Ok(ShedPolicy::RejectNew),
            "drop-oldest" => Ok(ShedPolicy::DropOldest),
            other => Err(format!(
                "unknown shed policy `{other}` (expected reject-new or drop-oldest)"
            )),
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            ShedPolicy::RejectNew => "reject-new",
            ShedPolicy::DropOldest => "drop-oldest",
        }
    }

    /// The per-policy shed counter, so reports can tell "queue was full and
    /// newcomers bounced" apart from "newcomers evicted waiting jobs".
    pub fn shed_counter(self) -> &'static str {
        match self {
            ShedPolicy::RejectNew => "supervisor.shed.reject_new",
            ShedPolicy::DropOldest => "supervisor.shed.drop_oldest",
        }
    }
}

/// The outcome of admission control: which arrival indices run and which
/// are shed, both in arrival order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Admission {
    /// Indices admitted to the queue.
    pub admitted: Vec<usize>,
    /// Indices shed under the policy.
    pub shed: Vec<usize>,
}

/// Pure admission decision: the same partition as [`admit`] with no obs
/// side effects. Used when a prior run's admission must be replayed (shard
/// takeover, sparse resume) without double-counting the original shed.
pub fn admit_plan(n_jobs: usize, cap: usize, policy: ShedPolicy) -> Admission {
    if cap == 0 || n_jobs <= cap {
        return Admission {
            admitted: (0..n_jobs).collect(),
            shed: Vec::new(),
        };
    }
    let (admitted, shed): (Vec<usize>, Vec<usize>) = match policy {
        ShedPolicy::RejectNew => ((0..cap).collect(), (cap..n_jobs).collect()),
        ShedPolicy::DropOldest => (
            (n_jobs - cap..n_jobs).collect(),
            (0..n_jobs - cap).collect(),
        ),
    };
    Admission { admitted, shed }
}

/// Deterministic admission control: of `n_jobs` arrivals, admit at most
/// `cap` under `policy` (`cap == 0` means unbounded). Emits one
/// `supervisor.shed` event per shed job and counts it both in the total
/// `supervisor.jobs_shed` and in the per-policy split
/// (`supervisor.shed.reject_new` / `supervisor.shed.drop_oldest`).
pub fn admit(n_jobs: usize, cap: usize, policy: ShedPolicy) -> Admission {
    let admission = admit_plan(n_jobs, cap, policy);
    for &index in &admission.shed {
        obs::counter_add("supervisor.jobs_shed", 1);
        obs::counter_add(policy.shed_counter(), 1);
        obs::event!(
            "supervisor.shed",
            job = index,
            policy = policy.name(),
            cap = cap
        );
    }
    admission
}

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
/// job indices in the batch engine, which preloads the admitted set, and
/// connections in the serve daemon, whose admission path enforces the
/// cap — so the queue itself never bounds or sheds.
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

    /// Removes the oldest fast-lane item, but only when `evictable`
    /// accepts it — `drop-oldest` shedding evicts a waiting client, never
    /// work that must not be lost.
    pub fn evict_oldest_fast(&self, evictable: impl FnOnce(&T) -> bool) -> Option<T> {
        let mut state = self.lock();
        if state.fast.front().is_some_and(evictable) {
            state.fast.pop_front()
        } else {
            None
        }
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
    fn unbounded_admits_everything() {
        let a = admit(5, 0, ShedPolicy::RejectNew);
        assert_eq!(a.admitted, vec![0, 1, 2, 3, 4]);
        assert!(a.shed.is_empty());
    }

    #[test]
    fn reject_new_keeps_the_head() {
        let a = admit(5, 3, ShedPolicy::RejectNew);
        assert_eq!(a.admitted, vec![0, 1, 2]);
        assert_eq!(a.shed, vec![3, 4]);
    }

    #[test]
    fn drop_oldest_keeps_the_tail() {
        let a = admit(5, 3, ShedPolicy::DropOldest);
        assert_eq!(a.admitted, vec![2, 3, 4]);
        assert_eq!(a.shed, vec![0, 1]);
    }

    #[test]
    fn admission_is_deterministic() {
        for policy in [ShedPolicy::RejectNew, ShedPolicy::DropOldest] {
            assert_eq!(admit(17, 5, policy), admit(17, 5, policy));
        }
    }

    #[test]
    fn policy_parsing() {
        assert_eq!(
            ShedPolicy::parse("reject-new").unwrap(),
            ShedPolicy::RejectNew
        );
        assert_eq!(
            ShedPolicy::parse("drop-oldest").unwrap(),
            ShedPolicy::DropOldest
        );
        assert!(ShedPolicy::parse("coin-flip").is_err());
        assert_eq!(ShedPolicy::DropOldest.name(), "drop-oldest");
    }

    #[test]
    fn shed_counters_split_by_policy() {
        // Counters are process-global and other tests in this binary also
        // shed, so assert deltas (>=) rather than absolute values.
        obs::enable();
        let before = obs::snapshot();
        let count =
            |snap: &obs::Snapshot, name: &str| snap.counters.get(name).copied().unwrap_or(0);
        admit(5, 3, ShedPolicy::RejectNew); // sheds 2
        admit(6, 2, ShedPolicy::DropOldest); // sheds 4
        let after = obs::snapshot();
        assert!(
            count(&after, "supervisor.shed.reject_new")
                >= count(&before, "supervisor.shed.reject_new") + 2,
            "reject-new sheds must land in supervisor.shed.reject_new"
        );
        assert!(
            count(&after, "supervisor.shed.drop_oldest")
                >= count(&before, "supervisor.shed.drop_oldest") + 4,
            "drop-oldest sheds must land in supervisor.shed.drop_oldest"
        );
        assert!(
            count(&after, "supervisor.jobs_shed") >= count(&before, "supervisor.jobs_shed") + 6,
            "the total shed counter still counts both policies"
        );
    }

    #[test]
    fn admit_plan_matches_admit_and_is_silent() {
        for policy in [ShedPolicy::RejectNew, ShedPolicy::DropOldest] {
            assert_eq!(admit_plan(9, 4, policy), admit(9, 4, policy));
        }
    }

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
    fn eviction_takes_only_an_evictable_fast_lane_head() {
        let q = JobQueue::new();
        q.push(0, Lane::Slow);
        assert_eq!(
            q.evict_oldest_fast(|_| true),
            None,
            "slow lane is never evicted"
        );
        q.push(1, Lane::Fast);
        q.push(2, Lane::Fast);
        assert_eq!(q.evict_oldest_fast(|&i| i != 1), None, "head refused");
        assert_eq!(q.evict_oldest_fast(|_| true), Some(1));
        assert_eq!(q.len(), 2);
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
