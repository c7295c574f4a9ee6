//! Zero-dependency deterministic data parallelism for the workspace's hot
//! paths.
//!
//! Every primitive here follows one rule: **work decomposition is fixed and
//! independent of the thread count**. Ranges are split into chunks of a
//! caller-chosen fixed length, per-chunk results are folded *in ascending
//! chunk order* on the calling thread, and mutating kernels only ever touch
//! disjoint chunks. Floating-point reductions therefore associate the same
//! way whether the work ran on 1, 2, or 64 threads — parallel results are
//! bit-identical to serial ones, which the equivalence property tests in
//! `tests/parallel_equivalence.rs` enforce.
//!
//! Thread count resolution, in priority order:
//!
//! 1. a scoped override installed by [`with_threads`] (used by tests and by
//!    worker threads, which pin themselves to 1 to forbid nested spawning);
//! 2. the `PCD_THREADS` environment variable;
//! 3. [`std::thread::available_parallelism`].
//!
//! Workers are plain [`std::thread::scope`] threads — no pool is kept alive
//! between calls. Spawn overhead (~10 µs/thread) is amortized by the serial
//! cutoff: work smaller than [`SERIAL_CUTOFF`] items never spawns.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod budget;

pub use budget::Budget;

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Work sizes (in items) below this run on the calling thread.
///
/// A 2¹²-amplitude statevector kernel takes a few microseconds — comparable
/// to spawning a single thread — so parallelism below this is pure loss.
pub const SERIAL_CUTOFF: usize = 1 << 12;

/// Default chunk length (in items) for amplitude-sized work. Fixed —
/// never derived from the thread count — so chunk boundaries (and thus
/// floating-point fold order) are identical at every thread count.
pub const DEFAULT_CHUNK: usize = 1 << 13;

/// Hard upper bound on worker threads.
const MAX_THREADS: usize = 64;

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

fn configured_threads() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        if let Ok(v) = std::env::var("PCD_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return n.min(MAX_THREADS);
                }
            }
            eprintln!("warning: ignoring invalid PCD_THREADS=`{v}` (want an integer ≥ 1)");
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(MAX_THREADS)
    })
}

/// The effective thread budget for parallel primitives called from this
/// thread: the innermost [`with_threads`] override if one is active,
/// otherwise `PCD_THREADS`, otherwise the machine's available parallelism.
pub fn num_threads() -> usize {
    THREAD_OVERRIDE
        .with(Cell::get)
        .unwrap_or_else(configured_threads)
        .clamp(1, MAX_THREADS)
}

/// Runs `f` with the thread budget pinned to `n` on the current thread.
///
/// Scoped and re-entrant: the previous budget is restored when `f` returns
/// or panics. This is how the equivalence tests compare thread counts
/// 1/2/4 within one process, and how worker threads pin themselves to 1.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.with(|c| c.replace(Some(n.clamp(1, MAX_THREADS)))));
    f()
}

/// Number of worker threads a job of `items` total items should use:
/// 1 below the serial cutoff, the full budget otherwise (never more than
/// one thread per item).
fn threads_for(items: usize) -> usize {
    if items < SERIAL_CUTOFF {
        1
    } else {
        num_threads().min(items.max(1))
    }
}

fn record(tasks: usize, threads: usize) {
    obs::counter_add("par.tasks", tasks as u64);
    obs::counter_add("par.threads", threads as u64);
}

/// Runs `n_tasks` independent tasks, returning their results in task order.
/// Tasks are pulled from a shared queue (dynamic load balance); workers pin
/// their own budget to 1 so nested primitives run serially instead of
/// oversubscribing.
fn run_tasks<A: Send>(n_tasks: usize, threads: usize, task: impl Fn(usize) -> A + Sync) -> Vec<A> {
    if threads <= 1 || n_tasks <= 1 {
        return (0..n_tasks).map(task).collect();
    }
    let workers = threads.min(n_tasks);
    record(n_tasks, workers);
    let next = AtomicUsize::new(0);
    let task = &task;
    let next = &next;
    let mut slots: Vec<Option<A>> = std::iter::repeat_with(|| None).take(n_tasks).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(move || {
                    with_threads(1, || {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n_tasks {
                                break;
                            }
                            local.push((i, task(i)));
                        }
                        local
                    })
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(results) => {
                    for (i, a) in results {
                        slots[i] = Some(a);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| match slot {
            Some(a) => a,
            // Every index in 0..n_tasks is claimed exactly once above.
            None => unreachable!("task result missing"),
        })
        .collect()
}

/// Maps `f` over `0..n` coarse tasks in parallel, preserving index order in
/// the output. Intended for task granularities of ≥ ~10 µs each (Monte
/// Carlo trials, Hamiltonian terms, ERI quadruples, gradient components);
/// fine-grained index spaces should use [`map_reduce`] instead.
pub fn map_indexed<U: Send>(n: usize, f: impl Fn(usize) -> U + Sync) -> Vec<U> {
    // Explicit serial short-circuit: at a budget of 1 (or a single task)
    // the call must stay on the calling thread with no scope/queue setup —
    // the no-spawn regression tests below pin this.
    if n <= 1 || num_threads() <= 1 {
        return (0..n).map(f).collect();
    }
    run_tasks(n, num_threads().min(n), f)
}

/// Maps `f` over a slice in parallel, preserving order. Same granularity
/// guidance as [`map_indexed`].
pub fn map_slice<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    map_indexed(items.len(), |i| f(&items[i]))
}

/// Deterministic chunked map-reduce over the index range `0..len`.
///
/// The range is split into fixed chunks of `chunk_len` (the final chunk may
/// be short); `map` is evaluated per chunk (in parallel when the range is
/// large enough) and the partial results are folded **in ascending chunk
/// order** on the calling thread. Because neither the chunk boundaries nor
/// the fold order depend on the thread count, the result is bit-identical
/// at every thread count.
///
/// # Panics
///
/// Panics if `chunk_len` is zero.
pub fn map_reduce<A, M, F>(len: usize, chunk_len: usize, init: A, map: M, fold: F) -> A
where
    A: Send,
    M: Fn(Range<usize>) -> A + Sync,
    F: Fn(A, A) -> A,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    if len == 0 {
        return init;
    }
    let n_chunks = len.div_ceil(chunk_len);
    let chunk_range = |i: usize| i * chunk_len..((i + 1) * chunk_len).min(len);
    // Serial short-circuit: below the cutoff, at a budget of 1, or with a
    // single chunk, fold on the calling thread — no scope/queue setup.
    let threads = threads_for(len);
    if threads <= 1 || n_chunks <= 1 {
        return (0..n_chunks).fold(init, |acc, i| fold(acc, map(chunk_range(i))));
    }
    let partials = run_tasks(n_chunks, threads, |i| map(chunk_range(i)));
    partials.into_iter().fold(init, fold)
}

/// Applies `f` to disjoint fixed-length chunks of `data` in parallel.
///
/// `f` receives the chunk's starting offset within `data` plus the mutable
/// chunk itself. Chunks are assigned to workers round-robin; because every
/// element belongs to exactly one chunk and `f` sees each chunk exactly
/// once, element-wise kernels produce results independent of scheduling.
///
/// # Panics
///
/// Panics if `chunk_len` is zero.
pub fn for_each_chunk_mut<T: Send>(
    data: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    map_chunks_mut(data, chunk_len, f);
}

/// [`for_each_chunk_mut`] for kernels that also return a per-chunk result:
/// the results come back **in ascending chunk order**, whatever worker ran
/// each chunk, so a caller folding them in order gets the same floats at
/// every thread count.
///
/// # Panics
///
/// Panics if `chunk_len` is zero.
pub fn map_chunks_mut<T: Send, A: Send>(
    data: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, &mut [T]) -> A + Sync,
) -> Vec<A> {
    assert!(chunk_len > 0, "chunk_len must be positive");
    let len = data.len();
    let threads = threads_for(len);
    let n_chunks = len.div_ceil(chunk_len);
    if threads <= 1 || n_chunks <= 1 {
        return data
            .chunks_mut(chunk_len)
            .enumerate()
            .map(|(i, chunk)| f(i * chunk_len, chunk))
            .collect();
    }
    let workers = threads.min(n_chunks);
    record(n_chunks, workers);
    let mut assignments: Vec<Vec<(usize, &mut [T])>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
        assignments[i % workers].push((i, chunk));
    }
    let f = &f;
    let mut slots: Vec<Option<A>> = std::iter::repeat_with(|| None).take(n_chunks).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = assignments
            .into_iter()
            .map(|batch| {
                s.spawn(move || {
                    with_threads(1, || {
                        batch
                            .into_iter()
                            .map(|(i, chunk)| (i, f(i * chunk_len, chunk)))
                            .collect::<Vec<_>>()
                    })
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(results) => {
                    for (i, a) in results {
                        slots[i] = Some(a);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| match slot {
            Some(a) => a,
            // Every chunk index is assigned to exactly one worker above.
            None => unreachable!("chunk result missing"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_threads_is_scoped_and_reentrant() {
        let outer = num_threads();
        with_threads(3, || {
            assert_eq!(num_threads(), 3);
            with_threads(1, || assert_eq!(num_threads(), 1));
            assert_eq!(num_threads(), 3);
        });
        assert_eq!(num_threads(), outer);
    }

    #[test]
    fn map_reduce_sums_like_serial() {
        // Large enough to actually spawn: > SERIAL_CUTOFF items.
        let len = 3 * SERIAL_CUTOFF + 17;
        let serial: u64 = (0..len as u64).sum();
        for t in [1, 2, 4] {
            let parallel = with_threads(t, || {
                map_reduce(
                    len,
                    1000,
                    0u64,
                    |r| r.map(|i| i as u64).sum::<u64>(),
                    |a, b| a + b,
                )
            });
            assert_eq!(parallel, serial, "threads {t}");
        }
    }

    #[test]
    fn map_reduce_float_fold_is_bit_identical_across_thread_counts() {
        // A sum designed to be order-sensitive: alternating huge/small
        // magnitudes. Identical chunking must make every thread count
        // agree bit-for-bit.
        let len = 2 * SERIAL_CUTOFF;
        let value = |i: usize| {
            if i.is_multiple_of(3) {
                1e16 + i as f64
            } else {
                1e-8 * i as f64
            }
        };
        let run = |t: usize| {
            with_threads(t, || {
                map_reduce(
                    len,
                    777,
                    0.0f64,
                    |r| r.map(value).sum::<f64>(),
                    |a, b| a + b,
                )
            })
        };
        let b1 = run(1).to_bits();
        assert_eq!(b1, run(2).to_bits());
        assert_eq!(b1, run(4).to_bits());
    }

    #[test]
    fn map_reduce_handles_empty_and_tail_chunks() {
        assert_eq!(
            map_reduce(0, 8, 42u64, |_| unreachable!(), |a, b| a + b),
            42
        );
        let n = map_reduce(10, 3, 0usize, |r| r.len(), |a, b| a + b);
        assert_eq!(n, 10);
    }

    #[test]
    fn map_indexed_preserves_order() {
        for t in [1, 2, 4] {
            let v = with_threads(t, || map_indexed(37, |i| i * i));
            assert_eq!(v, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_slice_preserves_order() {
        let items: Vec<i64> = (0..100).collect();
        let doubled = with_threads(4, || map_slice(&items, |x| x * 2));
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_chunk_mut_touches_every_element_once() {
        for t in [1, 2, 4] {
            let mut data = vec![0u32; 2 * SERIAL_CUTOFF + 5];
            with_threads(t, || {
                for_each_chunk_mut(&mut data, 1024, |offset, chunk| {
                    for (i, x) in chunk.iter_mut().enumerate() {
                        *x += (offset + i) as u32 + 1;
                    }
                })
            });
            for (i, &x) in data.iter().enumerate() {
                assert_eq!(x, i as u32 + 1, "threads {t}, index {i}");
            }
        }
    }

    #[test]
    fn map_chunks_mut_returns_results_in_chunk_order() {
        let len = 2 * SERIAL_CUTOFF + 5;
        for t in [1, 2, 4] {
            let mut data = vec![1u32; len];
            let offsets = with_threads(t, || {
                map_chunks_mut(&mut data, 1000, |offset, chunk| {
                    chunk.iter_mut().for_each(|x| *x = 2);
                    (offset, chunk.len())
                })
            });
            let expected: Vec<(usize, usize)> = (0..len.div_ceil(1000))
                .map(|i| (i * 1000, 1000.min(len - i * 1000)))
                .collect();
            assert_eq!(offsets, expected, "threads {t}");
            assert!(data.iter().all(|&x| x == 2), "threads {t}");
        }
    }

    #[test]
    fn workers_pin_nested_parallelism_to_one() {
        let len = 2 * SERIAL_CUTOFF;
        let inner_counts = with_threads(4, || {
            map_reduce(
                len,
                SERIAL_CUTOFF,
                Vec::new(),
                |_| vec![num_threads()],
                |mut a, b| {
                    a.extend(b);
                    a
                },
            )
        });
        for c in inner_counts {
            assert_eq!(c, 1, "worker threads must not nest parallelism");
        }
    }

    /// Asserts every invocation of the instrumented closure ran on the
    /// calling thread — i.e. the primitive spawned no workers.
    fn assert_caller_thread_only(run: impl FnOnce(&(dyn Fn() + Sync))) {
        use std::sync::Mutex;
        let caller = std::thread::current().id();
        let seen = Mutex::new(Vec::new());
        run(&|| {
            if let Ok(mut v) = seen.lock() {
                v.push(std::thread::current().id());
            }
        });
        let seen = seen.into_inner().unwrap();
        assert!(!seen.is_empty(), "closure never ran");
        for id in seen {
            assert_eq!(id, caller, "work escaped to a spawned thread");
        }
    }

    #[test]
    fn single_thread_budget_never_spawns() {
        assert_caller_thread_only(|probe| {
            with_threads(1, || {
                map_indexed(100, |i| {
                    probe();
                    i
                });
            })
        });
        assert_caller_thread_only(|probe| {
            with_threads(1, || {
                let items: Vec<usize> = (0..50).collect();
                map_slice(&items, |&x| {
                    probe();
                    x
                });
            })
        });
        assert_caller_thread_only(|probe| {
            with_threads(1, || {
                map_reduce(
                    2 * SERIAL_CUTOFF,
                    64,
                    0usize,
                    |r| {
                        probe();
                        r.len()
                    },
                    |a, b| a + b,
                );
            })
        });
        assert_caller_thread_only(|probe| {
            with_threads(1, || {
                let mut data = vec![0u8; 2 * SERIAL_CUTOFF];
                for_each_chunk_mut(&mut data, 64, |_, _| probe());
            })
        });
    }

    #[test]
    fn small_work_never_spawns_even_with_budget() {
        // A single task / sub-cutoff range must stay on the caller even
        // when the thread budget would allow spawning.
        assert_caller_thread_only(|probe| {
            with_threads(4, || {
                map_indexed(1, |i| {
                    probe();
                    i
                });
            })
        });
        assert_caller_thread_only(|probe| {
            with_threads(4, || {
                map_reduce(
                    SERIAL_CUTOFF - 1,
                    64,
                    0usize,
                    |r| {
                        probe();
                        r.len()
                    },
                    |a, b| a + b,
                );
            })
        });
        assert_caller_thread_only(|probe| {
            with_threads(4, || {
                let mut data = vec![0u8; SERIAL_CUTOFF - 1];
                for_each_chunk_mut(&mut data, 64, |_, _| probe());
            })
        });
    }

    #[test]
    fn panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            with_threads(2, || {
                map_reduce(
                    2 * SERIAL_CUTOFF,
                    64,
                    0usize,
                    |r| {
                        if r.start > SERIAL_CUTOFF {
                            panic!("boom");
                        }
                        r.len()
                    },
                    |a, b| a + b,
                )
            })
        });
        assert!(result.is_err());
    }
}
