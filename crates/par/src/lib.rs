//! Scoped-thread data parallelism for the query hot path.
//!
//! The build environment has no network access, so instead of rayon this
//! crate provides the two primitives the engine needs, built directly on
//! `std::thread::scope`:
//!
//! * [`par_map`] — map a slice to a `Vec` in parallel, preserving order,
//! * [`par_map_with`] — like [`par_map`] but hands every worker thread its
//!   own mutable state (e.g. a verifier scratch buffer), created once per
//!   thread rather than once per item,
//! * [`try_par_map_with`] — the fallible variant: workers return
//!   `Result`s, the first error (by input order) wins and cancels the
//!   remaining work.
//!
//! Work is split into contiguous chunks, one per worker, which keeps the
//! scheduling overhead at "spawn N threads" — appropriate for the coarse,
//! uniform batches the engine runs (hundreds of posting-list verifications
//! of similar cost). Small batches run inline on the calling thread so that
//! micro-queries never pay thread-spawn latency.
//!
//! [`with_worker_override`] pins the worker count for the duration of a
//! closure (thread-local), so tests can force both the sequential and the
//! genuinely multi-threaded code paths regardless of the host's core count.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Batches smaller than this run sequentially on the caller thread: the work
/// per item must dwarf the ~10 µs thread-spawn cost for parallelism to pay.
pub const MIN_PARALLEL_ITEMS: usize = 16;

/// Number of worker threads to use for a batch of `len` items: the available
/// hardware parallelism, capped so every worker gets a meaningful chunk.
/// An active [`with_worker_override`] takes precedence (capped at `len`).
pub fn num_workers(len: usize) -> usize {
    if let Some(forced) = WORKER_OVERRIDE.get() {
        return forced.get().min(len.max(1));
    }
    let hw = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    hw.min(len / (MIN_PARALLEL_ITEMS / 2)).max(1)
}

thread_local! {
    static WORKER_OVERRIDE: Cell<Option<NonZeroUsize>> = const { Cell::new(None) };
}

/// Runs `f` with the worker count pinned to `workers` for every `par_*`
/// call issued from the current thread.
///
/// Intended for tests and benchmarks: `1` forces the strictly sequential
/// path, larger values force real scoped threads even on a single-core host
/// and even for batches below [`MIN_PARALLEL_ITEMS`]. The override is
/// thread-local and restored on exit (panic-safe), so concurrent test
/// threads cannot observe each other's setting.
pub fn with_worker_override<R>(workers: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<NonZeroUsize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            WORKER_OVERRIDE.set(self.0);
        }
    }
    let _restore = Restore(WORKER_OVERRIDE.replace(NonZeroUsize::new(workers.max(1))));
    f()
}

/// Worker count for one batch, honouring the override (via
/// [`num_workers`]): without one, batches below [`MIN_PARALLEL_ITEMS`] stay
/// on the calling thread.
fn effective_workers(len: usize) -> usize {
    if WORKER_OVERRIDE.get().is_none() && len < MIN_PARALLEL_ITEMS {
        return 1;
    }
    num_workers(len)
}

/// Joins every worker of a scope and, if any panicked, re-raises the payload
/// of the first one in input (spawn) order. Left to itself,
/// `std::thread::scope` replaces a worker's payload with a generic "a scoped
/// thread panicked".
fn join_all<T>(handles: Vec<std::thread::ScopedJoinHandle<'_, T>>) {
    let mut first_panic = None;
    for handle in handles {
        if let Err(payload) = handle.join() {
            first_panic.get_or_insert(payload);
        }
    }
    if let Some(payload) = first_panic {
        std::panic::resume_unwind(payload);
    }
}

/// Maps `items` through `f` in parallel, returning outputs in input order.
///
/// `f` runs concurrently on chunks of `items` across scoped threads; panics
/// in `f` propagate to the caller. Falls back to a sequential loop for small
/// batches.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(items, || (), move |(), item| f(item))
}

/// Maps `items` through `f` in parallel, giving each worker thread its own
/// state created by `init` (outputs are returned in input order).
///
/// This is the shape verification batches need: the per-thread state holds
/// scratch buffers that are reused across all items of the worker's chunk,
/// so steady-state processing performs no allocation at all.
pub fn par_map_with<T, S, R, I, F>(items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let workers = effective_workers(items.len());
    if workers == 1 {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }
    let chunk_len = items.len().div_ceil(workers);
    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);

    std::thread::scope(|scope| {
        // Pair each input chunk with the matching slice of the output buffer;
        // the zip hands every worker a disjoint &mut region.
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .zip(out.chunks_mut(chunk_len))
            .map(|(in_chunk, out_chunk)| {
                let init = &init;
                let f = &f;
                scope.spawn(move || {
                    let mut state = init();
                    for (item, slot) in in_chunk.iter().zip(out_chunk.iter_mut()) {
                        *slot = Some(f(&mut state, item));
                    }
                })
            })
            .collect();
        join_all(handles);
    });

    out.into_iter()
        .map(|slot| slot.expect("worker filled every slot"))
        .collect()
}

/// Fallible [`par_map_with`]: maps `items` through `f` in parallel and
/// returns either every output (in input order) or the error of the
/// lowest-indexed item **among the failures observed** — on the sequential
/// path that is exactly the first failure in input order; with real workers
/// cancellation may skip earlier items a slower worker never reached.
///
/// This is the error-propagation backbone of the query verification
/// pipelines: a disk fault in one worker must surface as a typed error for
/// the whole batch, not a panic. On the first failure a shared cancellation
/// flag is raised; other workers finish the item they are on, observe the
/// flag, and stop without starting further items — so a mid-query fault
/// costs at most one in-flight item per worker. When several items fail
/// concurrently the winner is the smallest input index among the failures
/// observed, which makes single-fault scripts fully deterministic.
pub fn try_par_map_with<T, S, R, E, I, F>(items: &[T], init: I, f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> Result<R, E> + Sync,
{
    let workers = effective_workers(items.len());
    if workers == 1 {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }
    let chunk_len = items.len().div_ceil(workers);
    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    let cancelled = AtomicBool::new(false);
    let first_error: Mutex<Option<(usize, E)>> = Mutex::new(None);

    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .zip(out.chunks_mut(chunk_len))
            .enumerate()
            .map(|(chunk_index, (in_chunk, out_chunk))| {
                let init = &init;
                let f = &f;
                let cancelled = &cancelled;
                let first_error = &first_error;
                let base = chunk_index * chunk_len;
                scope.spawn(move || {
                    let mut state = init();
                    for (offset, (item, slot)) in
                        in_chunk.iter().zip(out_chunk.iter_mut()).enumerate()
                    {
                        if cancelled.load(Ordering::Relaxed) {
                            return;
                        }
                        match f(&mut state, item) {
                            Ok(value) => *slot = Some(value),
                            Err(e) => {
                                cancelled.store(true, Ordering::Relaxed);
                                let mut guard =
                                    first_error.lock().unwrap_or_else(|p| p.into_inner());
                                let index = base + offset;
                                if guard.as_ref().is_none_or(|(winner, _)| index < *winner) {
                                    *guard = Some((index, e));
                                }
                                return;
                            }
                        }
                    }
                })
            })
            .collect();
        join_all(handles);
    });

    if let Some((_, e)) = first_error.into_inner().unwrap_or_else(|p| p.into_inner()) {
        return Err(e);
    }
    Ok(out
        .into_iter()
        .map(|slot| slot.expect("worker filled every slot"))
        .collect())
}

/// Sorts a vector in parallel: chunks are sorted on scoped threads, then
/// merged bottom-up on the caller thread. Used by the ST-Index build to group
/// observation tuples by (slot, segment) without hash maps.
///
/// `T: Copy` keeps the merge a plain element copy; every user in this
/// workspace sorts small plain-data tuples.
pub fn par_sort_unstable<T: Ord + Send + Copy>(items: &mut Vec<T>) {
    let n = items.len();
    let workers = num_workers(n);
    if n < 4 * MIN_PARALLEL_ITEMS || workers == 1 {
        items.sort_unstable();
        return;
    }
    let chunk = n.div_ceil(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks_mut(chunk)
            .map(|piece| scope.spawn(move || piece.sort_unstable()))
            .collect();
        join_all(handles);
    });
    // Bottom-up merge of the sorted runs.
    let mut src = std::mem::take(items);
    let mut dst: Vec<T> = Vec::with_capacity(n);
    let mut run = chunk;
    while run < src.len() {
        dst.clear();
        let mut i = 0;
        while i < src.len() {
            let mid = (i + run).min(src.len());
            let end = (i + 2 * run).min(src.len());
            merge_into(&src[i..mid], &src[mid..end], &mut dst);
            i = end;
        }
        std::mem::swap(&mut src, &mut dst);
        run *= 2;
    }
    *items = src;
}

fn merge_into<T: Ord + Copy>(a: &[T], b: &[T], out: &mut Vec<T>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn maps_in_order_small_and_large() {
        for n in [0usize, 1, 7, MIN_PARALLEL_ITEMS, 1000] {
            let items: Vec<usize> = (0..n).collect();
            let out = par_map(&items, |x| x * 2);
            assert_eq!(
                out,
                items.iter().map(|x| x * 2).collect::<Vec<_>>(),
                "n = {n}"
            );
        }
    }

    #[test]
    fn visits_every_item_exactly_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<u64> = (0..513).collect();
        let out = par_map(&items, |x| {
            counter.fetch_add(1, Ordering::Relaxed);
            *x + 1
        });
        assert_eq!(counter.load(Ordering::Relaxed), items.len());
        assert_eq!(out[512], 513);
    }

    #[test]
    fn per_thread_state_is_reused_within_a_chunk() {
        let items: Vec<usize> = (0..200).collect();
        // Each worker's state counts how many items it processed; the total
        // across outputs must equal the item count, and states must be > 1
        // for at least one worker (i.e. genuinely reused, not per-item).
        let out = par_map_with(
            &items,
            || 0usize,
            |seen, _item| {
                *seen += 1;
                *seen
            },
        );
        assert_eq!(out.len(), items.len());
        assert!(
            out.iter().any(|&c| c > 1),
            "state must be reused across items"
        );
    }

    #[test]
    fn num_workers_is_sane() {
        assert_eq!(num_workers(0), 1);
        assert!(num_workers(1_000_000) >= 1);
        assert!(num_workers(MIN_PARALLEL_ITEMS) <= MIN_PARALLEL_ITEMS);
    }

    #[test]
    fn par_sort_matches_std_sort() {
        // Deterministic pseudo-random input (LCG), various sizes around the
        // parallel threshold.
        for n in [0usize, 1, 5, 63, 64, 65, 1000, 10_000] {
            let mut x = 0x2545F4914F6CDD1Du64;
            let mut v: Vec<u64> = (0..n)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    x >> 16
                })
                .collect();
            let mut expected = v.clone();
            expected.sort_unstable();
            par_sort_unstable(&mut v);
            assert_eq!(v, expected, "n = {n}");
        }
    }

    #[test]
    fn worker_override_forces_parallel_and_sequential_paths() {
        // Below MIN_PARALLEL_ITEMS, but the override still spawns real
        // workers — observable through distinct per-thread states.
        let items: Vec<usize> = (0..8).collect();
        let out = with_worker_override(4, || {
            par_map_with(
                &items,
                || std::thread::current().id(),
                |tid, _| (*tid, std::thread::current().id()),
            )
        });
        assert!(
            out.iter().all(|(init_tid, run_tid)| init_tid == run_tid),
            "state stays on its worker"
        );
        let distinct: std::collections::HashSet<_> = out.iter().map(|(t, _)| *t).collect();
        assert!(distinct.len() > 1, "override must spawn real threads");
        // Override 1 pins everything to the calling thread.
        let caller = std::thread::current().id();
        let out = with_worker_override(1, || {
            par_map((0..100).collect::<Vec<_>>().as_slice(), |_| {
                std::thread::current().id()
            })
        });
        assert!(out.iter().all(|tid| *tid == caller));
        // The override is restored after the closure.
        assert_eq!(num_workers(0), 1);
    }

    #[test]
    fn try_par_map_matches_infallible_on_success() {
        let items: Vec<u64> = (0..500).collect();
        for workers in [1usize, 3, 8] {
            let got = with_worker_override(workers, || {
                try_par_map_with(&items, || (), |(), x| Ok::<u64, String>(x * 3))
            })
            .unwrap();
            assert_eq!(got, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn try_par_map_first_error_by_input_order_wins() {
        let items: Vec<usize> = (0..200).collect();
        let run = |workers: usize| {
            with_worker_override(workers, || {
                try_par_map_with(
                    &items,
                    || (),
                    |(), &x| {
                        if x == 13 || x == 77 || x == 150 {
                            Err(format!("fault at {x}"))
                        } else {
                            Ok(x)
                        }
                    },
                )
            })
            .unwrap_err()
        };
        // Sequential path: exactly the first failure in input order.
        assert_eq!(run(1), "fault at 13");
        // Parallel path: cancellation may let a faster worker's fault win
        // before item 13 is even attempted, but the winner is always one of
        // the scripted faults (lowest index among those observed).
        let err = run(4);
        assert!(
            ["fault at 13", "fault at 77", "fault at 150"].contains(&err.as_str()),
            "unexpected winner: {err}"
        );
        // A single scripted fault is fully deterministic on both paths.
        for workers in [1usize, 4] {
            let err = with_worker_override(workers, || {
                try_par_map_with(
                    &items,
                    || (),
                    |(), &x| {
                        if x == 150 {
                            Err(format!("fault at {x}"))
                        } else {
                            Ok(x)
                        }
                    },
                )
            })
            .unwrap_err();
            assert_eq!(err, "fault at 150", "workers = {workers}");
        }
    }

    #[test]
    fn try_par_map_cancels_remaining_work() {
        let items: Vec<usize> = (0..10_000).collect();
        let started = AtomicUsize::new(0);
        let result = with_worker_override(4, || {
            try_par_map_with(
                &items,
                || (),
                |(), &x| {
                    started.fetch_add(1, Ordering::Relaxed);
                    if x == 0 {
                        Err("early fault")
                    } else {
                        // Give the canceller time to raise the flag.
                        std::thread::sleep(std::time::Duration::from_micros(50));
                        Ok(x)
                    }
                },
            )
        });
        assert_eq!(result.unwrap_err(), "early fault");
        let started = started.load(Ordering::Relaxed);
        assert!(
            started < items.len() / 2,
            "cancellation must stop most of the remaining work (started {started} of {})",
            items.len()
        );
    }

    /// A worker's panic reaches the caller with its own payload (not the
    /// scope's generic "a scoped thread panicked") on every parallel path.
    #[test]
    fn worker_panics_propagate() {
        #[derive(Clone, Copy, PartialEq, Eq)]
        struct Explosive(usize);
        impl PartialOrd for Explosive {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Explosive {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                if self.0 == 63 || other.0 == 63 {
                    panic!("boom");
                }
                self.0.cmp(&other.0)
            }
        }
        let items: Vec<usize> = (0..100).collect();
        let boom = |x: &usize| {
            if *x == 63 {
                panic!("boom");
            }
            *x
        };
        fn payload_of(run: impl FnOnce()) -> String {
            let forced = || with_worker_override(4, run);
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(forced))
                .expect_err("the worker's panic must reach the caller");
            payload
                .downcast_ref::<&str>()
                .map_or("?", |s| s)
                .to_string()
        }
        assert_eq!(payload_of(|| drop(par_map(&items, boom))), "boom");
        assert_eq!(
            payload_of(|| drop(try_par_map_with(
                &items,
                || (),
                |(), x| Ok::<_, ()>(boom(x))
            ))),
            "boom"
        );
        let mut explosive: Vec<Explosive> = (0..100).rev().map(Explosive).collect();
        assert_eq!(payload_of(|| par_sort_unstable(&mut explosive)), "boom");
    }
}
