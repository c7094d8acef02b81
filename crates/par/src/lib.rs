//! # l2r-par
//!
//! A minimal, dependency-free parallel map built on [`std::thread::scope`],
//! used to fan the embarrassingly parallel stages of the L2R offline pipeline
//! (per-T-edge preference learning, per-B-edge path assignment) across cores.
//!
//! Design points:
//!
//! * **Deterministic output** — results come back in input order regardless
//!   of thread scheduling, so callers can produce output bit-identical to a
//!   serial run.
//! * **Per-thread state** — [`par_map_init`] gives every worker its own
//!   scratch state (e.g. a reusable Dijkstra search space), created once per
//!   thread rather than once per item.
//! * **In-place fills** — [`par_map_mut`] hands mutable items, such as the
//!   chunks of a column being filled, to the workers the same way.
//! * **Chunked work stealing** — workers grab fixed-size chunks of the index
//!   range from a shared atomic cursor, about 64 chunks per thread, so a few
//!   expensive items next to each other still land on different workers.
//! * **`L2R_THREADS` override** — the thread count defaults to the available
//!   hardware parallelism and can be pinned with the `L2R_THREADS`
//!   environment variable (`L2R_THREADS=1` forces a fully serial run on the
//!   calling thread).
//!
//! The build environment has no crates.io access, hence no rayon; this covers
//! the small API surface the pipeline needs.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Name of the environment variable overriding the worker thread count.
pub const THREADS_ENV: &str = "L2R_THREADS";

/// Process-wide programmatic thread override (0 = unset).  Set by
/// [`set_thread_override`]; takes precedence over [`THREADS_ENV`] so CLI
/// flags (`reproduce --threads N`) can pin the worker count without the
/// caller mutating the environment (`set_var` racing `getenv` from already
/// running worker threads is undefined behaviour on glibc).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Pins (or, with `None`, releases) the process-wide worker thread count.
///
/// A pinned count takes precedence over the [`THREADS_ENV`] environment
/// variable.  `Some(0)` is treated as `None` (no override).
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::Relaxed);
}

/// The active programmatic override, if any.
pub fn thread_override() -> Option<usize> {
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => None,
        n => Some(n),
    }
}

/// The number of worker threads parallel maps use: the programmatic
/// [`set_thread_override`] pin when present, else the value of
/// [`THREADS_ENV`] when it parses to a positive integer, otherwise the
/// available hardware parallelism (1 when that cannot be determined).
pub fn max_threads() -> usize {
    if let Some(t) = thread_override() {
        return t;
    }
    threads_from_override(std::env::var(THREADS_ENV).ok().as_deref())
}

/// The policy behind [`max_threads`], with the environment lookup injected:
/// tests exercise every override variant through this function instead of
/// mutating the real environment (`set_var` racing `getenv` from the
/// parallel fits other tests run is undefined behaviour on glibc).  Public
/// so CLI front-ends can resolve a user-supplied thread count through the
/// exact same policy before pinning it with [`set_thread_override`].
pub fn threads_from_override(value: Option<&str>) -> usize {
    if let Some(v) = value {
        if let Ok(t) = v.trim().parse::<usize>() {
            if t >= 1 {
                return t;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Parallel map preserving input order: `f(index, &item)` for every item,
/// using [`max_threads`] workers.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_with(max_threads(), items, || (), |(), i, t| f(i, t))
}

/// Parallel map with per-thread state: every worker calls `init` once and
/// passes the state to each `f(&mut state, index, &item)` call.  Use this to
/// amortise expensive scratch structures (search spaces, buffers) across the
/// items a thread processes.  Results are returned in input order.
pub fn par_map_init<T, R, S, I, F>(items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    par_map_with(max_threads(), items, init, f)
}

/// [`par_map_init`] with an explicit thread count (mainly for tests; normal
/// callers should respect the `L2R_THREADS` override via [`par_map_init`]).
///
/// `threads <= 1` (or a single-item input) runs serially on the calling
/// thread with no thread spawned at all.  A panic in `f` propagates to the
/// caller.
pub fn par_map_with<T, R, S, I, F>(threads: usize, items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len());
    if threads <= 1 {
        let mut state = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(&mut state, i, t))
            .collect();
    }

    // Chunked work stealing: 64 chunks per thread keeps the cursor traffic to
    // a few hundred `fetch_add`s while splitting runs of expensive neighbours
    // (e.g. the connector searches of one country-spanning region).
    let chunk = items.len().div_ceil(threads * 64).max(1);
    let cursor = AtomicUsize::new(0);
    let mut collected: Vec<(usize, R)> = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            handles.push(scope.spawn(|| {
                let mut state = init();
                let mut out: Vec<(usize, R)> = Vec::new();
                loop {
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= items.len() {
                        break;
                    }
                    let end = (start + chunk).min(items.len());
                    for (i, item) in items.iter().enumerate().take(end).skip(start) {
                        out.push((i, f(&mut state, i, item)));
                    }
                }
                out
            }));
        }
        for handle in handles {
            match handle.join() {
                Ok(part) => collected.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    debug_assert_eq!(collected.len(), items.len());
    collected.sort_unstable_by_key(|(i, _)| *i);
    collected.into_iter().map(|(_, r)| r).collect()
}

/// Parallel map over mutable items, preserving input order: `f(index,
/// &mut item)` for every item, using [`max_threads`] workers that take
/// items as [`par_map`] does, so a worker the host delays holds up no more
/// than the items it has taken.  Meant for the chunks of a table being
/// filled in place.  A single item (or one worker) runs on the calling
/// thread, and a panic in `f` propagates.
pub fn par_map_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    // Each item is handed to exactly one worker, so no lock is ever
    // contended: the mutex only carries the `&mut` across threads.
    let cells: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
    par_map(&cells, |i, cell| {
        f(
            i,
            &mut cell.lock().expect("an item is locked by one worker only"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_preserve_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        for threads in [1, 2, 3, 8] {
            let out = par_map_with(
                threads,
                &items,
                || (),
                |(), i, v| {
                    assert_eq!(i, *v);
                    v * 2
                },
            );
            let expected: Vec<usize> = items.iter().map(|v| v * 2).collect();
            assert_eq!(out, expected, "threads={threads}");
        }
    }

    #[test]
    fn mutable_map_visits_every_item_once_in_order() {
        for len in [0, 1, 7, 64, 1000] {
            let mut items: Vec<usize> = (0..len).collect();
            let out = par_map_mut(&mut items, |i, v| {
                assert_eq!(i, *v);
                *v += 100;
                i * 2
            });
            let expected: Vec<usize> = (0..len).map(|i| i * 2).collect();
            assert_eq!(out, expected, "len={len}");
            assert!(
                items.iter().enumerate().all(|(i, v)| *v == i + 100),
                "len={len}"
            );
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_with(4, &empty, || (), |(), _, v| *v).is_empty());
        assert_eq!(par_map_with(4, &[7u32], || (), |(), _, v| *v), vec![7]);
    }

    #[test]
    fn init_runs_once_per_worker_and_state_is_reused() {
        let inits = AtomicUsize::new(0);
        let items: Vec<u32> = (0..64).collect();
        let out = par_map_with(
            3,
            &items,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0usize // per-thread item counter
            },
            |count, _, v| {
                *count += 1;
                *v
            },
        );
        assert_eq!(out, items);
        let n = inits.load(Ordering::Relaxed);
        assert!((1..=3).contains(&n), "one init per worker, got {n}");
    }

    #[test]
    fn matches_serial_run_bit_for_bit() {
        let items: Vec<f64> = (0..257).map(|i| i as f64 * 0.1).collect();
        let work = |v: &f64| (v.sin() * 1e6).to_bits();
        let serial: Vec<u64> = items.iter().map(work).collect();
        let parallel = par_map_with(5, &items, || (), |(), _, v| work(v));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn neighbouring_items_run_on_different_workers() {
        // Item 0 waits for item 1 to start.  That only happens if the two
        // land in different chunks, i.e. the grain is fine enough to split
        // adjacent expensive items across workers.
        let started = (std::sync::Mutex::new(false), std::sync::Condvar::new());
        let items: Vec<u32> = (0..128).collect();
        let out = par_map_with(
            2,
            &items,
            || (),
            |(), i, _| {
                let (flag, signal) = &started;
                let mut flag = flag.lock().expect("no test thread panics holding it");
                match i {
                    0 => {
                        let timeout = std::time::Duration::from_secs(5);
                        let (flag, _) = signal
                            .wait_timeout_while(flag, timeout, |started| !*started)
                            .expect("no test thread panics holding it");
                        *flag
                    }
                    1 => {
                        *flag = true;
                        signal.notify_all();
                        true
                    }
                    _ => true,
                }
            },
        );
        assert!(out[0], "item 1 never started while item 0 was running");
    }

    #[test]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..32).collect();
        let result = std::panic::catch_unwind(|| {
            par_map_with(
                2,
                &items,
                || (),
                |(), _, v| {
                    assert!(*v != 17, "boom");
                    *v
                },
            )
        });
        assert!(result.is_err());
    }

    #[test]
    fn env_override_controls_thread_count() {
        // Exercised through the injectable lookup: no `set_var`, so this
        // cannot race the `getenv` calls of concurrently running tests.
        assert_eq!(threads_from_override(Some("3")), 3);
        assert_eq!(threads_from_override(Some(" 2 ")), 2);
        assert_eq!(threads_from_override(Some("1")), 1);
        assert!(threads_from_override(Some("not-a-number")) >= 1);
        assert!(threads_from_override(Some("0")) >= 1);
        assert!(threads_from_override(Some("-4")) >= 1);
        assert!(threads_from_override(None) >= 1);
        // The public entry point agrees with the injected policy for the
        // environment this process actually has.
        assert_eq!(
            max_threads(),
            threads_from_override(std::env::var(THREADS_ENV).ok().as_deref())
        );
        // The programmatic pin wins over the environment; releasing it
        // restores the env policy.  Kept inside this single test (not a
        // sibling) so no concurrently running test observes the pin.
        set_thread_override(Some(5));
        assert_eq!(thread_override(), Some(5));
        assert_eq!(max_threads(), 5);
        set_thread_override(Some(0));
        assert_eq!(thread_override(), None);
        set_thread_override(None);
        assert_eq!(
            max_threads(),
            threads_from_override(std::env::var(THREADS_ENV).ok().as_deref())
        );
    }
}
