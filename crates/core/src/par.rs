//! Scoped-thread fan-out utilities — the reduction engine's threading
//! model, in one place.
//!
//! # Threading model
//!
//! Everything runs on `std::thread::scope` — plain scoped OS threads, no
//! external dependencies, no global pool, no work lingering past the call
//! that spawned it. Each [`parallel_map`] call spawns up to
//! [`worker_count`] workers that drain a **shared work queue** (an atomic
//! next-index counter over the item slice), so uneven item costs —
//! expansion points whose factorizations fill differently, frequency
//! samples near poles — balance dynamically instead of being pinned by
//! static chunking.
//!
//! Three pipeline stages fan out through this module: per-block SVD
//! compression in the projector, per-expansion-point Krylov factorization
//! plus recurrence, and per-frequency transfer sweeps.
//! [`parallel_map_with`] additionally gives every worker a private state
//! value (in practice a `bdsm_sparse::LuWorkspace`), so refactorization
//! scratch is allocated once per worker rather than once per item. That is
//! the whole module: [`max_threads`], [`worker_count`], [`parallel_map`]
//! and [`parallel_map_with`].
//!
//! # Determinism
//!
//! Results are returned **in item order**, and each item's output is a
//! pure function of that item alone — workers never share mutable state
//! beyond the queue cursor; the per-worker state is scratch only.
//! Consequently every map is bitwise-deterministic regardless of the
//! worker count: running with `BDSM_THREADS=1` and with 32 workers
//! produces identical bytes. The same holds for the Krylov **panel-merge
//! tree** built on [`parallel_map`]: the tree's shape is fixed by the
//! number of expansion points alone, every node merge is a pure function
//! of its two child panels, and level results are collected in node order
//! — worker count only decides how many sibling merges run concurrently,
//! never which merges happen or in what operand order. The reduction
//! pipeline's tests assert exactly that on whole reduced models.
//!
//! # Failure
//!
//! A panicking item stops only its own worker. The others finish draining
//! the queue (they wait on nothing but the cursor), the scope joins them,
//! and the join panics on the calling thread — in bounded time, so a
//! caller's `catch_unwind` sees it.
//!
//! # Sizing
//!
//! The worker count is `min(available_parallelism, items)`, overridable
//! with the `BDSM_THREADS` environment variable (useful for pinning CI
//! measurements or for forcing the threaded code paths on small machines).
//! One item — or one hardware thread — short-circuits to a plain serial
//! loop with zero spawn overhead.
//!
//! # Observability
//!
//! When the caller holds a live `bdsm_obs` trace session, each spawned
//! worker records a `par.worker` span (items claimed, busy time, queue
//! wait) plus whatever spans the mapped closure opens; worker buffers
//! are merged back **in spawn order**, so traces are as deterministic
//! as the results. With observability off this costs one atomic load
//! per fan-out.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Upper bound on workers per fan-out: the `BDSM_THREADS` override when
/// set to a positive integer, otherwise the machine's available
/// parallelism.
pub fn max_threads() -> usize {
    if let Ok(v) = std::env::var("BDSM_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Workers a fan-out over `items` work items will use: never more threads
/// than items, never fewer than one.
pub fn worker_count(items: usize) -> usize {
    max_threads().clamp(1, items.max(1))
}

/// Maps `f` over `items` on scoped worker threads, returning outputs in
/// item order. `f` receives the item index alongside the item so callers
/// can label or seed per-item work deterministically.
pub fn parallel_map<I, O, F>(items: &[I], f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(usize, &I) -> O + Sync,
{
    parallel_map_with(items, || (), |(), i, item| f(i, item))
}

/// Like [`parallel_map`], but every worker first builds a private state
/// with `init` and threads it through all items it claims — the pattern
/// for reusable factorization workspaces.
pub fn parallel_map_with<S, I, O, FS, F>(items: &[I], init: FS, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    FS: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &I) -> O + Sync,
{
    let workers = worker_count(items.len());
    if workers <= 1 || items.len() <= 1 {
        let mut state = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                bdsm_obs::faultpoint!("par.item");
                f(&mut state, i, item)
            })
            .collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<O>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    // Inert (and free) unless the calling thread holds a live trace
    // session: workers then record their spans into private buffers that
    // are adopted below in spawn order, keeping traces deterministic.
    let obs = bdsm_obs::fork();
    std::thread::scope(|scope| {
        let next = &next;
        let init = &init;
        let f = &f;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    bdsm_obs::with_worker(obs, w as u32 + 1, || {
                        let mut span = bdsm_obs::span!("par.worker", worker = w);
                        let mut state = init();
                        let mut out: Vec<(usize, O)> = Vec::new();
                        let mut busy_ns = 0u64;
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= items.len() {
                                break;
                            }
                            let t = span.is_recording().then(std::time::Instant::now);
                            bdsm_obs::faultpoint!("par.item");
                            out.push((i, f(&mut state, i, &items[i])));
                            if let Some(t) = t {
                                busy_ns += t.elapsed().as_nanos() as u64;
                            }
                        }
                        if span.is_recording() {
                            // Queue wait = lifetime minus time spent in items.
                            let wait_ns = span.elapsed_ns().saturating_sub(busy_ns);
                            span.attr("items", out.len());
                            span.attr("busy_us", busy_ns / 1_000);
                            span.attr("wait_us", wait_ns / 1_000);
                        }
                        out
                    })
                })
            })
            .collect();
        for h in handles {
            let (out, events) = h.join().expect("fan-out worker panicked");
            bdsm_obs::adopt(events);
            for (i, o) in out {
                slots[i] = Some(o);
            }
        }
    });
    slots
        .into_iter()
        .map(|o| o.expect("every queue index was claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = parallel_map(&items, |i, &v| {
            assert_eq!(i, v);
            v * 3 + 1
        });
        assert_eq!(out.len(), items.len());
        for (i, o) in out.iter().enumerate() {
            assert_eq!(*o, i * 3 + 1);
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let none: Vec<u32> = Vec::new();
        assert!(parallel_map(&none, |_, v| *v).is_empty());
        assert_eq!(parallel_map(&[7u32], |_, v| v + 1), vec![8]);
    }

    #[test]
    fn worker_state_is_reused_not_shared() {
        // Each worker's counter only ever increments within that worker,
        // and the per-item outputs stay a pure function of the item.
        let items: Vec<usize> = (0..64).collect();
        let out = parallel_map_with(
            &items,
            || 0usize,
            |calls, _, &v| {
                *calls += 1;
                (v * v, *calls)
            },
        );
        for (i, &(sq, calls)) in out.iter().enumerate() {
            assert_eq!(sq, i * i);
            assert!(calls >= 1 && calls <= items.len());
        }
    }

    #[test]
    fn worker_count_clamps() {
        assert_eq!(worker_count(0), 1);
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(1 << 20) >= 1);
        assert!(max_threads() >= 1);
    }
}
