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
//! compression in the projector, per-expansion-point Krylov factorization,
//! and per-frequency transfer sweeps. [`parallel_map_with`] additionally
//! gives every worker a private state value (in practice a
//! `bdsm_sparse::LuWorkspace`), so refactorization scratch is allocated
//! once per worker rather than once per item.
//!
//! # The factor-queue pipeline
//!
//! [`pipelined_map_with`] splits each item into a **produce** stage and a
//! **consume** stage connected by a shared ready queue. The Krylov basis
//! stage is the motivating client: *produce* is a shift's numeric
//! refactorization (`ShiftedPencil::factor_*_with` on a worker's private
//! workspace), *consume* is that shift's block recurrence. Workers prefer
//! draining the ready queue (keeping the pipeline shallow) and otherwise
//! claim the next unfactored shift, so refactorization of upcoming shifts
//! overlaps basis accumulation of earlier ones — with 3–8 shifts this
//! roughly doubles the usable parallelism over a plain per-shift map, and
//! uneven shifts (complex vs real factorizations) rebalance dynamically.
//! Both stages must be pure functions of their item; the per-worker state
//! is scratch only. Queue occupancy is recorded on the
//! `bdsm_obs` metrics registry (`factor_queue_peak`).
//!
//! # Determinism
//!
//! Results are returned **in item order**, and each item's output is a
//! pure function of that item alone — workers never share mutable state
//! beyond the queue cursors. Consequently every map is
//! bitwise-deterministic regardless of the worker count: running with
//! `BDSM_THREADS=1` and with 32 workers produces identical bytes. The same
//! holds for [`pipelined_map_with`] (which worker factors or consumes a
//! shift never changes its bytes) and for the Krylov **panel-merge tree**
//! built on [`parallel_map`]: the tree's shape is fixed by the number of
//! expansion points alone, every node merge is a pure function of its two
//! child panels, and level results are collected in node order — worker
//! count only decides how many sibling merges run concurrently, never
//! which merges happen or in what operand order. The reduction pipeline's
//! tests assert exactly that on whole reduced models.
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

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

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

/// A worker's next unit of work in the two-stage pipeline.
enum Step<P> {
    Produce(usize),
    Consume(usize, P),
    Exit,
}

/// Two-stage pipelined fan-out: every item is first `produce`d, then
/// `consume`d, and the stages of *different* items overlap freely across
/// workers (the factor queue — see the module docs). Outputs are returned
/// in item order.
///
/// Workers prefer consuming ready items over producing new ones, so the
/// queue between the stages stays shallow; when nothing is ready they
/// claim the next unproduced item, and when everything is produced they
/// block until the remaining consumes finish. Per-worker `init` state is
/// threaded through both stages exactly as in [`parallel_map_with`], and
/// both stages must be pure functions of their item for the map to stay
/// bitwise-deterministic — which worker runs a stage is scheduling, never
/// semantics.
pub fn pipelined_map_with<S, I, P, O, FS, FP, FC>(
    items: &[I],
    init: FS,
    produce: FP,
    consume: FC,
) -> Vec<O>
where
    I: Sync,
    P: Send,
    O: Send,
    FS: Fn() -> S + Sync,
    FP: Fn(&mut S, usize, &I) -> P + Sync,
    FC: Fn(&mut S, usize, &I, P) -> O + Sync,
{
    // Two tasks per item, so the pipeline can use up to twice as many
    // workers as there are items.
    let workers = max_threads().clamp(1, (2 * items.len()).max(1));
    if workers <= 1 || items.len() <= 1 {
        let mut state = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                bdsm_obs::faultpoint!("par.item");
                let p = produce(&mut state, i, item);
                consume(&mut state, i, item, p)
            })
            .collect();
    }
    let next_produce = AtomicUsize::new(0);
    let consumed = AtomicUsize::new(0);
    let peak_depth = AtomicUsize::new(0);
    let ready: Mutex<VecDeque<(usize, P)>> = Mutex::new(VecDeque::new());
    let wakeup = Condvar::new();
    let mut slots: Vec<Option<O>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    let obs = bdsm_obs::fork();
    std::thread::scope(|scope| {
        let (next_produce, consumed, peak_depth) = (&next_produce, &consumed, &peak_depth);
        let (ready, wakeup) = (&ready, &wakeup);
        let (init, produce, consume) = (&init, &produce, &consume);
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    bdsm_obs::with_worker(obs, w as u32 + 1, || {
                        let mut span = bdsm_obs::span!("par.worker", worker = w);
                        let mut state = init();
                        let mut out: Vec<(usize, O)> = Vec::new();
                        let mut tasks = 0usize;
                        let mut busy_ns = 0u64;
                        loop {
                            let step = {
                                let mut q = ready.lock().expect("factor queue poisoned");
                                loop {
                                    // Drain ready work first: consuming
                                    // promptly keeps the queue shallow and
                                    // the memory high-water mark low.
                                    if let Some((i, p)) = q.pop_front() {
                                        break Step::Consume(i, p);
                                    }
                                    let i = next_produce.fetch_add(1, Ordering::Relaxed);
                                    if i < items.len() {
                                        break Step::Produce(i);
                                    }
                                    if consumed.load(Ordering::Acquire) >= items.len() {
                                        break Step::Exit;
                                    }
                                    // Everything is produced or in flight;
                                    // wait for a producer or the final
                                    // consumer to wake us.
                                    q = wakeup.wait(q).expect("factor queue poisoned");
                                }
                            };
                            let t = span.is_recording().then(std::time::Instant::now);
                            match step {
                                Step::Produce(i) => {
                                    bdsm_obs::faultpoint!("par.item");
                                    let p = produce(&mut state, i, &items[i]);
                                    let mut q = ready.lock().expect("factor queue poisoned");
                                    q.push_back((i, p));
                                    peak_depth.fetch_max(q.len(), Ordering::Relaxed);
                                    drop(q);
                                    wakeup.notify_one();
                                }
                                Step::Consume(i, p) => {
                                    out.push((i, consume(&mut state, i, &items[i], p)));
                                    if consumed.fetch_add(1, Ordering::AcqRel) + 1 >= items.len() {
                                        // Last item done: take the lock so
                                        // no waiter is between its check
                                        // and its wait, then wake everyone.
                                        drop(ready.lock().expect("factor queue poisoned"));
                                        wakeup.notify_all();
                                    }
                                }
                                Step::Exit => break,
                            }
                            tasks += 1;
                            if let Some(t) = t {
                                busy_ns += t.elapsed().as_nanos() as u64;
                            }
                        }
                        if span.is_recording() {
                            let wait_ns = span.elapsed_ns().saturating_sub(busy_ns);
                            span.attr("items", tasks);
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
    if bdsm_obs::enabled(bdsm_obs::ObsLevel::Timings) {
        bdsm_obs::metrics()
            .factor_queue_peak
            .set(peak_depth.load(Ordering::Relaxed) as u64);
    }
    slots
        .into_iter()
        .map(|o| o.expect("every pipeline item was consumed exactly once"))
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
    fn pipelined_map_runs_both_stages_in_order() {
        let items: Vec<usize> = (0..197).collect();
        let out = pipelined_map_with(
            &items,
            || 0usize,
            |_, i, &v| {
                assert_eq!(i, v);
                v * 2
            },
            |_, i, &v, p| {
                assert_eq!(p, v * 2);
                p + i
            },
        );
        assert_eq!(out.len(), items.len());
        for (i, &o) in out.iter().enumerate() {
            assert_eq!(o, i * 3);
        }
    }

    #[test]
    fn pipelined_empty_and_singleton_inputs() {
        let none: Vec<u32> = Vec::new();
        assert!(pipelined_map_with(&none, || (), |(), _, v| *v, |(), _, _, p| p).is_empty());
        let one = pipelined_map_with(&[5u32], || (), |(), _, v| v + 1, |(), _, _, p| p * 10);
        assert_eq!(one, vec![60]);
    }

    #[test]
    fn pipelined_state_spans_both_stages() {
        // One state value per worker is threaded through both stages: a
        // counter bumped by produce and consume alike reports 1, 2, …, T on
        // every state with no gap and no repeat, and there are no more
        // states than workers. Which tasks land on which worker is
        // scheduling (a worker whose first task consumes another worker's
        // item has counted 1), so only the serial path pins the exact
        // value per item; outputs stay a pure function of the item.
        let items: Vec<usize> = (0..64).collect();
        let states = AtomicUsize::new(0);
        let out = pipelined_map_with(
            &items,
            || (states.fetch_add(1, Ordering::Relaxed), 0usize),
            |(id, calls), _, &v| {
                *calls += 1;
                (v, *id, *calls)
            },
            |(id, calls), _, _, p: (usize, usize, usize)| {
                *calls += 1;
                (p, *id, *calls)
            },
        );
        let states = states.into_inner();
        assert!(states >= 1 && states <= max_threads().clamp(1, 2 * items.len()));
        let mut reported = vec![Vec::new(); states];
        for (i, &((v, produced_on, produce_calls), consumed_on, consume_calls)) in
            out.iter().enumerate()
        {
            assert_eq!(v, i);
            if states == 1 {
                assert_eq!((produce_calls, consume_calls), (2 * i + 1, 2 * i + 2));
            }
            reported[produced_on].push(produce_calls);
            reported[consumed_on].push(consume_calls);
        }
        for calls in &mut reported {
            calls.sort_unstable();
            assert!(calls.iter().copied().eq(1..=calls.len()), "{calls:?}");
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
