//! A panic inside a fan-out item must reach the caller in bounded time.
//!
//! The reduce fans its Krylov shifts out over `par` workers; a panic in one
//! item must stop that worker only, let the others drain the queue, and
//! surface on the calling thread where `catch_unwind` sees it — never leave
//! a worker waiting forever. Each reduce runs on a watchdog thread so a
//! hang fails the test at the deadline instead of stalling the suite.
//!
//! This binary arms a process-global fault and sets `BDSM_THREADS`, so it
//! holds exactly one test.

use bdsm_core::krylov::KrylovOpts;
use bdsm_core::reduce::{reduce_network, ReductionOpts};
use bdsm_core::synth::rc_grid;
use std::any::Any;
use std::sync::mpsc;
use std::time::Duration;

/// Far above the milliseconds the reduce takes, far below a CI timeout.
const DEADLINE: Duration = Duration::from_secs(30);

type Outcome = std::thread::Result<bdsm_core::reduce::Result<Vec<u64>>>;

/// Runs the reduce on its own thread under `catch_unwind` and waits at
/// most [`DEADLINE`] for it. The model comes back as the bits of its
/// `G`, `C`, `B`, `L` entries.
fn reduce_on_watchdog(threads: &str) -> Outcome {
    std::env::set_var("BDSM_THREADS", threads);
    let (tx, rx) = mpsc::channel();
    let watchdog = std::thread::spawn(move || {
        let net = rc_grid(12, 12, 1.0, 1e-3, 2.0);
        let opts = ReductionOpts {
            num_blocks: 3,
            krylov: KrylovOpts {
                expansion_points: vec![],
                jomega_points: vec![1.0e2, 1.0e3, 1.0e4],
                moments_per_point: 2,
                ..KrylovOpts::default()
            },
            ..ReductionOpts::default()
        };
        let outcome = std::panic::catch_unwind(|| {
            reduce_network(&net, &opts).map(|rm| {
                [&rm.g, &rm.c, &rm.b, &rm.l]
                    .iter()
                    .flat_map(|m| m.as_slice().iter().map(|v| v.to_bits()))
                    .collect()
            })
        });
        let _ = tx.send(outcome);
    });
    // A hung reduce is left detached: joining it would hang the test too.
    let outcome = rx
        .recv_timeout(DEADLINE)
        .unwrap_or_else(|_| panic!("reduce with {threads} workers hung past {DEADLINE:?}"));
    watchdog
        .join()
        .expect("the watchdog catches the reduce's panic");
    outcome
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn a_fanout_panic_returns_in_bounded_time_then_the_reduce_recovers() {
    let prev = std::env::var("BDSM_THREADS").ok();
    let reference = reduce_on_watchdog("1")
        .expect("unarmed reduce does not panic")
        .expect("unarmed reduce succeeds");
    for threads in ["1", "2", "5"] {
        let guard = bdsm_obs::fault::arm("par.item");
        let payload = reduce_on_watchdog(threads).expect_err("the injected panic must propagate");
        let msg = panic_message(payload.as_ref());
        assert!(
            msg.contains("injected fault") || msg.contains("panicked"),
            "{threads} workers: unexpected panic message {msg:?}"
        );
        assert!(guard.hits() >= 1);
        drop(guard);
        let bits = reduce_on_watchdog(threads)
            .expect("disarmed reduce does not panic")
            .expect("disarmed reduce succeeds");
        assert!(
            bits == reference,
            "{threads} workers: recovered reduce differs from the unarmed run"
        );
    }
    match prev {
        Some(v) => std::env::set_var("BDSM_THREADS", v),
        None => std::env::remove_var("BDSM_THREADS"),
    }
}
