//! The zero-cost contract: with observability off, an instrumented hot
//! path pays one relaxed atomic load per span site and records nothing.
//!
//! This binary holds a single test so nothing else in the process can
//! flip the global level underneath the measurement.

use std::time::Instant;

use bdsm_obs::{span, ObsLevel, Trace};

fn span_site(i: u64) -> u64 {
    let _s = span!("hot.loop", i = i);
    // A token amount of real work so the loop body is not pure span.
    i.wrapping_mul(0x9e3779b97f4a7c15).rotate_left(7)
}

#[test]
fn disabled_span_sites_are_nearly_free() {
    bdsm_obs::set_level(ObsLevel::Off);

    // Nothing is recorded outside a session / at Off.
    let mut acc = 0u64;
    for i in 0..1_000 {
        acc ^= span_site(i);
    }
    let ((), trace) = Trace::collect(|| {
        // A session records stage spans only; span!() sites still skip at Off.
        acc ^= span_site(0);
    });
    assert_eq!(trace.count("hot.loop"), 0);

    // Timing assertion: generous bound (CI machines are noisy), but
    // tight enough to catch an accidental allocation, TLS borrow, or
    // Instant::now() on the disabled path. Average over many calls.
    const N: u64 = 2_000_000;
    let t = Instant::now();
    for i in 0..N {
        acc = acc.wrapping_add(span_site(i));
    }
    let per_call_ns = t.elapsed().as_nanos() as f64 / N as f64;
    // Keep the accumulator observable so the loop cannot be elided.
    assert_ne!(acc, 1);
    assert!(
        per_call_ns < 150.0,
        "disabled span site costs {per_call_ns:.1} ns/call (expected ~single atomic load)"
    );
}

/// Strict probe for humans: prints the measured cost per disabled span
/// site. Run with `cargo test -p bdsm-obs --release -- --ignored --nocapture`.
#[test]
#[ignore]
fn report_disabled_span_cost() {
    bdsm_obs::set_level(ObsLevel::Off);
    const N: u64 = 20_000_000;
    let mut acc = 0u64;
    let t = Instant::now();
    for i in 0..N {
        acc = acc.wrapping_add(span_site(i));
    }
    let per_call_ns = t.elapsed().as_nanos() as f64 / N as f64;
    println!("disabled span site: {per_call_ns:.2} ns/call (acc {acc})");
}
