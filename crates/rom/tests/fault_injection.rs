//! Fault-injection hardening of the serving layer: induced panics,
//! poisoned locks, malformed queries, and corrupted artifact bytes must
//! all surface as **typed [`RomError`]s** — no panic ever crosses the
//! public API, and no corruption ever decodes into a wrong-but-valid
//! model.
//!
//! Fault sites are process-global (`bdsm_obs::fault`), and some tests pin
//! `BDSM_THREADS`; everything in this file serializes on one lock.

use bdsm_linalg::Complex64;
use bdsm_rom::codec::ByteWriter;
use bdsm_rom::{QueryError, Reducer, RomArtifact, RomError, RomServer};
use std::sync::Mutex;

static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Pins `BDSM_THREADS` for one test body, restoring the prior value on
/// drop (also on assertion failure).
struct Threads(Option<String>);

impl Threads {
    fn pin(n: &str) -> Self {
        let prev = std::env::var("BDSM_THREADS").ok();
        std::env::set_var("BDSM_THREADS", n);
        Threads(prev)
    }
}

impl Drop for Threads {
    fn drop(&mut self) {
        match self.0.take() {
            Some(v) => std::env::set_var("BDSM_THREADS", v),
            None => std::env::remove_var("BDSM_THREADS"),
        }
    }
}

fn grid_server() -> (RomServer, bdsm_rom::RomId) {
    let net = bdsm_core::synth::rc_grid(6, 8, 1.0, 1e-3, 2.0);
    let reducer = Reducer::builder()
        .blocks(3)
        .jomega_shifts(&[5.0e2, 2.0e3])
        .build()
        .expect("valid reducer");
    let artifact = reducer.reduce_to_artifact(&net).expect("reduce");
    let mut server = RomServer::new();
    let id = server.load_artifact(artifact);
    (server, id)
}

fn sweep_omegas() -> Vec<f64> {
    (0..12).map(|i| 100.0 * 1.4_f64.powi(i)).collect()
}

#[test]
fn worker_panic_surfaces_as_internal_error_then_serving_recovers() {
    let _g = locked();
    let (server, id) = grid_server();
    let omegas = sweep_omegas();

    // Both the serial short-circuit and the fan-out workers pass through
    // the `par.item` fault site; exercise each thread shape.
    for threads in ["1", "4"] {
        let _t = Threads::pin(threads);
        let before = server.metrics().panics_recovered;
        let guard = bdsm_obs::fault::arm("par.item");
        let err = server
            .transfer_sweep(id, &omegas)
            .expect_err("injected worker panic must fail the query");
        match err {
            RomError::Internal(msg) => {
                assert!(
                    msg.contains("injected fault") || msg.contains("panicked"),
                    "unexpected contained-panic message: {msg}"
                );
            }
            other => panic!("expected RomError::Internal, got {other:?}"),
        }
        assert_eq!(
            server.metrics().panics_recovered,
            before + 1,
            "each contained panic is counted exactly once"
        );
        drop(guard);
        // Disarmed: the very same query now succeeds.
        let sweep = server.transfer_sweep(id, &omegas).expect("recovered sweep");
        assert_eq!(sweep.len(), omegas.len());
    }
}

#[test]
fn poisoned_cache_lock_recovers_with_exact_cache_accounting() {
    let _g = locked();
    let _t = Threads::pin("1");
    let (server, id) = grid_server();
    let omegas = sweep_omegas();

    // `rom.cache.locked` fires while the shift-cache mutex is held, so the
    // injected panic poisons the lock before any counter moves.
    let guard = bdsm_obs::fault::arm("rom.cache.locked");
    let err = server
        .transfer_sweep(id, &omegas)
        .expect_err("panic while holding the cache lock must fail the query");
    assert!(matches!(err, RomError::Internal(_)), "got {err:?}");
    drop(guard);

    // The lock is now poisoned; `lock_cache` recovery must keep every
    // later query working with the cache invariants intact: misses ==
    // inserts == cached shifts, and a warm re-sweep is pure hits.
    let cold = server
        .transfer_sweep(id, &omegas)
        .expect("post-poison sweep");
    let warm = server.transfer_sweep(id, &omegas).expect("warm sweep");
    assert_eq!(cold, warm, "poison recovery changed served bytes");
    let m = server.metrics();
    let n = omegas.len() as u64;
    assert_eq!(m.cache.misses, n);
    assert_eq!(m.cache.inserts, n);
    assert_eq!(m.cache.hits, n);
    assert_eq!(server.cached_shifts(id).unwrap(), omegas.len());
    assert_eq!(m.panics_recovered, 1);
}

#[test]
fn malformed_queries_are_typed_never_panics() {
    let _g = locked();
    let (server, id) = grid_server();
    let nports = server.artifact(id).unwrap().num_outputs();

    let err = server.transfer_sweep(id, &[1.0, f64::NAN]).unwrap_err();
    assert!(
        matches!(
            err,
            RomError::Query(QueryError::NonFiniteFrequency { value }) if value.is_nan()
        ),
        "got {err:?}"
    );
    let err = server
        .port_response(id, nports + 3, 0, &[1.0e3])
        .unwrap_err();
    assert!(
        matches!(
            err,
            RomError::Query(QueryError::PortOutOfRange {
                kind: "output",
                port,
                available,
            }) if port == nports + 3 && available == nports
        ),
        "got {err:?}"
    );
    let err = server.transient_batch(id, 1e-4, &[]).unwrap_err();
    assert!(
        matches!(err, RomError::Query(QueryError::EmptyBatch)),
        "got {err:?}"
    );
    let step = vec![vec![1.0; server.artifact(id).unwrap().num_inputs()]];
    let err = server.transient(id, f64::INFINITY, &step).unwrap_err();
    assert!(
        matches!(err, RomError::Query(QueryError::NonFiniteStep { .. })),
        "got {err:?}"
    );
    // A subnormal step is positive and finite, but 1/h overflows.
    let err = server.transient(id, 1e-310, &step).unwrap_err();
    assert!(
        matches!(err, RomError::Query(QueryError::NonFiniteStep { value }) if value == 1e-310),
        "got {err:?}"
    );
    let err = server.transient(id, 0.0, &step).unwrap_err();
    assert!(
        matches!(err, RomError::Query(QueryError::NonPositiveStep { value }) if value == 0.0),
        "got {err:?}"
    );
    let err = server.transient(id, -2.5, &step).unwrap_err();
    assert!(
        matches!(err, RomError::Query(QueryError::NonPositiveStep { .. })),
        "got {err:?}"
    );
    // Valid queries still pass after all the refusals above.
    assert!(server.transfer_sweep(id, &[1.0e3]).is_ok());
    assert!(server.transient(id, 1e-4, &step).is_ok());
}

/// Deterministic xorshift64* — seeds the corruption fuzz without any
/// clock or platform dependence.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

#[test]
fn artifact_corruption_fuzz_yields_typed_errors_never_panics() {
    let _g = locked();
    let net = bdsm_core::synth::rc_grid(5, 5, 1.0, 1e-3, 2.0);
    let reducer = Reducer::builder()
        .blocks(3)
        .jomega_shifts(&[8.0e2])
        .build()
        .expect("valid reducer");
    let artifact = reducer.reduce_to_artifact(&net).expect("reduce");
    let bytes = artifact.to_bytes();
    assert!(RomArtifact::from_bytes(&bytes).is_ok(), "baseline decodes");
    // The sweep must reach the compressed-row decode (three blocks leave
    // the reduced matrices sparse enough; two did not): with every entry
    // nonzero all four matrices are stored dense, so a shorter file means
    // at least one section is compressed.
    let mut dense = artifact.clone();
    for m in [&mut dense.g, &mut dense.c, &mut dense.b, &mut dense.l] {
        m.as_mut_slice().fill(1.0);
    }
    assert!(
        bytes.len() < dense.to_bytes().len(),
        "no matrix of the fuzzed artifact is stored compressed-row"
    );

    let decode = |mutated: Vec<u8>, what: String| {
        let out = std::panic::catch_unwind(|| RomArtifact::from_bytes(&mutated));
        let res = out.unwrap_or_else(|_| panic!("from_bytes panicked on {what}"));
        // Every byte of the stream — magic, version, payload, checksum —
        // is covered by magic/version checks or the trailing checksum, so
        // any single corruption must be rejected with a typed error.
        let err = res
            .err()
            .unwrap_or_else(|| panic!("corruption accepted as a valid model: {what}"));
        assert!(
            matches!(
                err,
                RomError::BadMagic
                    | RomError::UnsupportedVersion { .. }
                    | RomError::Truncated { .. }
                    | RomError::Corrupt(_)
            ),
            "{what}: unexpected error class {err:?}"
        );
    };

    // Single-byte flips at 512 deterministic positions (plus both ends).
    let mut rng = Rng(0x5EED_CAFE_F00D_D00D);
    let mut positions: Vec<usize> = (0..512)
        .map(|_| (rng.next() as usize) % bytes.len())
        .collect();
    positions.push(0);
    positions.push(bytes.len() - 1);
    for pos in positions {
        let flip = 1u8 << (rng.next() % 8) as u8;
        let mut mutated = bytes.clone();
        mutated[pos] ^= flip;
        // With the checksum recomputed the same flip reaches the
        // structural decode. A flipped value bit is a different but
        // well-formed model, so it may decode; it must never panic, and
        // a refusal must be typed.
        let mut w = ByteWriter::new();
        w.bytes(&mutated[..bytes.len() - 8]);
        let restamped = w.into_checksummed();
        let out = std::panic::catch_unwind(|| RomArtifact::from_bytes(&restamped));
        let res = out.unwrap_or_else(|_| panic!("from_bytes panicked on restamped flip at {pos}"));
        if let Err(err) = res {
            assert!(
                matches!(
                    err,
                    RomError::BadMagic
                        | RomError::UnsupportedVersion { .. }
                        | RomError::Truncated { .. }
                        | RomError::Corrupt(_)
                ),
                "restamped flip at {pos}: unexpected error class {err:?}"
            );
        }
        decode(mutated, format!("flip bit {flip:#04x} at byte {pos}"));
    }

    // Truncations: every prefix of the header region, then 256
    // deterministic interior cuts, then the one-byte-short stream.
    for cut in (0..64.min(bytes.len())).chain((0..256).map(|_| (rng.next() as usize) % bytes.len()))
    {
        decode(bytes[..cut].to_vec(), format!("truncate to {cut} bytes"));
    }
    decode(
        bytes[..bytes.len() - 1].to_vec(),
        "truncate the checksum".to_string(),
    );

    // Appended garbage must be rejected too (trailing bytes are corrupt).
    let mut extended = bytes.clone();
    extended.extend_from_slice(&[0xAB; 7]);
    decode(extended, "append 7 trailing bytes".to_string());

    // And the pristine bytes still decode bitwise after all that.
    let reloaded = RomArtifact::from_bytes(&bytes).expect("pristine decode");
    assert!(artifact.bitwise_eq(&reloaded));
    // Corrupt inputs never touch serving either: a server loaded from the
    // pristine bytes still answers.
    let mut server = RomServer::new();
    let id = server.load_artifact(reloaded);
    let resp = server
        .transfer_sweep(id, &[8.0e2])
        .expect("serve after fuzz");
    assert_eq!(resp.len(), 1);
    assert!(resp[0][(0, 0)] != Complex64::ZERO);
}
