//! Scale acceptance for the serve path: a 10,000-state grid reduced in
//! the headline mode (adaptive greedy shifts + exact interfaces), its
//! artifact — certificate included — round-tripped bitwise, and a
//! 64-frequency `RomServer` sweep over the **loaded** artifact matching
//! the freshly built model bit for bit under every `BDSM_OBS` level ×
//! `BDSM_THREADS` ∈ {1, 2, 5} combination — observability must change
//! wall-clock, never bytes. Also covered here: v2 bytes still load (with
//! an `Unknown` certificate), the certificate itself is
//! thread-count-invariant, and the envelope policies refuse/flag
//! out-of-envelope queries with exact metric counts.
//!
//! This file holds a single test because it manipulates `BDSM_THREADS`
//! and the process-global obs level; keeping it alone in its binary
//! avoids races with sibling tests.

use bdsm_core::engine::AdaptiveShiftOpts;
use bdsm_core::synth::rc_grid;
use bdsm_core::transfer::eval_transfer;
use bdsm_linalg::Complex64;
use bdsm_obs::ObsLevel;
use bdsm_rom::{CertStatus, EnvelopePolicy, QueryError, Reducer, RomArtifact, RomError, RomServer};

#[test]
fn adaptive_exact_10k_artifact_roundtrips_and_serves_bitwise() {
    // 100 × 100 RC mesh → 10,000 states; same headline configuration as
    // the engine's adaptive acceptance test, built through the v1 API.
    let net = rc_grid(100, 100, 1.0, 1e-3, 2.0);
    let reducer = Reducer::builder()
        .blocks(4)
        .jomega_shifts(&[4.5e2])
        .moments(2)
        .budget(2000)
        .adaptive(AdaptiveShiftOpts {
            candidate_omegas: AdaptiveShiftOpts::log_grid(5.0e1, 4.0e3, 6),
            tol: 1e-6,
            max_shifts: 4,
        })
        .exact_interfaces()
        .sparse()
        .build()
        .expect("valid reducer");
    let prev = std::env::var("BDSM_THREADS").ok();
    std::env::set_var("BDSM_THREADS", "5");
    let (rm, report, _) = reducer.reduce_traced(&net).expect("10k reduction");
    assert_eq!(rm.full_dim(), 10_000);
    assert!(report.certified, "adaptive loop did not certify");

    // The Certify stage produced a full certificate on the passive RC
    // model, with a posteriori error bands from the adaptive sweep.
    let cert = &report.certificate;
    assert_eq!(cert.status, CertStatus::Certified, "cert: {cert:?}");
    assert!(
        !cert.error_bands.is_empty(),
        "adaptive run must carry bands"
    );
    let (env_lo, env_hi) = cert
        .frequency_envelope()
        .expect("certified model has an envelope");
    assert!(env_lo > 0.0 && env_hi > env_lo);

    // The certificate — like the reduced model — is bitwise-identical
    // for any worker count.
    for threads in ["1", "2"] {
        std::env::set_var("BDSM_THREADS", threads);
        let (_, rep, _) = reducer.reduce_traced(&net).expect("re-reduction");
        assert_eq!(
            rep.certificate, report.certificate,
            "certificate differs with BDSM_THREADS={threads}"
        );
    }
    std::env::set_var("BDSM_THREADS", "5");

    // Bitwise artifact round-trip through bytes and through a file — the
    // certificate travels inside the v3 format and must survive intact.
    let artifact = RomArtifact::from_model(&rm, Some(&report));
    assert!(!artifact.interface_map.is_empty());
    assert_eq!(&artifact.provenance.certificate, cert);
    let path = std::env::temp_dir().join("bdsm_serve_10k.rom");
    artifact.save(&path).expect("save artifact");
    let loaded = RomArtifact::load(&path).expect("load artifact");
    std::fs::remove_file(&path).ok();
    assert!(
        artifact.bitwise_eq(&loaded),
        "10k adaptive+exact artifact round-trip is not bitwise"
    );
    assert_eq!(
        &loaded.provenance.certificate, cert,
        "certificate did not round-trip bitwise through the v3 format"
    );

    // Pre-certificate (v2) bytes still load; the certificate degrades to
    // Unknown and the model has no envelope to enforce.
    let v2 = RomArtifact::from_bytes(&artifact.to_bytes_v2()).expect("v2 bytes load");
    assert_eq!(v2.provenance.certificate.status, CertStatus::Unknown);
    assert!(v2.provenance.certificate.frequency_envelope().is_none());
    assert_eq!(
        v2.to_bytes_v2(),
        artifact.to_bytes_v2(),
        "v2 payload differs beyond the certificate"
    );

    // 64-frequency sweep over the loaded artifact, under every obs level
    // × worker count combination: every batch must be byte-identical, and
    // equal to fresh evaluations of the pre-save model.
    let omegas: Vec<f64> = (0..64)
        .map(|i| 50.0 * (4.0e3_f64 / 50.0).powf(i as f64 / 63.0))
        .collect();
    let mut server = RomServer::new();
    let id = server.load_artifact(loaded);

    let prev_level = bdsm_obs::level();
    let mut sweeps = Vec::new();
    for level in [ObsLevel::Off, ObsLevel::Timings, ObsLevel::Spans] {
        bdsm_obs::set_level(level);
        for threads in ["1", "2", "5"] {
            std::env::set_var("BDSM_THREADS", threads);
            sweeps.push((
                level,
                threads,
                server.transfer_sweep(id, &omegas).expect("sweep"),
            ));
        }
    }
    bdsm_obs::set_level(prev_level);
    let (_, _, reference) = &sweeps[0];
    for (level, threads, sweep) in &sweeps[1..] {
        assert_eq!(
            sweep, reference,
            "served sweep differs at obs level {level:?} with {threads} workers"
        );
    }
    for (k, &w) in omegas.iter().enumerate() {
        let fresh =
            eval_transfer(&rm.g, &rm.c, &rm.b, &rm.l, Complex64::jomega(w)).expect("fresh sample");
        assert_eq!(
            reference[k], fresh,
            "served sample at ω={w} differs from the freshly built model"
        );
    }
    // The cache holds exactly the 64 queried shifts, across all batches,
    // and the cache counters balance exactly: 9 sweeps × 64 samples, of
    // which only the cold batch's 64 missed (and inserted).
    assert_eq!(server.cached_shifts(id).unwrap(), omegas.len());
    let m = server.metrics();
    assert_eq!(m.queries(), 9 * omegas.len() as u64);
    assert_eq!(m.cache.misses, omegas.len() as u64);
    assert_eq!(m.cache.inserts, m.cache.misses);
    assert_eq!(m.cache.hits, 8 * omegas.len() as u64);

    // ---- Envelope enforcement over the certified band [env_lo, env_hi].
    let m0 = server.metrics();
    let inside = 0.5 * (env_lo + env_hi);
    let outside1 = env_hi * 2.0;
    let outside2 = env_hi * 4.0;

    // The default policy is Flag: out-of-envelope samples are served,
    // each counted once.
    assert_eq!(server.envelope_policy(), EnvelopePolicy::Flag);
    let served = server
        .transfer_sweep(id, &[inside, outside1, outside2])
        .expect("flagged sweep is still served");
    assert_eq!(served.len(), 3);
    let m1 = server.metrics();
    assert_eq!(m1.envelope_flags, m0.envelope_flags + 2);
    assert_eq!(m1.envelope_refusals, m0.envelope_refusals);

    // Strict: the same query is refused with the envelope spelled out,
    // and so is a transient step finer than the certified floor 1/ω_hi.
    server.set_envelope_policy(EnvelopePolicy::Strict);
    let err = server
        .transfer_sweep(id, &[inside, outside1])
        .expect_err("strict refusal");
    match err {
        RomError::Query(QueryError::OutsideEnvelope {
            value,
            lo,
            hi,
            domain,
        }) => {
            assert_eq!(value, outside1);
            assert_eq!((lo, hi), (env_lo, env_hi));
            assert_eq!(domain, "frequency");
        }
        other => panic!("expected OutsideEnvelope, got {other:?}"),
    }
    let h_min = cert.min_transient_step().expect("certified step floor");
    let err = server
        .transient(id, 0.5 * h_min, &[])
        .expect_err("too-fine step refused under Strict");
    assert!(
        matches!(
            err,
            RomError::Query(QueryError::OutsideEnvelope {
                domain: "transient step",
                ..
            })
        ),
        "got {err:?}"
    );
    let m2 = server.metrics();
    assert_eq!(m2.envelope_refusals, m1.envelope_refusals + 2);
    assert_eq!(m2.envelope_flags, m1.envelope_flags);
    // In-envelope queries under Strict still serve.
    assert!(server.transfer_sweep(id, &[inside]).is_ok());

    // Ignore: pre-certificate behaviour, no counters move.
    server.set_envelope_policy(EnvelopePolicy::Ignore);
    assert!(server.transfer_sweep(id, &[outside2]).is_ok());
    let m3 = server.metrics();
    assert_eq!(m3.envelope_refusals, m2.envelope_refusals);
    assert_eq!(m3.envelope_flags, m2.envelope_flags);

    match prev {
        Some(v) => std::env::set_var("BDSM_THREADS", v),
        None => std::env::remove_var("BDSM_THREADS"),
    }
}
