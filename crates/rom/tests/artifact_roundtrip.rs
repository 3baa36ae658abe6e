//! Property coverage of the artifact round-trip: every topology ×
//! strategy × interface-policy combination must serialize and come back
//! **bitwise-identical** — plus the typed error paths for version
//! mismatch and truncation, and server results that don't drift from the
//! in-memory model.

use bdsm_circuit::Network;
use bdsm_core::engine::AdaptiveShiftOpts;
use bdsm_core::synth::{ieee_like_feeder, rc_grid, rc_ladder};
use bdsm_core::transfer::eval_transfer;
use bdsm_linalg::Complex64;
use bdsm_rom::{Reducer, ReducerBuilder, RomArtifact, RomError, RomServer, FORMAT_VERSION};

fn topologies() -> Vec<(&'static str, Network)> {
    vec![
        ("ladder", rc_ladder(60, 1.0, 1e-3, 2.0)),
        ("grid", rc_grid(7, 9, 1.0, 1e-3, 2.0)),
        ("feeder", ieee_like_feeder(4, 12, 0.8, 1e-3, 1e-5, 3.0)),
    ]
}

fn configs() -> Vec<(&'static str, ReducerBuilder)> {
    let fixed = || Reducer::builder().blocks(3).jomega_shifts(&[2.0e2, 2.0e3]);
    let adaptive = || {
        Reducer::builder().blocks(3).adaptive(AdaptiveShiftOpts {
            candidate_omegas: AdaptiveShiftOpts::log_grid(5.0e1, 4.0e3, 6),
            tol: 1e-6,
            max_shifts: 3,
        })
    };
    vec![
        ("fixed+folded", fixed()),
        ("fixed+exact", fixed().exact_interfaces()),
        ("adaptive+folded", adaptive()),
        ("adaptive+exact", adaptive().exact_interfaces()),
        // A truncating budget exercises the capped block dims.
        ("fixed+exact+budget", fixed().exact_interfaces().budget(30)),
    ]
}

#[test]
fn every_topology_and_config_round_trips_bitwise() {
    let dir = std::env::temp_dir().join("bdsm_rom_roundtrip_prop");
    std::fs::create_dir_all(&dir).unwrap();
    for (tname, net) in topologies() {
        for (cname, builder) in configs() {
            let reducer = builder.build().unwrap_or_else(|e| {
                panic!("config {cname} failed to build: {e}");
            });
            let artifact = reducer
                .reduce_to_artifact(&net)
                .unwrap_or_else(|e| panic!("{tname}/{cname}: reduction failed: {e}"));
            // In-memory byte round-trip.
            let back = RomArtifact::from_bytes(&artifact.to_bytes())
                .unwrap_or_else(|e| panic!("{tname}/{cname}: deserialize failed: {e}"));
            assert!(
                artifact.bitwise_eq(&back),
                "{tname}/{cname}: byte round-trip not bitwise"
            );
            // File round-trip.
            let path = dir.join(format!("{tname}_{cname}.rom"));
            artifact.save(&path).unwrap();
            let loaded = RomArtifact::load(&path).unwrap();
            assert!(
                artifact.bitwise_eq(&loaded),
                "{tname}/{cname}: file round-trip not bitwise"
            );
            // Structure sanity: exact policies carry an interface map,
            // folded ones don't, and provenance names the engine.
            if cname.contains("exact") {
                assert!(
                    !loaded.interface_map.is_empty(),
                    "{tname}/{cname}: exact policy lost its interface map"
                );
            } else {
                assert!(loaded.interface_map.is_empty());
            }
            if cname.contains("adaptive") {
                assert!(
                    !loaded.provenance.residual_trajectory.is_empty(),
                    "{tname}/{cname}: adaptive run recorded no residual trajectory"
                );
            }
            assert!(!loaded.provenance.shifts.is_empty());
            assert_eq!(loaded.provenance.engine_version, bdsm_core::ENGINE_VERSION);
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn version_mismatch_and_truncation_fail_typed() {
    let net = rc_ladder(30, 1.0, 1e-3, 2.0);
    let artifact = Reducer::builder()
        .blocks(2)
        .jomega_shifts(&[1.0e3])
        .build()
        .unwrap()
        .reduce_to_artifact(&net)
        .unwrap();
    let bytes = artifact.to_bytes();

    let mut future = bytes.clone();
    future[8] = (FORMAT_VERSION + 7) as u8;
    assert!(matches!(
        RomArtifact::from_bytes(&future),
        Err(RomError::UnsupportedVersion { found, supported })
            if found == FORMAT_VERSION + 7 && supported == FORMAT_VERSION
    ));

    // Every prefix is rejected without panicking: header cuts report
    // truncation/magic, payload cuts trip the checksum.
    for frac in [0, 1, 3, 7, 11, 50, 98] {
        let cut = bytes.len() * frac / 100;
        let err = RomArtifact::from_bytes(&bytes[..cut])
            .expect_err(&format!("prefix of {cut} bytes accepted"));
        assert!(
            matches!(
                err,
                RomError::Truncated { .. } | RomError::Corrupt(_) | RomError::BadMagic
            ),
            "unexpected error kind for {cut}-byte prefix: {err}"
        );
    }
}

#[test]
fn served_queries_match_the_inmemory_model() {
    // One end-to-end pass per topology: build → save → load → serve, and
    // the served sweep must equal fresh evaluations of the pre-save model
    // bit for bit.
    for (tname, net) in topologies() {
        let reducer = Reducer::builder()
            .blocks(3)
            .jomega_shifts(&[2.0e2, 2.0e3])
            .exact_interfaces()
            .build()
            .unwrap();
        let (rm, report, _) = reducer.reduce_traced(&net).unwrap();
        let artifact = RomArtifact::from_model(&rm, Some(&report));
        let restored = RomArtifact::from_bytes(&artifact.to_bytes()).unwrap();
        let mut server = RomServer::new();
        let id = server.load_artifact(restored);
        let omegas: Vec<f64> = (0..24).map(|i| 30.0 * 1.4_f64.powi(i)).collect();
        let sweep = server.transfer_sweep(id, &omegas).unwrap();
        for (k, &w) in omegas.iter().enumerate() {
            let fresh = eval_transfer(&rm.g, &rm.c, &rm.b, &rm.l, Complex64::jomega(w)).unwrap();
            assert_eq!(sweep[k], fresh, "{tname}: served sample at ω={w} drifted");
        }
    }
}
