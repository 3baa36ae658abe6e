//! Byte-level pin of the headline build: a 60 × 60 mesh reduced with
//! adaptive shifts, exact interfaces and nested dissection must encode
//! to the artifact the unfused engine produced (one factorisation per
//! sweep sample plus one per promoted shift), certificate included —
//! and to the same bytes for every `BDSM_THREADS` × `BDSM_OBS`
//! combination. The length was computed on the commit before the
//! adaptive front end became a single pass over `seeds ∪ grid`; the
//! digest was recomputed once when the default pencil ordering became a
//! selection that takes the dissection on meshes (a different elimination
//! order is different round-off). A 3 000-section ladder, where that
//! selection keeps minimum degree, stayed pinned to the bytes of the
//! commit before it. Both digests were recomputed once more when the
//! block SVD became QR-first and the sparse congruence `O(nnz·k + n·k²)`:
//! Householder-then-Jacobi and a reassociated `VᵀAV` are different
//! round-off, in the basis and hence in every reduced entry. The lengths
//! did not move, and neither did the certificate's arithmetic — with only
//! the certificate's fan-out and row-ordered triangular solves applied,
//! the previous digests still held.
//!
//! One test per binary: it sets `BDSM_THREADS` and the obs level.

use bdsm_core::engine::AdaptiveShiftOpts;
use bdsm_core::synth::{rc_grid, rc_ladder_loaded};
use bdsm_obs::ObsLevel;
use bdsm_rom::{Reducer, RomArtifact};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn mesh_artifact_digest_is_pinned_across_threads_and_obs_levels() {
    let adaptive = AdaptiveShiftOpts {
        candidate_omegas: AdaptiveShiftOpts::log_grid(5.0e1, 4.0e3, 6),
        tol: 1e-6,
        max_shifts: 4,
    };
    let net = rc_grid(60, 60, 1.0, 1e-3, 2.0);
    let reducer = Reducer::builder()
        .blocks(4)
        .nested_dissection()
        .jomega_shifts(&[4.5e2])
        .moments(2)
        .budget(2000)
        .adaptive(adaptive.clone())
        .exact_interfaces()
        .sparse()
        .build()
        .expect("valid reducer");
    let ladder = rc_ladder_loaded(3000, 1.0, 1e-3, 5.0, 5);
    let ladder_reducer = Reducer::builder()
        .blocks(8)
        .jomega_shifts(&[4.5e2])
        .moments(2)
        .adaptive(adaptive)
        .sparse()
        .build()
        .expect("valid reducer");
    let prev_threads = std::env::var("BDSM_THREADS").ok();
    let prev_level = bdsm_obs::level();
    for threads in ["1", "2", "5"] {
        for level in [ObsLevel::Off, ObsLevel::Timings, ObsLevel::Spans] {
            std::env::set_var("BDSM_THREADS", threads);
            bdsm_obs::set_level(level);
            let (rm, report, _) = reducer.reduce_traced(&net).expect("mesh reduction");
            assert!(report.rounds.len() > 1, "the greedy step must promote");
            let bytes = RomArtifact::from_model(&rm, Some(&report)).to_bytes();
            assert_eq!(
                (bytes.len(), fnv1a(&bytes)),
                (PINNED_LEN, PINNED_FNV1A),
                "artifact bytes moved (threads {threads}, obs {level:?})"
            );
            let (rm, report, _) = ladder_reducer
                .reduce_traced(&ladder)
                .expect("ladder reduction");
            let bytes = RomArtifact::from_model(&rm, Some(&report)).to_bytes();
            assert_eq!(
                (bytes.len(), fnv1a(&bytes)),
                (LADDER_LEN, LADDER_FNV1A),
                "ladder artifact bytes moved (threads {threads}, obs {level:?})"
            );
        }
    }
    bdsm_obs::set_level(prev_level);
    match prev_threads {
        Some(v) => std::env::set_var("BDSM_THREADS", v),
        None => std::env::remove_var("BDSM_THREADS"),
    }
}

const PINNED_LEN: usize = 1_229_845;
const PINNED_FNV1A: u64 = 3_148_005_881_229_836_544;
const LADDER_LEN: usize = 116_564;
const LADDER_FNV1A: u64 = 8_641_191_893_295_354_332;
