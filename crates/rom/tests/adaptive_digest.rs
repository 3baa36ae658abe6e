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
//! the previous digests still held. All four constants were re-pinned
//! once more when the certificate stopped computing the pencil's
//! spectral abscissa: the artifact now writes the retired slot's
//! "absent" tag `0` where it wrote `1` and the value, so both files are
//! 8 bytes shorter. The new bytes are the old ones with that slot spliced
//! and the checksum restamped; no reduced entry moved. All four were
//! re-pinned once more for artifact format v4: the version byte is 4, the
//! 18 bytes of retired slots (the solver-backend tag, the stability
//! margins and the spectral-abscissa tag) are gone, and the trailing
//! checksum is the codec's word-wise sum. The v3 bytes with exactly
//! those three edits equal the new ones; no reduced entry moved. All
//! four were re-pinned once more for artifact format v5, which dropped
//! the bus-partition section and the partition-strategy tag: the v4
//! bytes with byte 8 set to 5, the partition `u64s` section (30 120 B on
//! the mesh, 24 144 B on the ladder) and the strategy byte cut, and the
//! trailing `codec::checksum` restamped equal the new bytes for both
//! models; no reduced entry moved. All four were re-pinned once more for
//! artifact format v6, which dropped the certificate's two eigenvalue
//! margins (of `sym(G_r)` and `C_r`) when semidefiniteness became a
//! scaled Cholesky test: the v5 bytes with byte 8 set to 6, the 16 margin
//! bytes cut (they follow the status byte and the tolerance, at offset
//! 1 199 352 of the mesh file and 92 047 of the ladder's) and the
//! trailing `codec::checksum` restamped equal the new bytes for both
//! models; no reduced entry, sample eigenvalue or error band moved. All
//! four were re-pinned once more for artifact format v7, which dropped
//! the passivity section's per-sample eigenvalues when the samples took
//! the same semidefiniteness test: the v6 bytes with byte 8 set to 7, the
//! sample-eigenvalue list cut (56 bytes for the 6 samples, at offset
//! 1 199 408 of the mesh file and 92 103 of the ladder's, right after the
//! sample frequencies) and the trailing `codec::checksum` restamped equal
//! the new bytes for both models, and the certificate's JSON did not
//! move. All four were re-pinned once more for artifact format v8, which
//! stores each reduced matrix dense or compressed-row, whichever is
//! smaller: every `G_r`, `C_r`, `B_r` and `L_r` of both builds is stored
//! compressed-row (mesh: 12 433 and 3 103 of 269² entries, 60 of 538 in
//! each port map; ladder: 1 272 and 561 of 64², 24 of 128), and the
//! files shrink from 1 199 626 to 290 246 and from 92 321 to 56 421
//! bytes. The v7 and v8 bytes of the same one-worker build decode to the
//! same JSON dump apart from `format_version` (every matrix entry and the
//! certificate bit for bit), an independent parser of both layouts read
//! the same entry bits from each file's four matrix sections, and the
//! bytes after the matrices (shifts through certificate) are equal. The
//! digest below stays a byte-serial FNV-1a of the whole file, kept here
//! so the pin shares no code with the codec.
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
        for level in [ObsLevel::Off, ObsLevel::Spans] {
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

const PINNED_LEN: usize = 290_246;
const PINNED_FNV1A: u64 = 8_442_174_747_795_678_285;
const LADDER_LEN: usize = 56_421;
const LADDER_FNV1A: u64 = 11_062_637_809_661_824_129;
