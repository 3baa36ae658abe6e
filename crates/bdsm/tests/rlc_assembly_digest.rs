//! Bit-level pin of two RLC assemblies: the permuted full model the
//! engine reduces (`Plan::full`) for the `rlc_ladder.sp` fixture — two
//! inductors and a voltage source, so branch-current states and skew
//! `G` stamps — and for `ieee_like_feeder`, whose substation column
//! carries forty inductor couplings. Each of `G`, `C`, `B`, `L` is
//! hashed separately (FNV-1a over positions and `f64::to_bits`), so a
//! moved bit names the matrix it moved in. The values were computed when
//! assembly stamped a COO table that was permuted before CSC conversion;
//! stamping straight into CSC and permuting afterwards left every bit
//! where it was.

use bdsm::circuit::{Network, PartitionStrategy};
use bdsm::core::engine::ReductionEngine;
use bdsm::core::reduce::ReductionOpts;
use bdsm::core::synth::ieee_like_feeder;
use bdsm::linalg::Matrix;
use bdsm::sparse::CscMatrix;
use std::path::PathBuf;

fn fnv1a(h: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn sparse_digest(a: &CscMatrix<f64>) -> u64 {
    a.iter().fold(FNV_OFFSET, |h, (i, j, v)| {
        fnv1a(fnv1a(fnv1a(h, i as u64), j as u64), v.to_bits())
    })
}

fn dense_digest(a: &Matrix) -> u64 {
    let h = fnv1a(fnv1a(FNV_OFFSET, a.nrows() as u64), a.ncols() as u64);
    a.as_slice().iter().fold(h, |h, v| fnv1a(h, v.to_bits()))
}

/// `(n, [G, C, B, L] digests)` of the engine's permuted full model.
fn full_model_digests(
    net: &Network,
    blocks: usize,
    strategy: PartitionStrategy,
) -> (usize, [u64; 4]) {
    let opts = ReductionOpts {
        num_blocks: blocks,
        partition_strategy: strategy,
        ..ReductionOpts::default()
    };
    let plan = ReductionEngine::new(net, &opts).unwrap().plan().unwrap();
    let full = &plan.full;
    let digests = [
        sparse_digest(&full.g),
        sparse_digest(&full.c),
        dense_digest(&full.b),
        dense_digest(&full.l),
    ];
    (full.g.nrows(), digests)
}

#[test]
fn rlc_fixture_assembly_is_pinned() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../io/fixtures/rlc_ladder.sp");
    let net = bdsm::io::load_netlist(path).unwrap();
    let got = full_model_digests(&net, 2, PartitionStrategy::Bfs);
    assert_eq!(got, (8, FIXTURE));
}

#[test]
fn feeder_assembly_is_pinned_under_both_orders() {
    let net = ieee_like_feeder(40, 30, 1.0, 1e-3, 1e-4, 5.0);
    let bfs = full_model_digests(&net, 4, PartitionStrategy::Bfs);
    let nd = full_model_digests(&net, 4, PartitionStrategy::NestedDissection);
    assert_eq!((bfs, nd), ((1241, FEEDER_BFS), (1241, FEEDER_ND)));
}

const FIXTURE: [u64; 4] = [
    13_526_751_883_930_170_465,
    11_360_972_671_923_628_339,
    3_410_740_124_676_988_623,
    3_382_032_190_076_081_007,
];
const FEEDER_BFS: [u64; 4] = [
    17_252_588_445_484_665_284,
    11_124_068_946_525_465_711,
    15_854_161_672_062_087_314,
    13_474_701_637_195_619_946,
];
const FEEDER_ND: [u64; 4] = [
    1_822_800_903_928_107_884,
    16_750_249_998_352_336_623,
    1_424_167_858_048_953_618,
    2_317_786_186_430_299_530,
];
