//! The paper's defining property, asserted directly: the ROM matches the
//! moments of the full model at every expansion point.
//!
//! `m_j = L·(−A⁻¹C)ʲ·A⁻¹B` with `A = G + s₀C` is computed here by repeated
//! dense solves on the densified full model and on the ROM — a recurrence
//! that shares nothing with `krylov.rs`, the projector or any transfer
//! evaluator. A congruence with `V = W` on a symmetric RC pencil with
//! `L = Bᵀ` matches `2·moments` of them; the first one past that must
//! *not* match, so the test cannot pass vacuously.

use bdsm_circuit::Network;
use bdsm_core::krylov::{collect_points, ExpansionPoint, KrylovOpts};
use bdsm_core::projector::InterfacePolicy;
use bdsm_core::reduce::{reduce_network, ReductionOpts};
use bdsm_core::synth::{rc_grid, rc_ladder};
use bdsm_core::transfer::ZLu;
use bdsm_linalg::{Complex64, DenseLu, Matrix};

type CVec = Vec<Complex64>;

fn complex(v: Vec<f64>) -> CVec {
    v.into_iter().map(Complex64::from_real).collect()
}

/// `m_0 … m_{count−1}` at `s₀`, each as its `m` columns stacked.
fn moments([g, c, b, l]: [&Matrix; 4], s0: ExpansionPoint, count: usize) -> Vec<CVec> {
    match s0 {
        ExpansionPoint::Real(s) => {
            let lu = DenseLu::factor(&g.add(&c.scaled(s)).unwrap()).unwrap();
            recur(c, b, l, count, |v| {
                let re: Vec<f64> = v.iter().map(|z| z.re).collect();
                complex(lu.solve(&re).unwrap())
            })
        }
        ExpansionPoint::Jomega(w) => {
            let lu = ZLu::factor_shifted(g, c, Complex64::jomega(w)).unwrap();
            recur(c, b, l, count, |v| lu.solve(v).unwrap())
        }
    }
}

/// `X₀ = A⁻¹B`, `X_{j+1} = −A⁻¹·C·X_j`, `m_j = L·X_j`, with `solve = A⁻¹·`.
fn recur(
    c: &Matrix,
    b: &Matrix,
    l: &Matrix,
    count: usize,
    solve: impl Fn(&[Complex64]) -> CVec,
) -> Vec<CVec> {
    let times = |a: &Matrix, x: &[Complex64]| -> CVec {
        let dot = |row: &[f64]| row.iter().zip(x).map(|(&a, &x)| x * a).sum();
        (0..a.nrows()).map(|i| dot(a.row(i))).collect()
    };
    let mut x: Vec<CVec> = (0..b.ncols()).map(|k| solve(&complex(b.col(k)))).collect();
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(x.iter().flat_map(|xk| times(l, xk)).collect());
        for xk in &mut x {
            *xk = solve(&times(c, xk)).into_iter().map(|z| -z).collect();
        }
    }
    out
}

/// `‖full − rom‖_F / ‖full‖_F`.
fn rel_diff(full: &[Complex64], rom: &[Complex64]) -> f64 {
    let diff: f64 = full.iter().zip(rom).map(|(f, r)| (*f - *r).abs_sq()).sum();
    let norm: f64 = full.iter().map(|f| f.abs_sq()).sum();
    (diff / norm).sqrt()
}

fn assert_moments_match(net: &Network, blocks: usize, krylov: KrylovOpts) {
    let order = krylov.moments_per_point;
    let points = collect_points(&krylov);
    for policy in [InterfacePolicy::Folded, InterfacePolicy::Exact] {
        let opts = ReductionOpts {
            num_blocks: blocks,
            krylov: krylov.clone(),
            rank_tol: 1e-12,
            max_reduced_dim: None,
            interface_policy: policy,
            ..ReductionOpts::default()
        };
        let rm = reduce_network(net, &opts).expect("reduction");
        let (full, q) = (rm.full.to_dense(), rm.reduced_dim());
        for &s0 in &points {
            let of_full = moments([&full.g, &full.c, &full.b, &full.l], s0, 2 * order + 1);
            let of_rom = moments([&rm.g, &rm.c, &rm.b, &rm.l], s0, 2 * order + 1);
            for (j, (mf, mr)) in of_full.iter().zip(&of_rom).enumerate() {
                let rel = rel_diff(mf, mr);
                assert!(
                    if j < 2 * order {
                        rel <= 1e-12
                    } else {
                        rel > 1e-8
                    },
                    "{policy:?} q={q} {s0:?}: m_{j} differs by {rel:.2e}"
                );
            }
        }
    }
}

#[test]
fn ladder_matches_twice_its_moments_at_a_real_point() {
    let krylov = KrylovOpts {
        expansion_points: vec![1e3],
        moments_per_point: 3,
        ..KrylovOpts::default()
    };
    assert_moments_match(&rc_ladder(200, 1.0, 1e-3, 2.0), 3, krylov);
}

#[test]
fn grid_matches_twice_its_moments_at_every_jomega_point() {
    let krylov = KrylovOpts {
        expansion_points: vec![],
        jomega_points: vec![5e2, 2e3],
        moments_per_point: 2,
        ..KrylovOpts::default()
    };
    assert_moments_match(&rc_grid(20, 25, 1.0, 1e-3, 2.0), 4, krylov);
}
