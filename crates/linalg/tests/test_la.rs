//! Integration tests for the linalg kernels the reduction engine leans on:
//! LU solves against known systems, SVD reconstruction, and
//! symmetric-eigen residuals.

use bdsm_linalg::{DenseLu, Matrix, Svd, SymEig};

/// Deterministic pseudo-random matrix with a diagonal boost that keeps the
/// condition number moderate.
fn pseudo_random(n: usize, m: usize, seed: u64, boost: f64) -> Matrix {
    let mut state = seed;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state as f64 / u64::MAX as f64) - 0.5
    };
    let mut a = Matrix::from_fn(n, m, |_, _| next());
    for i in 0..n.min(m) {
        a[(i, i)] += boost;
    }
    a
}

#[test]
fn lu_solves_hilbert_like_system_to_high_accuracy() {
    // Mildly ill-conditioned but known solution via residual check.
    let n = 24;
    let a = Matrix::from_fn(n, n, |i, j| {
        1.0 / ((i + j + 1) as f64) + if i == j { 1.0 } else { 0.0 }
    });
    let xref: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).cos()).collect();
    let b = a.matvec(&xref).unwrap();
    let x = DenseLu::factor(&a).unwrap().solve(&b).unwrap();
    let rel = bdsm_linalg::vector::rel_err(&x, &xref, 1e-30);
    assert!(rel < 1e-12, "LU solve error {rel}");
}

#[test]
fn lu_determinant_of_block_triangular_product() {
    // det(AB) = det(A)·det(B).
    let a = pseudo_random(6, 6, 0x1234_5678_9abc_def0, 3.0);
    let b = pseudo_random(6, 6, 0x0fed_cba9_8765_4321, 3.0);
    let da = DenseLu::factor(&a).unwrap().det();
    let db = DenseLu::factor(&b).unwrap().det();
    let dab = DenseLu::factor(&a.matmul(&b).unwrap()).unwrap().det();
    assert!((dab - da * db).abs() < 1e-10 * dab.abs().max(1.0));
}

#[test]
fn svd_reconstructs_and_orders_singular_values() {
    let a = pseudo_random(20, 9, 0x0123_4567_89ab_cdef, 0.0);
    let svd = Svd::compute(&a).unwrap();
    // Descending, non-negative singular values.
    for w in svd.sigma.windows(2) {
        assert!(w[0] >= w[1] && w[1] >= 0.0);
    }
    // A = U Σ Vᵀ.
    let sigma = Matrix::from_fn(svd.sigma.len(), svd.sigma.len(), |i, j| {
        if i == j {
            svd.sigma[i]
        } else {
            0.0
        }
    });
    let back = svd
        .u
        .matmul(&sigma)
        .unwrap()
        .matmul(&svd.v.transpose())
        .unwrap();
    let rec = back.sub(&a).unwrap().norm_fro() / a.norm_fro();
    assert!(rec < 1e-12, "SVD reconstruction error {rec}");
    // Both factors orthonormal.
    for m in [&svd.u, &svd.v] {
        let gram = m.transpose().matmul(m).unwrap();
        let err = gram.sub(&Matrix::identity(m.ncols())).unwrap().norm_max();
        assert!(err < 1e-12);
    }
}

#[test]
fn svd_rank_detects_constructed_rank_deficiency() {
    // Outer product of two vectors + tiny noise → numerical rank 1.
    let u: Vec<f64> = (0..15).map(|i| (i as f64 * 0.3).sin() + 1.5).collect();
    let v: Vec<f64> = (0..7).map(|j| (j as f64 * 0.7).cos() + 2.0).collect();
    let a = Matrix::from_fn(15, 7, |i, j| u[i] * v[j]);
    let svd = Svd::compute(&a).unwrap();
    assert_eq!(svd.rank(1e-10), 1);
}

#[test]
fn sym_eig_residual_and_orthogonality() {
    let n = 16;
    let raw = pseudo_random(n, n, 0x5555_aaaa_5555_aaaa, 0.0);
    // Symmetrize: A = (R + Rᵀ)/2 + diag boost.
    let mut a = raw.add(&raw.transpose()).unwrap().scaled(0.5);
    for i in 0..n {
        a[(i, i)] += 2.0;
    }
    let eig = SymEig::compute(&a).unwrap();
    // Ascending eigenvalues.
    for w in eig.values.windows(2) {
        assert!(w[0] <= w[1]);
    }
    // ‖A q_i − λ_i q_i‖ small for every pair.
    for (i, &lambda) in eig.values.iter().enumerate() {
        let q = eig.vectors.col(i);
        let aq = a.matvec(&q).unwrap();
        let resid: Vec<f64> = aq.iter().zip(&q).map(|(av, qv)| av - lambda * qv).collect();
        let rn = bdsm_linalg::vector::norm2(&resid);
        assert!(
            rn < 1e-11 * lambda.abs().max(1.0),
            "eigpair {i} residual {rn}"
        );
    }
    // Qᵀ Q = I.
    let gram = eig.vectors.transpose().matmul(&eig.vectors).unwrap();
    assert!(gram.sub(&Matrix::identity(n)).unwrap().norm_max() < 1e-12);
}

#[test]
fn sym_eig_trace_and_determinant_invariants() {
    let a = {
        let raw = pseudo_random(8, 8, 0x9876_5432_10ab_cdef, 0.0);
        let mut s = raw.add(&raw.transpose()).unwrap().scaled(0.5);
        for i in 0..8 {
            s[(i, i)] += 4.0;
        }
        s
    };
    let eig = SymEig::compute(&a).unwrap();
    let trace: f64 = (0..8).map(|i| a[(i, i)]).sum();
    let eig_sum: f64 = eig.values.iter().sum();
    assert!((trace - eig_sum).abs() < 1e-11 * trace.abs());
    let det = DenseLu::factor(&a).unwrap().det();
    let eig_prod: f64 = eig.values.iter().product();
    assert!((det - eig_prod).abs() < 1e-9 * det.abs().max(1.0));
}
