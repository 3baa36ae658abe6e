//! Property tests for the sparse factorization subsystem against the dense
//! oracles, on the matrices the pipeline actually produces: MNA descriptors
//! of randomized ladder / grid / feeder networks.
//!
//! Checked properties:
//!
//! - sparse LU solves of `G + sC` match `DenseLu` (real shifts) and `ZLu`
//!   (imaginary shifts) to near machine precision;
//! - the solution is invariant under the fill-reducing ordering (AMD, RCM,
//!   natural, nested dissection, the min-fill default) and under symmetric
//!   permutation round-trips; default-ordered pencils agree with RCM-ordered
//!   ones on the 60 × 60 mesh and on a feeder with inductor rows;
//! - structurally/numerically singular matrices fail loudly with
//!   `LinalgError::Singular`.

use bdsm_circuit::{mna, Network, GROUND};
use bdsm_core::synth::{ieee_like_feeder, rc_grid, rc_ladder_loaded};
use bdsm_linalg::{Complex64, DenseLu, LinalgError};
use bdsm_sparse::{CscMatrix, FillOrdering, LuWorkspace, NumericKernel, ShiftedPencil, SparseLu};

/// `a` factored as the pencil `(a, 0)` at `s = 0`.
fn factor(a: &CscMatrix<f64>, kind: FillOrdering) -> Result<SparseLu<f64>, LinalgError> {
    let zero = CscMatrix::from_triplets(a.nrows(), a.ncols(), &[])?;
    ShiftedPencil::with_ordering(a, &zero, kind)?.factor_real(0.0)
}

/// Deterministic xorshift in `[0, 1)`, so the "random" networks are
/// reproducible across runs.
fn rng(seed: u64) -> impl FnMut() -> f64 {
    let mut s = seed.max(1);
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn test_networks() -> Vec<(&'static str, Network)> {
    let mut r = rng(0x5eed);
    vec![
        (
            "ladder",
            rc_ladder_loaded(80, 0.5 + r(), 1e-3 * (1.0 + r()), 2.0 + 3.0 * r(), 7),
        ),
        ("grid", rc_grid(9, 11, 0.5 + r(), 1e-3 * (1.0 + r()), 2.0)),
        (
            "feeder",
            ieee_like_feeder(3, 25, 0.5 + r(), 1e-3, 1e-5 * (1.0 + r()), 2.0),
        ),
    ]
}

#[test]
fn sparse_real_shift_solves_match_dense_lu() {
    for (name, net) in test_networks() {
        let d = mna::assemble(&net).unwrap();
        let (g, c) = (d.g, d.c);
        let n = g.nrows();
        let pencil = ShiftedPencil::new(&g, &c).unwrap();
        let mut r = rng(0xabcd ^ n as u64);
        let b: Vec<f64> = (0..n).map(|_| r() - 0.5).collect();
        for &s in &[1.0, 1.0e2, 1.0e4] {
            let xs = pencil.factor_real(s).unwrap().solve(&b).unwrap();
            let dense = g.to_dense().add(&c.to_dense().scaled(s)).unwrap();
            let xd = DenseLu::factor(&dense).unwrap().solve(&b).unwrap();
            let rel = bdsm_linalg::vector::rel_err(&xs, &xd, 1e-30);
            assert!(rel < 1e-10, "{name}: sparse vs dense at s={s}: {rel}");
        }
    }
}

#[test]
fn sparse_complex_shift_solves_match_zlu() {
    for (name, net) in test_networks() {
        let d = mna::assemble(&net).unwrap();
        let (g, c) = (d.g, d.c);
        let n = g.nrows();
        let pencil = ShiftedPencil::new(&g, &c).unwrap();
        let mut r = rng(0x1234 ^ n as u64);
        let b: Vec<f64> = (0..n).map(|_| r() - 0.5).collect();
        for &w in &[5.0e1, 4.0e3] {
            let s = Complex64::jomega(w);
            let xs = pencil.factor_complex(s).unwrap().solve_real(&b).unwrap();
            let zlu =
                bdsm_core::transfer::ZLu::factor_shifted(&g.to_dense(), &c.to_dense(), s).unwrap();
            let xd = zlu.solve_real(&b).unwrap();
            let num: f64 = xs
                .iter()
                .zip(&xd)
                .map(|(a, bb)| (*a - *bb).abs_sq())
                .sum::<f64>()
                .sqrt();
            let den: f64 = xd.iter().map(|z| z.abs_sq()).sum::<f64>().sqrt();
            assert!(
                num / den < 1e-10,
                "{name}: sparse vs ZLu at ω={w}: {}",
                num / den
            );
        }
    }
}

#[test]
fn solution_invariant_under_ordering_choice() {
    for (name, net) in test_networks() {
        let d = mna::assemble(&net).unwrap();
        let g = d.g;
        let n = g.nrows();
        // G alone can be singular at DC for feeders (inductor branch rows),
        // so factor G + 100·C, which is regular for every test topology.
        let assembled = {
            let mut t: Vec<(usize, usize, f64)> = g.iter().collect();
            t.extend(d.c.iter().map(|(i, j, v)| (i, j, 100.0 * v)));
            CscMatrix::from_triplets(n, n, &t).unwrap()
        };
        let mut r = rng(0x77 ^ n as u64);
        let b: Vec<f64> = (0..n).map(|_| r() - 0.5).collect();
        let mut solutions = Vec::new();
        for kind in [
            FillOrdering::Amd,
            FillOrdering::Rcm,
            FillOrdering::Natural,
            FillOrdering::NestedDissection,
            FillOrdering::MinFill,
        ] {
            let x = factor(&assembled, kind).unwrap().solve(&b).unwrap();
            solutions.push((kind, x));
        }
        let (_, ref x0) = solutions[0];
        for (kind, x) in &solutions[1..] {
            let rel = bdsm_linalg::vector::rel_err(x, x0, 1e-30);
            assert!(rel < 1e-9, "{name}: {kind:?} disagrees with AMD: {rel}");
        }
    }
}

/// The default ordering against the RCM-ordered pencil (the benchmark
/// oracle's choice) where the two differ most: the 60 × 60 mesh takes the
/// dissection, the feeder keeps minimum degree but has inductor
/// branch-current rows whose `G` diagonal is zero — the case threshold
/// pivoting exists for. Multi-RHS solves stay bitwise the column solves.
#[test]
fn default_ordered_pencil_agrees_with_rcm_ordered_pencil() {
    let nets = [
        ("mesh", rc_grid(60, 60, 1.0, 1e-3, 2.0)),
        ("feeder", ieee_like_feeder(40, 30, 0.5, 1e-3, 1e-5, 2.0)),
    ];
    for (name, net) in nets {
        let d = mna::assemble(&net).unwrap();
        let (g, c) = (d.g, d.c);
        let n = g.nrows();
        let default = ShiftedPencil::new(&g, &c).unwrap();
        let rcm = ShiftedPencil::with_ordering(&g, &c, FillOrdering::Rcm).unwrap();
        let mut r = rng(0xd15c ^ n as u64);
        let m = 3;
        let rhs: Vec<f64> = (0..n * m).map(|_| r() - 0.5).collect();

        let (lu, lu_rcm) = (
            default.factor_real(1.0e2).unwrap(),
            rcm.factor_real(1.0e2).unwrap(),
        );
        let multi = lu.solve_multi(&rhs, m).unwrap();
        for (col, b) in rhs.chunks(n).enumerate() {
            let x = lu.solve(b).unwrap();
            assert_eq!(&multi[col * n..(col + 1) * n], &x[..], "{name}: real multi");
            let rel = bdsm_linalg::vector::rel_err(&x, &lu_rcm.solve(b).unwrap(), 1e-30);
            assert!(rel <= 1e-10, "{name}: real shift vs RCM: {rel}");
        }

        let s = Complex64::jomega(4.0e3);
        let (lu, lu_rcm) = (
            default.factor_complex(s).unwrap(),
            rcm.factor_complex(s).unwrap(),
        );
        let multi = lu.solve_multi_real(&rhs, m).unwrap();
        for (col, b) in rhs.chunks(n).enumerate() {
            let x = lu.solve_real(b).unwrap();
            assert_eq!(&multi[col * n..(col + 1) * n], &x[..], "{name}: jω multi");
            let xr = lu_rcm.solve_real(b).unwrap();
            let num: f64 = x.iter().zip(&xr).map(|(a, b)| (*a - *b).abs_sq()).sum();
            let den: f64 = xr.iter().map(|z| z.abs_sq()).sum();
            let rel = (num / den).sqrt();
            assert!(rel <= 1e-10, "{name}: jω shift vs RCM: {rel}");
        }
    }
}

#[test]
fn symmetric_permutation_round_trips() {
    let net = rc_grid(8, 8, 1.0, 1e-3, 2.0);
    let d = mna::assemble(&net).unwrap();
    let g = d.g;
    let n = g.nrows();
    // A deterministic shuffle and its inverse.
    let mut perm: Vec<usize> = (0..n).collect();
    let mut r = rng(0xfeed);
    for i in (1..n).rev() {
        let j = (r() * (i + 1) as f64) as usize;
        perm.swap(i, j);
    }
    let mut inv = vec![0usize; n];
    for (i, &p) in perm.iter().enumerate() {
        inv[p] = i;
    }
    let back = g
        .permute_symmetric(&perm)
        .unwrap()
        .permute_symmetric(&inv)
        .unwrap();
    assert_eq!(g, back, "permutation round-trip altered the matrix");

    // Solving the permuted system gives the permuted solution.
    let mut rr = rng(0xbeef);
    let b: Vec<f64> = (0..n).map(|_| rr() - 0.5).collect();
    let x = factor(&g, FillOrdering::default())
        .unwrap()
        .solve(&b)
        .unwrap();
    let gp = g.permute_symmetric(&perm).unwrap();
    let bp: Vec<f64> = {
        let mut out = vec![0.0; n];
        for i in 0..n {
            out[perm[i]] = b[i];
        }
        out
    };
    let xp = factor(&gp, FillOrdering::default())
        .unwrap()
        .solve(&bp)
        .unwrap();
    let x_back: Vec<f64> = (0..n).map(|i| xp[perm[i]]).collect();
    assert!(bdsm_linalg::vector::rel_err(&x_back, &x, 1e-30) < 1e-10);
}

/// The supernodal kernel against the scalar oracle, on the matrices the
/// pipeline actually factors: real shifts across every test topology, one
/// shared workspace reused for all of them.
#[test]
fn supernodal_kernel_matches_scalar_on_mna_real_shifts() {
    let mut ws_scalar = LuWorkspace::<f64>::new();
    let mut ws_super = LuWorkspace::<f64>::new();
    for (name, net) in test_networks() {
        let d = mna::assemble(&net).unwrap();
        let (g, c) = (d.g, d.c);
        let n = g.nrows();
        let scalar = ShiftedPencil::new(&g, &c)
            .unwrap()
            .with_numeric_kernel(NumericKernel::Scalar);
        let blocked = ShiftedPencil::new(&g, &c).unwrap();
        assert_eq!(blocked.numeric_kernel(), NumericKernel::Supernodal);
        let mut r = rng(0x9e37 ^ n as u64);
        let b: Vec<f64> = (0..n).map(|_| r() - 0.5).collect();
        for &s in &[1.0, 1.0e2, 1.0e4] {
            let lu_s = scalar.factor_real_with(s, &mut ws_scalar).unwrap();
            let lu_b = blocked.factor_real_with(s, &mut ws_super).unwrap();
            assert_eq!(
                lu_s.factor_nnz(),
                lu_b.factor_nnz(),
                "{name}: kernels disagree on fill at s={s}"
            );
            let xs = lu_s.solve(&b).unwrap();
            let xb = lu_b.solve(&b).unwrap();
            let rel = bdsm_linalg::vector::rel_err(&xb, &xs, 1e-30);
            assert!(rel <= 1e-10, "{name}: kernels disagree at s={s}: {rel}");
        }
    }
}

/// Same cross-check at complex shifts `s = jω` — the frequency-sweep and
/// `jω`-Krylov shape — including agreement with the dense `ZLu` oracle.
#[test]
fn supernodal_kernel_matches_scalar_on_mna_complex_shifts() {
    let mut ws = LuWorkspace::<Complex64>::new();
    for (name, net) in test_networks() {
        let d = mna::assemble(&net).unwrap();
        let (g, c) = (d.g, d.c);
        let n = g.nrows();
        let scalar = ShiftedPencil::new(&g, &c)
            .unwrap()
            .with_numeric_kernel(NumericKernel::Scalar);
        let blocked = ShiftedPencil::new(&g, &c).unwrap();
        let mut r = rng(0x517e ^ n as u64);
        let b: Vec<f64> = (0..n).map(|_| r() - 0.5).collect();
        for &w in &[5.0e1, 4.0e3] {
            let s = Complex64::jomega(w);
            let xs = scalar.factor_complex(s).unwrap().solve_real(&b).unwrap();
            let xb = blocked
                .factor_complex_with(s, &mut ws)
                .unwrap()
                .solve_real(&b)
                .unwrap();
            let num: f64 = xs
                .iter()
                .zip(&xb)
                .map(|(p, q)| (*p - *q).abs_sq())
                .sum::<f64>()
                .sqrt();
            let den: f64 = xs.iter().map(|z| z.abs_sq()).sum::<f64>().sqrt();
            assert!(
                num / den <= 1e-10,
                "{name}: kernels disagree at ω={w}: {}",
                num / den
            );
            let zlu =
                bdsm_core::transfer::ZLu::factor_shifted(&g.to_dense(), &c.to_dense(), s).unwrap();
            let xd = zlu.solve_real(&b).unwrap();
            let numd: f64 = xb
                .iter()
                .zip(&xd)
                .map(|(p, q)| (*p - *q).abs_sq())
                .sum::<f64>()
                .sqrt();
            assert!(
                numd / den <= 1e-10,
                "{name}: supernodal vs ZLu at ω={w}: {}",
                numd / den
            );
        }
    }
}

/// Both kernels must report the same singular failure on a structurally
/// singular MNA matrix, and must leave their workspaces reusable.
#[test]
fn both_kernels_report_singular_and_recover() {
    let mut net = Network::new();
    let a = net.add_bus("a");
    let b = net.add_bus("floating");
    net.add_resistor(a, GROUND, 1.0).unwrap();
    net.add_capacitor(a, b, 1e-3).unwrap();
    net.add_port(a).unwrap();
    let d = mna::assemble(&net).unwrap();
    let (g, c) = (d.g, d.c);
    for kernel in [NumericKernel::Scalar, NumericKernel::Supernodal] {
        let pencil = ShiftedPencil::new(&g, &c)
            .unwrap()
            .with_numeric_kernel(kernel);
        let mut ws = LuWorkspace::<f64>::new();
        assert!(
            matches!(
                pencil.factor_real_with(0.0, &mut ws),
                Err(LinalgError::Singular { .. })
            ),
            "{kernel:?} missed the singular G"
        );
        // The workspace must be clean after the failure: the regular
        // shift factors through the same workspace.
        assert!(pencil.factor_real_with(10.0, &mut ws).is_ok());
    }
}

#[test]
fn singular_mna_matrix_fails_loudly() {
    // A bus connected only through a capacitor has no DC path: G is
    // structurally singular, and factoring at s = 0 must report it.
    let mut net = Network::new();
    let a = net.add_bus("a");
    let b = net.add_bus("floating");
    net.add_resistor(a, GROUND, 1.0).unwrap();
    net.add_capacitor(a, b, 1e-3).unwrap();
    net.add_port(a).unwrap();
    let d = mna::assemble(&net).unwrap();
    let g = d.g;
    assert!(matches!(
        factor(&g, FillOrdering::default()),
        Err(LinalgError::Singular { .. })
    ));
    // With the capacitor mass added (s > 0) the pencil becomes regular.
    let pencil = ShiftedPencil::new(&g, &d.c).unwrap();
    assert!(pencil.factor_real(0.0).is_err());
    assert!(pencil.factor_real(10.0).is_ok());
}
