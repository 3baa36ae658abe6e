//! Ignored-by-default perf probe: scalar vs supernodal kernel wall time on
//! matrices with genuinely different fill profiles. Run explicitly with
//!
//! ```text
//! cargo test --release -p bdsm-sparse --test kernel_perf -- --ignored --nocapture
//! ```
//!
//! The assertion is deliberately loose (the supernodal kernel must not be
//! catastrophically slower anywhere); the printed numbers are the point.

use bdsm_sparse::{CscMatrix, LuWorkspace, NumericKernel, ShiftedPencil};
use std::time::Instant;

/// 2D 5-point mesh Laplacian with shunt terms — the rc_grid structure,
/// where the separators of the default ordering become supernodes.
fn mesh(rows: usize, cols: usize) -> (CscMatrix<f64>, CscMatrix<f64>) {
    let n = rows * cols;
    let idx = |r: usize, c: usize| r * cols + c;
    let mut tg = Vec::new();
    let mut tc = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            let i = idx(r, c);
            let mut deg = 0.05; // shunt load keeps G regular
            for (rr, cc) in [
                (r.wrapping_sub(1), c),
                (r + 1, c),
                (r, c.wrapping_sub(1)),
                (r, c + 1),
            ] {
                if rr < rows && cc < cols {
                    tg.push((i, idx(rr, cc), -1.0));
                    deg += 1.0;
                }
            }
            tg.push((i, i, deg));
            tc.push((i, i, 1e-3 * (1.0 + 0.1 * (i % 7) as f64)));
        }
    }
    (
        CscMatrix::from_triplets(n, n, &tg).unwrap(),
        CscMatrix::from_triplets(n, n, &tc).unwrap(),
    )
}

/// Quasi-1D ladder — the no-fill worst case for supernode detection.
fn ladder(n: usize) -> (CscMatrix<f64>, CscMatrix<f64>) {
    let mut tg = Vec::new();
    let mut tc = Vec::new();
    for i in 0..n {
        let mut deg = 0.2;
        if i > 0 {
            tg.push((i, i - 1, -1.0));
            deg += 1.0;
        }
        if i + 1 < n {
            tg.push((i, i + 1, -1.0));
            deg += 1.0;
        }
        tg.push((i, i, deg));
        tc.push((i, i, 1e-3));
    }
    (
        CscMatrix::from_triplets(n, n, &tg).unwrap(),
        CscMatrix::from_triplets(n, n, &tc).unwrap(),
    )
}

fn time_kernel(pencil: &ShiftedPencil, iters: usize) -> f64 {
    let mut ws = LuWorkspace::<f64>::new();
    let _ = pencil.factor_real_with(3.0, &mut ws).unwrap(); // warmup
    let t0 = Instant::now();
    for k in 0..iters {
        std::hint::black_box(pencil.factor_real_with(3.0 + k as f64, &mut ws).unwrap());
    }
    t0.elapsed().as_secs_f64() * 1e3 / iters as f64
}

#[test]
#[ignore = "perf probe, run with --ignored --nocapture in release"]
fn kernel_shootout() {
    for (name, g, c, iters) in [
        {
            let (g, c) = mesh(120, 120);
            ("mesh 120x120", g, c, 5usize)
        },
        {
            let (g, c) = mesh(60, 60);
            ("mesh 60x60", g, c, 20)
        },
        {
            let (g, c) = ladder(20_000);
            ("ladder 20k", g, c, 10)
        },
    ] {
        let blocked = ShiftedPencil::new(&g, &c).unwrap();
        let scalar = blocked.clone().with_numeric_kernel(NumericKernel::Scalar);
        let tb = time_kernel(&blocked, iters);
        let ts = time_kernel(&scalar, iters);
        println!(
            "{name}: supernodal {tb:.3} ms, scalar {ts:.3} ms, speedup {:.2}x",
            ts / tb
        );
        assert!(tb < ts * 3.0, "{name}: supernodal catastrophically slow");
    }
}
