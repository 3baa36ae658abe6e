//! Pinned bits of `SparseLu::solve_multi` / `solve_multi_real`.
//!
//! Each case hashes every output value's `to_bits` (FNV-1a, real part then
//! imaginary part) and compares it with a digest recorded from the
//! triangular solve as it stood before its panel updates were reduced to
//! one path each. A change to the solve that moves a single bit of a single
//! component — a reordered accumulation, a wrong scatter row, a zero
//! component treated as committed to a panel's blocked path — changes a
//! digest here, whereas the parity tests elsewhere only compare
//! `solve_multi` with `solve`, which share the code under test.
//!
//! The right-hand sides mix dense columns with columns that are mostly or
//! partly zero, so one panel sees committed and replayed systems side by
//! side. The factors are supernodal (real and complex) on a random filled
//! pattern and on a 30 × 30 grid pencil, plus one scalar-kernel factor,
//! which retains no panels.

use bdsm_linalg::Complex64;
use bdsm_sparse::{CscMatrix, FillOrdering, NumericKernel, ShiftedPencil, SparseLu};

/// Right-hand-side widths every case is solved at.
const WIDTHS: [usize; 4] = [1, 2, 3, 5];

/// FNV-1a over the bit patterns of a value stream.
fn digest(bits: impl Iterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bits {
        for byte in b.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn digest_real(x: &[f64]) -> u64 {
    digest(x.iter().map(|v| v.to_bits()))
}

fn digest_complex(x: &[Complex64]) -> u64 {
    digest(x.iter().flat_map(|z| [z.re.to_bits(), z.im.to_bits()]))
}

/// xorshift64 stream of uniforms in `[0, 1)`.
fn uniforms(seed: u64) -> impl FnMut() -> f64 {
    let mut s = seed | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Diagonally weighted random pattern with `per_row` off-diagonal entries
/// per row: enough fill for the supernodal kernel to retain panels.
fn filled(n: usize, per_row: usize, seed: u64) -> CscMatrix<f64> {
    let mut rng = uniforms(seed);
    let mut t = Vec::new();
    for i in 0..n {
        t.push((i, i, 4.0 + rng()));
        for _ in 0..per_row {
            let j = (rng() * n as f64) as usize % n;
            if j != i {
                t.push((i, j, rng() - 0.5));
            }
        }
    }
    CscMatrix::from_triplets(n, n, &t).unwrap()
}

/// Diagonal capacitance `C` for an `n`-state pencil.
fn diag_c(n: usize) -> CscMatrix<f64> {
    let t: Vec<_> = (0..n)
        .map(|i| (i, i, 1e-3 * (1.0 + 0.1 * (i % 7) as f64)))
        .collect();
    CscMatrix::from_triplets(n, n, &t).unwrap()
}

/// `side × side` five-point RC grid with shunt loads: `G` and `C`.
fn grid(side: usize) -> (CscMatrix<f64>, CscMatrix<f64>) {
    let n = side * side;
    let mut t = Vec::new();
    for i in 0..n {
        let (r, c) = (i / side, i % side);
        let neighbours = [
            (r > 0).then(|| i - side),
            (r + 1 < side).then(|| i + side),
            (c > 0).then(|| i - 1),
            (c + 1 < side).then(|| i + 1),
        ];
        let mut deg = 0.05;
        for j in neighbours.into_iter().flatten() {
            t.push((i, j, -1.0));
            deg += 1.0;
        }
        t.push((i, i, deg));
    }
    (CscMatrix::from_triplets(n, n, &t).unwrap(), diag_c(n))
}

/// Column-major `n × m` real panel. Column `k` takes shape `(k + m) % 4`:
/// dense, a sparse spike train, every third entry zero, or a zero first
/// half — so each width mixes the shapes differently.
fn real_panel(n: usize, m: usize) -> Vec<f64> {
    let mut rhs = vec![0.0; n * m];
    for k in 0..m {
        for i in 0..n {
            let v = (0.29 * (i + 7 * k) as f64).sin() + 0.4;
            rhs[k * n + i] = match (k + m) % 4 {
                0 => v,
                1 if i % 37 == 5 => v,
                2 if i % 3 != 0 => v,
                3 if i >= n / 2 => v,
                _ => 0.0,
            };
        }
    }
    rhs
}

/// Complex counterpart of [`real_panel`]: the real panel as real parts,
/// with imaginary parts on a different zero pattern.
fn complex_panel(n: usize, m: usize) -> Vec<Complex64> {
    real_panel(n, m)
        .into_iter()
        .enumerate()
        .map(|(i, re)| {
            let im = if i % 4 == 1 {
                0.0
            } else {
                (0.11 * i as f64).cos()
            };
            Complex64::new(re, im)
        })
        .collect()
}

/// Digests of `solve_multi_real` (and, for a complex factor, of
/// `solve_multi` on the complex panel) at every width of [`WIDTHS`].
trait Digests {
    fn digests(&self) -> Vec<u64>;
}

impl Digests for SparseLu<f64> {
    fn digests(&self) -> Vec<u64> {
        let n = self.dim();
        WIDTHS
            .iter()
            .map(|&m| digest_real(&self.solve_multi_real(&real_panel(n, m), m).unwrap()))
            .collect()
    }
}

impl Digests for SparseLu<Complex64> {
    fn digests(&self) -> Vec<u64> {
        let n = self.dim();
        WIDTHS
            .iter()
            .flat_map(|&m| {
                let real = self.solve_multi_real(&real_panel(n, m), m).unwrap();
                let complex = self.solve_multi(&complex_panel(n, m), m).unwrap();
                [digest_complex(&real), digest_complex(&complex)]
            })
            .collect()
    }
}

/// `g` factored as the pencil `(g, 0)` at `s = 0` with `kernel`.
fn factor_plain(g: &CscMatrix<f64>, kernel: NumericKernel) -> SparseLu<f64> {
    let zero = CscMatrix::from_triplets(g.nrows(), g.ncols(), &[]).unwrap();
    ShiftedPencil::with_ordering(g, &zero, FillOrdering::default())
        .unwrap()
        .with_numeric_kernel(kernel)
        .factor_real(0.0)
        .unwrap()
}

fn check(name: &str, lu_panels: usize, got: &[u64], want: &[u64]) {
    let printed: Vec<String> = got.iter().map(|d| format!("{d:#018x}")).collect();
    assert_eq!(
        got,
        want,
        "{name} ({lu_panels} panels): solve bits moved; got [{}]",
        printed.join(", ")
    );
}

#[test]
fn supernodal_real_factor_of_a_filled_pattern_keeps_its_bits() {
    let lu = factor_plain(&filled(160, 8, 0x5017), NumericKernel::Supernodal);
    assert!(lu.solve_panel_count() > 0, "no panels retained");
    let want = [
        0x6dff0e21f2c271c3,
        0x3a6ef16fc8a52cfe,
        0xa0a7cffbeafa82b9,
        0x985b757dce780896,
    ];
    check("filled real", lu.solve_panel_count(), &lu.digests(), &want);
}

#[test]
fn supernodal_complex_factor_of_a_filled_pencil_keeps_its_bits() {
    let g = filled(140, 7, 0xb175);
    let lu = ShiftedPencil::new(&g, &diag_c(140))
        .unwrap()
        .factor_complex(Complex64::jomega(250.0))
        .unwrap();
    assert!(lu.solve_panel_count() > 0, "no panels retained");
    let want = [
        0x3fba283700fa92fc,
        0x03849c6515346dd6,
        0x738a7fc33587daed,
        0x34ca602081b96174,
        0x2867ccfede3cd42c,
        0xf6d828a9f88e820a,
        0x66ff48ce9ad6fc35,
        0x8858c8635f93ee17,
    ];
    check(
        "filled complex",
        lu.solve_panel_count(),
        &lu.digests(),
        &want,
    );
}

#[test]
fn supernodal_real_factor_of_a_grid_pencil_keeps_its_bits() {
    let (g, c) = grid(30);
    let lu = ShiftedPencil::new(&g, &c)
        .unwrap()
        .factor_real(40.0)
        .unwrap();
    assert!(lu.solve_panel_count() > 0, "no panels retained");
    let want = [
        0x468769a420b494c0,
        0x6659d7b5b4f854ca,
        0xa278fbbaf39eb5f1,
        0x41fa4139b3d09188,
    ];
    check("grid real", lu.solve_panel_count(), &lu.digests(), &want);
}

#[test]
fn supernodal_complex_factor_of_a_grid_pencil_keeps_its_bits() {
    let (g, c) = grid(30);
    let lu = ShiftedPencil::new(&g, &c)
        .unwrap()
        .factor_complex(Complex64::jomega(450.0))
        .unwrap();
    assert!(lu.solve_panel_count() > 0, "no panels retained");
    let want = [
        0x1c205f15d68a89fa,
        0x3b2d70d1a21b970b,
        0x5308343960ea65e7,
        0xea0111eaf1614073,
        0x006fa78bf075bf88,
        0x271071ced076d096,
        0x4c0a9aa95538f333,
        0xffd6e34bac90b48c,
    ];
    check("grid complex", lu.solve_panel_count(), &lu.digests(), &want);
}

#[test]
fn scalar_kernel_factor_keeps_its_bits() {
    let lu = factor_plain(&filled(160, 8, 0x5017), NumericKernel::Scalar);
    assert_eq!(lu.solve_panel_count(), 0);
    let want = [
        0x9ea1de04a02a96ae,
        0xc68bd6ebfd351fd9,
        0xc77fecd83d271460,
        0x9c67792d69dd88f1,
    ];
    check("scalar", 0, &lu.digests(), &want);
}
