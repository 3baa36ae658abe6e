//! A pencil's later factorizations replay the structure its first
//! drop-free factorization recorded. A replayed factor must be bitwise the
//! factor a fresh pencil computes on the full path at the same shift.
//!
//! Every case compares the two by the `to_bits` of solves of a fixed
//! mixed-sparsity panel (and, for complex factors, of a complex panel),
//! by `factor_nnz` and by `solve_panel_count`. The `replayed` attribute of
//! the `lu.factor` span says which path a factorization took, so each case
//! also pins that the replay ran, or that it fell back where it must.

use bdsm_linalg::{Complex64, LinalgError};
use bdsm_obs::{AttrValue, ObsLevel, Trace};
use bdsm_sparse::{CscMatrix, FillOrdering, NumericKernel, ShiftedPencil, SparseLu};

/// Right-hand sides per solve.
const M: usize = 3;

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

/// Column-major `n × M` panel: one dense column, one every-third-zero
/// column and one spike train, so solve panels see committed and replayed
/// systems side by side.
fn real_panel(n: usize) -> Vec<f64> {
    let mut rhs = vec![0.0; n * M];
    for i in 0..n {
        let v = (0.29 * i as f64).sin() + 0.4;
        rhs[i] = v;
        rhs[n + i] = if i % 3 == 0 { 0.0 } else { -v };
        rhs[2 * n + i] = if i % 17 == 5 { v } else { 0.0 };
    }
    rhs
}

fn complex_panel(n: usize) -> Vec<Complex64> {
    real_panel(n)
        .into_iter()
        .enumerate()
        .map(|(i, re)| {
            Complex64::new(
                re,
                if i % 4 == 1 {
                    0.0
                } else {
                    (0.11 * i as f64).cos()
                },
            )
        })
        .collect()
}

/// What a factor is compared by: solve bits, `factor_nnz`, panels.
type Fingerprint = (Vec<u64>, usize, usize);

trait Print {
    fn print(&self, n: usize) -> Fingerprint;
}

impl Print for SparseLu<f64> {
    fn print(&self, n: usize) -> Fingerprint {
        let x = self.solve_multi_real(&real_panel(n), M).unwrap();
        let bits = x.iter().map(|v| v.to_bits()).collect();
        (bits, self.factor_nnz(), self.solve_panel_count())
    }
}

impl Print for SparseLu<Complex64> {
    fn print(&self, n: usize) -> Fingerprint {
        let real = self.solve_multi_real(&real_panel(n), M).unwrap();
        let complex = self.solve_multi(&complex_panel(n), M).unwrap();
        let bits = real
            .iter()
            .chain(&complex)
            .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
            .collect();
        (bits, self.factor_nnz(), self.solve_panel_count())
    }
}

/// Runs one factorization in a span session and returns it with its
/// `lu.factor` span's `replayed` attribute (`None` when it failed before
/// the span recorded one).
fn traced<T>(f: impl FnOnce() -> Result<T, LinalgError>) -> (Result<T, LinalgError>, Option<bool>) {
    bdsm_obs::set_level(ObsLevel::Spans);
    let (res, trace) = Trace::collect(f);
    let spans: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.name == "lu.factor")
        .collect();
    assert_eq!(spans.len(), 1, "one lu.factor span per factorization");
    let replayed = spans[0].attrs.iter().find_map(|&(k, v)| match (k, v) {
        ("replayed", AttrValue::Bool(b)) => Some(b),
        _ => None,
    });
    (res, replayed)
}

/// A shift either path can take.
#[derive(Clone, Copy, Debug)]
enum Shift {
    Real(f64),
    Complex(Complex64),
}

/// Factors `pencil` at `s` and returns the fingerprint and the path.
fn factor_at(pencil: &ShiftedPencil, s: Shift) -> (Fingerprint, bool) {
    let n = pencil.dim();
    let (print, replayed) = match s {
        Shift::Real(s) => {
            let (lu, r) = traced(|| pencil.factor_real(s));
            (lu.unwrap().print(n), r)
        }
        Shift::Complex(s) => {
            let (lu, r) = traced(|| pencil.factor_complex(s));
            (lu.unwrap().print(n), r)
        }
    };
    (
        print,
        replayed.expect("a successful factorization reports its path"),
    )
}

/// Factors `pencil` at each shift in turn and checks every factor against
/// the first factor of a fresh pencil built by `fresh` at that shift.
/// `want` is the path each factorization must take (`true` = replayed).
fn assert_parity(
    what: &str,
    pencil: &ShiftedPencil,
    fresh: impl Fn() -> ShiftedPencil,
    shifts: &[Shift],
    want: &[bool],
) {
    for (i, (&s, &want_replayed)) in shifts.iter().zip(want).enumerate() {
        let (got, replayed) = factor_at(pencil, s);
        let (first, fresh_replayed) = factor_at(&fresh(), s);
        assert!(
            !fresh_replayed,
            "{what}: a fresh pencil has nothing to replay"
        );
        assert_eq!(
            replayed, want_replayed,
            "{what}: factorization {i} at {s:?} took the wrong path"
        );
        assert_eq!(got.1, first.1, "{what}: factor_nnz at {s:?}");
        assert_eq!(got.2, first.2, "{what}: solve panels at {s:?}");
        assert!(got.0 == first.0, "{what}: solve bits at {s:?}");
    }
}

/// Diagonal capacitance `C` for an `n`-state pencil.
fn diag_c(n: usize) -> CscMatrix<f64> {
    let t: Vec<_> = (0..n)
        .map(|i| (i, i, 1e-3 * (1.0 + 0.1 * (i % 7) as f64)))
        .collect();
    CscMatrix::from_triplets(n, n, &t).unwrap()
}

/// `side × side` five-point RC grid with shunt loads (as in `solve_bits.rs`).
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

/// Diagonally weighted random pattern (as in `solve_bits.rs`).
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

fn pencil(g: &CscMatrix<f64>, c: &CscMatrix<f64>) -> ShiftedPencil {
    ShiftedPencil::new(g, c).unwrap()
}

fn jw(omega: f64) -> Shift {
    Shift::Complex(Complex64::jomega(omega))
}

#[test]
fn grid_pencil_replays_real_and_complex_shifts_bitwise() {
    let (g, c) = grid(30);
    let p = pencil(&g, &c);
    let shifts = [
        Shift::Real(40.0),
        Shift::Real(0.0),
        jw(450.0),
        Shift::Real(3.5e3),
        jw(10.0),
        Shift::Complex(Complex64::new(-2.0, 7e3)),
        Shift::Real(40.0),
    ];
    let mut want = vec![true; shifts.len()];
    want[0] = false;
    assert_parity("grid", &p, || pencil(&g, &c), &shifts, &want);
    // A clone shares the record; a kernel switch starts a fresh one.
    assert_parity(
        "grid clone",
        &p.clone(),
        || pencil(&g, &c),
        &[jw(77.0)],
        &[true],
    );
    let scalar = || pencil(&g, &c).with_numeric_kernel(NumericKernel::Scalar);
    let s = p.clone().with_numeric_kernel(NumericKernel::Scalar);
    assert_parity(
        "grid scalar",
        &s,
        scalar,
        &[jw(5.0), Shift::Real(9.0)],
        &[false, true],
    );
}

#[test]
fn filled_pencil_replays_bitwise_under_both_kernels() {
    let (g, c) = (filled(160, 8, 0x5017), diag_c(160));
    for kernel in [NumericKernel::Supernodal, NumericKernel::Scalar] {
        let fresh = || pencil(&g, &c).with_numeric_kernel(kernel);
        let p = fresh();
        let shifts = [jw(250.0), Shift::Real(12.0), jw(3e4), Shift::Real(0.0)];
        assert_parity(
            &format!("filled {kernel:?}"),
            &p,
            fresh,
            &shifts,
            &[false, true, true, true],
        );
    }
}

#[test]
fn ladder_pencil_replays_bitwise() {
    // An RC ladder: tridiagonal `G`, every column too skinny for a
    // supernode, so the replay runs the scalar elimination throughout.
    let n = 400;
    let mut t = Vec::new();
    for i in 0..n {
        t.push((i, i, if i == 0 { 1.5 } else { 2.0 }));
        if i + 1 < n {
            t.push((i, i + 1, -1.0));
            t.push((i + 1, i, -1.0));
        }
    }
    let g = CscMatrix::from_triplets(n, n, &t).unwrap();
    let c = diag_c(n);
    let p = pencil(&g, &c);
    let shifts = [Shift::Real(0.0), jw(60.0), jw(3.5e3), Shift::Real(1e4)];
    assert_parity(
        "ladder",
        &p,
        || pencil(&g, &c),
        &shifts,
        &[false, true, true, true],
    );
    assert_eq!(factor_at(&p, Shift::Real(1.0)).0 .2, 0, "ladder panels");
}

#[test]
fn seeded_random_pencils_match_a_fresh_factor_on_either_path() {
    // Weak diagonals and a nonsymmetric `C`: pivots move between shifts,
    // so these pencils take both paths; each factor must match either way.
    for seed in [3u64, 0x77, 0xbead, 0x5eed5] {
        let n = 90;
        let mut rng = uniforms(seed);
        let (mut gt, mut ct) = (Vec::new(), Vec::new());
        for i in 0..n {
            gt.push((i, i, 0.3 + rng()));
            ct.push((i, i, 0.5 + rng()));
            for _ in 0..4 {
                let j = (rng() * n as f64) as usize % n;
                gt.push((i, j, rng() - 0.5));
                if rng() < 0.3 {
                    ct.push((j, i, rng() - 0.5));
                }
            }
        }
        let g = CscMatrix::from_triplets(n, n, &gt).unwrap();
        let c = CscMatrix::from_triplets(n, n, &ct).unwrap();
        let p = pencil(&g, &c);
        for k in 0..6 {
            let s = if k % 2 == 0 {
                Shift::Real(4.0 * rng() - 2.0)
            } else {
                Shift::Complex(Complex64::new(rng() - 0.5, 10.0 * rng()))
            };
            let (got, _) = factor_at(&p, s);
            let (first, _) = factor_at(&pencil(&g, &c), s);
            assert!(got == first, "seed {seed:#x}: factor {k} at {s:?} differs");
        }
    }
}

/// `G + sC` on a 3-state chain in the natural ordering.
fn chain(g: &[(usize, usize, f64)], c: &[(usize, usize, f64)]) -> ShiftedPencil {
    let g = CscMatrix::from_triplets(3, 3, g).unwrap();
    let c = CscMatrix::from_triplets(3, 3, c).unwrap();
    ShiftedPencil::with_ordering(&g, &c, FillOrdering::Natural).unwrap()
}

#[test]
fn a_moved_pivot_falls_back_and_keeps_the_record() {
    // Column 0 is [1 + s, 1]: at s = 1 the diagonal pivots, at s = −0.99
    // it is 0.01 against 1 — below the threshold — and row 1 pivots.
    let g = [
        (0, 0, 1.0),
        (0, 1, 1.0),
        (1, 0, 1.0),
        (1, 1, 2.0),
        (1, 2, 1.0),
        (2, 1, 1.0),
        (2, 2, 2.0),
    ];
    let c = [(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)];
    let p = chain(&g, &c);
    let shifts = [Shift::Real(1.0), Shift::Real(-0.99), Shift::Real(5.0)];
    assert_parity(
        "moved pivot",
        &p,
        || chain(&g, &c),
        &shifts,
        &[false, false, true],
    );
}

#[test]
fn an_exact_cancellation_falls_back_and_is_never_recorded() {
    // At s = −g/c = −2 the entries (1, 0) and (0, 1) of G + sC cancel
    // exactly, so the full path drops an `L` and a `U` entry.
    let g = [
        (0, 0, 4.0),
        (0, 1, 1.0),
        (1, 0, 1.0),
        (1, 1, 4.0),
        (1, 2, 1.0),
        (2, 1, 1.0),
        (2, 2, 4.0),
    ];
    let c = [
        (0, 0, 1.0),
        (0, 1, 0.5),
        (1, 0, 0.5),
        (1, 1, 1.0),
        (2, 2, 1.0),
    ];
    let p = chain(&g, &c);
    let (dropped, _) = factor_at(&chain(&g, &c), Shift::Real(-2.0));
    let (kept, _) = factor_at(&chain(&g, &c), Shift::Real(1.0));
    assert_eq!(
        dropped.1 + 2,
        kept.1,
        "the cancelling shift drops two entries"
    );
    let shifts = [Shift::Real(1.0), Shift::Real(-2.0), jw(3.0)];
    assert_parity(
        "cancellation",
        &p,
        || chain(&g, &c),
        &shifts,
        &[false, false, true],
    );
    // A first factorization with a drop records nothing: the next one
    // runs the full path too, and records.
    let p = chain(&g, &c);
    let shifts = [Shift::Real(-2.0), Shift::Real(1.0), jw(3.0)];
    assert_parity(
        "cancellation first",
        &p,
        || chain(&g, &c),
        &shifts,
        &[false, false, true],
    );
}

#[test]
fn a_singular_first_factor_records_nothing() {
    // G = [[1, 1], [1, 1]] is singular at s = 0; G + sI is regular at 1.
    let g = CscMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)])
        .unwrap();
    let c = CscMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)]).unwrap();
    let p = pencil(&g, &c);
    let (res, replayed) = traced(|| p.factor_real(0.0));
    assert!(matches!(res, Err(LinalgError::Singular { .. })));
    assert_eq!(replayed, None, "a failed factorization reports no path");
    let shifts = [Shift::Real(1.0), jw(2.0)];
    assert_parity(
        "singular first",
        &p,
        || pencil(&g, &c),
        &shifts,
        &[false, true],
    );
    // A shift that is singular against a record fails the same way.
    let (res, _) = traced(|| p.factor_real(0.0));
    assert!(matches!(res, Err(LinalgError::Singular { at: 1 })));
}

#[test]
fn one_pencil_factored_from_two_threads_matches_fresh_factors() {
    let (g, c) = grid(24);
    let p = pencil(&g, &c);
    let rounds: [[Shift; 2]; 3] = [
        [jw(120.0), Shift::Real(30.0)],
        [Shift::Real(0.5), jw(2e3)],
        [jw(9.0), jw(9.0)],
    ];
    for pair in rounds {
        let got: Vec<Fingerprint> = std::thread::scope(|scope| {
            let handles: Vec<_> = pair
                .iter()
                .map(|&s| {
                    let p = &p;
                    scope.spawn(move || factor_at(p, s).0)
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (s, got) in pair.iter().zip(got) {
            let (first, _) = factor_at(&pencil(&g, &c), *s);
            assert!(got == first, "two threads: factor at {s:?} differs");
        }
    }
    // Both first factorizations ran the full path at once; one of them
    // recorded, and the pencil replays from here on.
    assert!(
        factor_at(&p, jw(55.0)).1,
        "no record after the threaded round"
    );
}
