//! The trust layer of the `Certify` stage: typed certificates a served
//! ROM can carry around.
//!
//! The residual check the adaptive loop always ran (now
//! [`ResidualSweep`]) says *how far* a ROM is from the full model on a
//! grid. This module upgrades the stage into properties a downstream
//! co-simulation actually relies on:
//!
//! - **Stability** ([`Certificate::stability`]): `sym(G_r) ⪰ 0` and
//!   `C_r ⪰ 0`. Then `V = xᵀC_r x` does not grow along
//!   `C_r ẋ = −G_r x` (Lyapunov), and an RC descriptor with both cannot
//!   generate energy. The pencil's spectral abscissa would decide nothing
//!   more: when `C_r = LLᵀ` is positive definite, the pencil
//!   `(−G_r, C_r)` of a symmetric `G_r` has the eigenvalues
//!   `−eig(L⁻¹ G_r L⁻ᵀ)`, and by Sylvester's law of inertia that
//!   congruence has the inertia of `G_r`, so the sign of the abscissa is
//!   the sign of `−λ_min(G_r)`. For a non-symmetric `G_r` (RLC) the same
//!   construction on `sym(G_r)` only bounds the abscissa.
//! - **Passivity** ([`PassivityCertificate`]): the stability test plus
//!   positive-real sampling of the reduced transfer function — the
//!   Hermitian part of `H(jω)` must be positive semidefinite at every
//!   grid frequency, with violating frequencies localized.
//! - **A posteriori error bands** ([`ErrorBand`]): the residual sweep
//!   folded into per-log-frequency-band worst-case bounds.
//!
//! Congruence reduction preserves semidefiniteness exactly in exact
//! arithmetic — these checks certify that *floating-point* reduction did
//! not break it, which is precisely the guarantee a stranger consuming the
//! artifact needs. Semidefiniteness is a statement about inertia, which
//! no congruence changes, so one test decides `sym(G_r)`, `C_r` and every
//! sample: on the Jacobi-equilibrated matrix `D^-1/2 sym(A) D^-1/2` with
//! `D = |diag sym(A)|`, a Cholesky factorisation of it plus [`TOL`]`·I`
//! decides the verdict, and no eigenvalue is computed. A complex sample
//! takes the test through its real `2p×2p` embedding. The verdict is the
//! same in any physical units: any positive scaling of the states, or of
//! the ports' inputs and outputs.
//!
//! Everything here is deterministic: a fixed elimination order, no
//! data-dependent thread interaction — certificates are bitwise-identical
//! for any `BDSM_THREADS`.

use crate::reduce::Result;
use crate::transfer::{eval_jomega_sweep, CMatrix};
use bdsm_linalg::{LinalgError, Matrix};
use bdsm_obs::json::{self, Json, Object};

/// Relative roundoff allowance of the semidefiniteness test. `sym(G_r)`,
/// `C_r` and the real embedding of each sample count as semidefinite when
/// `D^-1/2 sym(A) D^-1/2 + TOL·I`, with `D = |diag sym(A)|`, has a
/// Cholesky factor. The test is free of scale: multiplying the matrix, or
/// any state or port, by a positive number moves no verdict.
pub const TOL: f64 = 1e-8;

/// Per-frequency relative transfer residuals of a ROM against the full
/// model — the quantitative half of the Certify stage (previously named
/// `Certificate`, before certificates grew typed property checks).
#[derive(Debug, Clone)]
pub struct ResidualSweep {
    /// The evaluation grid (angular frequencies).
    pub omegas: Vec<f64>,
    /// `‖H(jω) − Ĥ(jω)‖_F / ‖H(jω)‖_F` per grid point.
    pub residuals: Vec<f64>,
    /// Largest residual on the grid.
    pub worst: f64,
    /// Frequency carrying the largest residual.
    pub worst_omega: f64,
}

/// Verdict of one property check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckOutcome {
    /// The property holds within the configured margin.
    Pass,
    /// The property is violated beyond the margin.
    Fail,
    /// The check did not run (no sample grid, non-square transfer, …).
    Skipped,
}

/// Overall certificate verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertStatus {
    /// Every executed check passed.
    Certified,
    /// At least one check failed.
    Violated,
    /// No check ran — e.g. an empty pencil, or a model built without a
    /// Certify run.
    Unknown,
}

/// Passivity evidence: positive-real sampling of the reduced transfer
/// function, on top of the semidefiniteness of the reduced pencil that
/// [`Certificate::stability`] records.
#[derive(Debug, Clone, PartialEq)]
pub struct PassivityCertificate {
    /// The relative tolerance the checks were judged against ([`TOL`] for
    /// every certificate this build writes; `0` when unknown).
    pub tol: f64,
    /// Frequencies where `Re H(jω)` was sampled (empty when the transfer
    /// matrix is not square or no grid was available).
    pub sample_omegas: Vec<f64>,
    /// Indices into the samples where positive-realness is violated —
    /// the localization a debugging consumer needs.
    pub violations: Vec<usize>,
    /// The verdict.
    pub outcome: CheckOutcome,
}

/// Worst a posteriori residual over one log-frequency band.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorBand {
    /// Band lower edge (angular frequency, inclusive).
    pub omega_lo: f64,
    /// Band upper edge (inclusive).
    pub omega_hi: f64,
    /// Largest relative transfer residual observed in the band.
    pub worst_residual: f64,
    /// Number of grid samples the bound is supported by.
    pub samples: usize,
}

/// The typed output of the Certify stage, persisted in artifact
/// provenance and enforced by the query envelope of
/// `RomServer`.
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// Passivity evidence.
    pub passivity: PassivityCertificate,
    /// Stability of the pencil `(−G_r, C_r)`: [`CheckOutcome::Pass`]
    /// exactly when `sym(G_r)` and `C_r` both pass the scaled
    /// semidefiniteness test (see the module docs for why that decides
    /// it).
    pub stability: CheckOutcome,
    /// Per-band a posteriori error bounds (empty when no full-model
    /// residual sweep was available, e.g. the fixed shift path).
    pub error_bands: Vec<ErrorBand>,
    /// Overall verdict.
    pub status: CertStatus,
}

impl Default for Certificate {
    fn default() -> Self {
        Certificate::unknown()
    }
}

impl Certificate {
    /// The no-information certificate: every check [`CheckOutcome::Skipped`],
    /// status [`CertStatus::Unknown`] — what an empty pencil or a report
    /// without a Certify run carries.
    pub fn unknown() -> Self {
        Certificate {
            passivity: PassivityCertificate {
                tol: 0.0,
                sample_omegas: Vec::new(),
                violations: Vec::new(),
                outcome: CheckOutcome::Skipped,
            },
            stability: CheckOutcome::Skipped,
            error_bands: Vec::new(),
            status: CertStatus::Unknown,
        }
    }

    /// The certified frequency envelope `[ω_lo, ω_hi]`: the span of
    /// frequencies any evidence (positive-real samples or error bands)
    /// covers. `None` when the certificate is [`CertStatus::Unknown`] or
    /// carries no frequency-resolved evidence — an envelope-enforcing
    /// server then has nothing to enforce.
    pub fn frequency_envelope(&self) -> Option<(f64, f64)> {
        if self.status == CertStatus::Unknown {
            return None;
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &w in &self.passivity.sample_omegas {
            lo = lo.min(w);
            hi = hi.max(w);
        }
        for b in &self.error_bands {
            lo = lo.min(b.omega_lo);
            hi = hi.max(b.omega_hi);
        }
        (lo <= hi).then_some((lo, hi))
    }

    /// The smallest transient step inside the certified envelope: a
    /// backward-Euler step `h` resolves content up to `ω ≈ 1/h`, so
    /// `h < 1/ω_hi` queries the model above its certified band.
    pub fn min_transient_step(&self) -> Option<f64> {
        self.frequency_envelope()
            .map(|(_, hi)| 1.0 / hi)
            .filter(|h| h.is_finite() && *h > 0.0)
    }

    /// JSON object (no trailing newline) — the debug/CI dump shape.
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }
}

impl Json for Certificate {
    fn write_json(&self, out: &mut String) {
        let p = &self.passivity;
        let bands: Vec<Object> = self
            .error_bands
            .iter()
            .map(|b| {
                Object::new()
                    .field("omega_lo", b.omega_lo)
                    .field("omega_hi", b.omega_hi)
                    .field("worst_residual", b.worst_residual)
                    .field("samples", b.samples)
            })
            .collect();
        let envelope = self
            .frequency_envelope()
            .map(|(lo, hi)| Object::new().field("omega_lo", lo).field("omega_hi", hi));
        Object::new()
            .field("status", self.status)
            .field(
                "passivity",
                Object::new()
                    .field("outcome", p.outcome)
                    .field("tol", p.tol)
                    .field("samples", p.sample_omegas.len())
                    .field("violations", p.violations.len()),
            )
            .field("stability", self.stability)
            .field("error_bands", bands)
            .field("envelope", envelope)
            .write_json(out);
    }
}

/// Prints as `"certified"`, `"violated"` or `"unknown"`.
impl Json for CertStatus {
    fn write_json(&self, out: &mut String) {
        let name = match self {
            CertStatus::Certified => "certified",
            CertStatus::Violated => "violated",
            CertStatus::Unknown => "unknown",
        };
        name.write_json(out);
    }
}

/// Prints as `"pass"`, `"fail"` or `"skipped"`.
impl Json for CheckOutcome {
    fn write_json(&self, out: &mut String) {
        let name = match self {
            CheckOutcome::Pass => "pass",
            CheckOutcome::Fail => "fail",
            CheckOutcome::Skipped => "skipped",
        };
        name.write_json(out);
    }
}

/// Certifies a reduced descriptor `(G_r, C_r, B_r, L_r)`.
///
/// `omegas` is the sampling grid for the positive-real check;
/// `rom_samples`, when provided, are `H(jω)` at exactly those
/// frequencies (the adaptive loop already has them — recomputing would
/// double the certification cost). `residuals`, when provided, feeds the
/// a posteriori error bands.
///
/// # Errors
///
/// `InvalidArgument` when `rom_samples` does not hold one sample per
/// entry of `omegas`, or `residuals` does not hold one residual per
/// frequency (both checked before any test runs); `InvalidArgument` for
/// a NaN or ±∞ entry of `G_r`, `C_r` or a sample, and singular transfer
/// evaluations (a grid point sitting on a pole of the ROM).
#[allow(clippy::too_many_arguments)] // the descriptor alone is four matrices
pub fn certify_reduced(
    g: &Matrix,
    c: &Matrix,
    b: &Matrix,
    l: &Matrix,
    omegas: &[f64],
    rom_samples: Option<&[CMatrix]>,
    residuals: Option<&ResidualSweep>,
) -> Result<Certificate> {
    if rom_samples.is_some_and(|h| h.len() != omegas.len()) {
        return Err(LinalgError::InvalidArgument {
            what: "certify: rom_samples must hold one sample per sampled frequency",
        }
        .into());
    }
    if residuals.is_some_and(|r| r.residuals.len() != r.omegas.len()) {
        return Err(LinalgError::InvalidArgument {
            what: "certify: a residual sweep must hold one residual per frequency",
        }
        .into());
    }
    let q = g.nrows();
    if q == 0 {
        return Ok(Certificate::unknown());
    }
    // Two independent `O(q³)` jobs, the semidefiniteness test of each
    // matrix's symmetric part. Each is a pure function of its matrix, so
    // the fan-out cannot move a bit.
    let mut tests = crate::par::parallel_map(&[g, c], |_, m| semidefinite(m)).into_iter();
    let g_psd = tests.next().expect("one result per job")?;
    let c_psd = tests.next().expect("one result per job")?;
    let stability = if g_psd && c_psd {
        CheckOutcome::Pass
    } else {
        CheckOutcome::Fail
    };

    // Positive-real sampling: only defined for a square transfer matrix
    // (inputs and outputs must pair up for `uᴴ H u` to be a power).
    let square = b.ncols() == l.nrows() && b.ncols() > 0;
    let (sample_omegas, violations) = if square && !omegas.is_empty() {
        let computed;
        let samples = match rom_samples {
            Some(s) => s,
            None => {
                computed = eval_jomega_sweep(g, c, b, l, omegas)?;
                &computed[..]
            }
        };
        let mut bad = Vec::new();
        for (k, h) in samples.iter().enumerate() {
            if !semidefinite(&real_embedding(h))? {
                bad.push(k);
            }
        }
        (omegas.to_vec(), bad)
    } else {
        (Vec::new(), Vec::new())
    };
    let passivity_outcome = if stability == CheckOutcome::Fail || !violations.is_empty() {
        CheckOutcome::Fail
    } else {
        CheckOutcome::Pass
    };

    let error_bands = residuals
        .map(|r| error_bands(&r.omegas, &r.residuals, 6))
        .unwrap_or_default();

    let status = if passivity_outcome == CheckOutcome::Fail || stability == CheckOutcome::Fail {
        CertStatus::Violated
    } else {
        CertStatus::Certified
    };
    Ok(Certificate {
        passivity: PassivityCertificate {
            tol: TOL,
            sample_omegas,
            violations,
            outcome: passivity_outcome,
        },
        stability,
        error_bands,
        status,
    })
}

/// `true` when `sym(A) ⪰ 0` within [`TOL`], decided by inertia: with
/// `d = |diag sym(A)|` (a zero entry taken as 1) and `r = 1/√d`, the
/// Cholesky factorisation of `S = (r_i · sym(A)_ij · r_j) + TOL·I` must
/// find every pivot positive. `S` is congruent to `sym(A) + TOL·diag(d)`,
/// and its diagonal is `±1` or `0` plus `TOL`, so the verdict does not
/// depend on the scale of `A` or of any of its states. Scaling each entry by
/// `r_i` and `r_j` in turn never forms `d_i·d_j`, which would overflow at
/// `‖A‖ ≈ 1e170`.
///
/// # Errors
///
/// [`LinalgError::NotSquare`] for a non-square `A`, and
/// [`LinalgError::InvalidArgument`] for a NaN or ±∞ entry.
fn semidefinite(a: &Matrix) -> Result<bool> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { shape: a.shape() }.into());
    }
    if !a.as_slice().iter().all(|v| v.is_finite()) {
        return Err(LinalgError::InvalidArgument {
            what: "certify: matrix has a non-finite entry",
        }
        .into());
    }
    let n = a.nrows();
    let r: Vec<f64> = (0..n)
        .map(|i| {
            let d = a[(i, i)].abs();
            if d == 0.0 {
                1.0
            } else {
                1.0 / d.sqrt()
            }
        })
        .collect();
    // The factor `L`, row-major, filled row by row.
    let mut l = vec![0.0_f64; n * n];
    for i in 0..n {
        for j in 0..=i {
            let sym = 0.5 * (a[(i, j)] + a[(j, i)]) * r[i] * r[j];
            let s = if i == j { sym + TOL } else { sym };
            let (li, lj) = (&l[i * n..i * n + j], &l[j * n..j * n + j]);
            let v = s - li.iter().zip(lj).map(|(x, y)| x * y).sum::<f64>();
            if i == j {
                // A NaN pivot comes from an overflowed row: not PSD.
                if v.is_nan() || v <= 0.0 {
                    return Ok(false);
                }
                l[i * n + i] = v.sqrt();
            } else {
                l[i * n + j] = v / l[j * n + j];
            }
        }
    }
    Ok(true)
}

/// The real `2p×2p` form `[[Re H, −Im H], [Im H, Re H]]` of a `p×p`
/// complex `H`. Its symmetric part is the same form of the Hermitian part
/// `M = (H + Hᴴ)/2`, with the spectrum of `M` and every eigenvalue
/// doubled, so [`semidefinite`] of it decides `M ⪰ 0`.
fn real_embedding(h: &CMatrix) -> Matrix {
    let p = h.nrows();
    let mut e = Matrix::zeros(2 * p, 2 * p);
    for i in 0..p {
        for j in 0..p {
            let z = h[(i, j)];
            e[(i, j)] = z.re;
            e[(i + p, j + p)] = z.re;
            e[(i, j + p)] = -z.im;
            e[(i + p, j)] = z.im;
        }
    }
    e
}

/// Folds a residual sweep into at most `max_bands` log-frequency bands,
/// each carrying its worst observed residual. Bands with no samples are
/// dropped; a degenerate grid (single frequency) yields one band.
pub fn error_bands(omegas: &[f64], residuals: &[f64], max_bands: usize) -> Vec<ErrorBand> {
    let n = omegas.len().min(residuals.len());
    if n == 0 || max_bands == 0 {
        return Vec::new();
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &w in &omegas[..n] {
        lo = lo.min(w);
        hi = hi.max(w);
    }
    if !(lo > 0.0 && hi.is_finite()) {
        return Vec::new();
    }
    let nb = max_bands.min(n);
    if hi <= lo || nb == 1 {
        let worst = residuals[..n].iter().fold(0.0_f64, |m, &r| m.max(r));
        return vec![ErrorBand {
            omega_lo: lo,
            omega_hi: hi,
            worst_residual: worst,
            samples: n,
        }];
    }
    let (llo, lhi) = (lo.ln(), hi.ln());
    // Outer edges pinned exactly so the bands cover [lo, hi] verbatim
    // (exp(ln x) can drift an ulp).
    let edge = |k: usize| {
        if k == 0 {
            lo
        } else if k == nb {
            hi
        } else {
            (llo + (lhi - llo) * k as f64 / nb as f64).exp()
        }
    };
    let mut bands: Vec<ErrorBand> = (0..nb)
        .map(|k| ErrorBand {
            omega_lo: edge(k),
            omega_hi: edge(k + 1),
            worst_residual: 0.0,
            samples: 0,
        })
        .collect();
    for (&w, &r) in omegas[..n].iter().zip(&residuals[..n]) {
        let t = (w.ln() - llo) / (lhi - llo);
        let k = ((t * nb as f64) as usize).min(nb - 1);
        bands[k].worst_residual = bands[k].worst_residual.max(r);
        bands[k].samples += 1;
    }
    bands.retain(|b| b.samples > 0);
    bands
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdsm_linalg::Complex64;

    fn spd(n: usize, shift: f64) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                shift
            } else if i.abs_diff(j) == 1 {
                -1.0
            } else {
                0.0
            }
        })
    }

    fn certify_plain(g: &Matrix, c: &Matrix, b: &Matrix, l: &Matrix) -> Certificate {
        certify_reduced(g, c, b, l, &[1.0, 10.0, 100.0], None, None).unwrap()
    }

    #[test]
    fn passive_stable_rc_pencil_certifies() {
        let n = 6;
        let g = spd(n, 3.0);
        let c = spd(n, 2.5);
        let b = Matrix::from_fn(n, 2, |i, j| if i == j { 1.0 } else { 0.0 });
        let l = b.transpose();
        let cert = certify_plain(&g, &c, &b, &l);
        assert_eq!(cert.status, CertStatus::Certified);
        assert_eq!(cert.passivity.outcome, CheckOutcome::Pass);
        assert_eq!(cert.stability, CheckOutcome::Pass);
        assert!(cert.passivity.violations.is_empty());
        assert_eq!(cert.passivity.sample_omegas.len(), 3);
        assert_eq!(cert.frequency_envelope(), Some((1.0, 100.0)));
        assert!(cert.to_json().contains("\"status\": \"certified\""));
    }

    #[test]
    fn indefinite_g_is_violated_and_localized() {
        let n = 4;
        let mut g = spd(n, 3.0);
        g[(0, 0)] = -5.0; // actively generating: non-passive, unstable
        let c = spd(n, 2.5);
        let b = Matrix::from_fn(n, 1, |i, _| if i == 0 { 1.0 } else { 0.0 });
        let l = b.transpose();
        let cert = certify_plain(&g, &c, &b, &l);
        assert_eq!(cert.status, CertStatus::Violated);
        assert_eq!(cert.passivity.outcome, CheckOutcome::Fail);
        assert_eq!(cert.stability, CheckOutcome::Fail);
        // The driving-point H(jω) of an active one-port goes non-positive-
        // real somewhere on the grid — the violation list localizes it.
        assert!(!cert.passivity.violations.is_empty());
    }

    #[test]
    fn an_active_port_map_is_violated_at_any_scale() {
        // `G`, `C` SPD in units where they read 1e10, and `L = −Bᵀ`: the
        // pencil is stable, but `Re H(jω)` is negative definite at every
        // sample, with `|H| ≈ 1e-10`. An absolute floor of `TOL` on the
        // sample tolerance would let that pass.
        let n = 4;
        let g = spd(n, 3.0).scaled(1e10);
        let c = spd(n, 2.5).scaled(1e10);
        let b = Matrix::from_fn(n, 2, |i, j| if i == j { 1.0 } else { 0.0 });
        let l = b.transpose().scaled(-1.0);
        let cert = certify_plain(&g, &c, &b, &l);
        assert_eq!(cert.stability, CheckOutcome::Pass);
        assert_eq!(cert.passivity.outcome, CheckOutcome::Fail);
        assert_eq!(cert.passivity.violations, vec![0, 1, 2]);
        assert_eq!(cert.status, CertStatus::Violated);
    }

    #[test]
    fn singular_c_still_certifies_from_the_margins() {
        let n = 4;
        let g = spd(n, 3.0);
        let mut c = spd(n, 2.5);
        // Zero out a row/col: C ⪰ 0 but singular — no Cholesky factor.
        for k in 0..n {
            c[(0, k)] = 0.0;
            c[(k, 0)] = 0.0;
        }
        let b = Matrix::from_fn(n, 1, |i, _| if i == 0 { 1.0 } else { 0.0 });
        let l = b.transpose();
        let cert = certify_plain(&g, &c, &b, &l);
        assert_eq!(cert.stability, CheckOutcome::Pass);
        assert_eq!(cert.status, CertStatus::Certified);
    }

    #[test]
    fn non_square_transfer_skips_sampling() {
        let n = 4;
        let g = spd(n, 3.0);
        let c = spd(n, 2.5);
        let b = Matrix::from_fn(n, 1, |i, _| if i == 0 { 1.0 } else { 0.0 });
        let l = Matrix::from_fn(2, n, |i, j| if i == j { 1.0 } else { 0.0 });
        let cert = certify_plain(&g, &c, &b, &l);
        assert!(cert.passivity.sample_omegas.is_empty());
        assert_eq!(cert.passivity.outcome, CheckOutcome::Pass);
        // No samples and no bands: nothing frequency-resolved to envelope.
        assert_eq!(cert.frequency_envelope(), None);
    }

    #[test]
    fn unknown_certificate_has_no_envelope() {
        let cert = Certificate::unknown();
        assert_eq!(cert.status, CertStatus::Unknown);
        assert_eq!(cert.frequency_envelope(), None);
        assert_eq!(cert.min_transient_step(), None);
        assert!(cert.to_json().contains("\"status\": \"unknown\""));
    }

    #[test]
    fn error_bands_cover_and_bound_the_sweep() {
        let omegas: Vec<f64> = (0..24).map(|i| 10.0_f64 * 2.0_f64.powi(i)).collect();
        let residuals: Vec<f64> = (0..24).map(|i| 1e-9 * (i as f64 + 1.0)).collect();
        let bands = error_bands(&omegas, &residuals, 6);
        assert_eq!(bands.len(), 6);
        assert_eq!(bands.iter().map(|b| b.samples).sum::<usize>(), 24);
        assert_eq!(bands[0].omega_lo, 10.0);
        let worst = residuals.iter().fold(0.0_f64, |m, &r| m.max(r));
        assert_eq!(
            bands.iter().fold(0.0_f64, |m, b| m.max(b.worst_residual)),
            worst
        );
        for w in bands.windows(2) {
            assert!(w[0].omega_hi <= w[1].omega_lo * (1.0 + 1e-12));
        }
        // Degenerate grids still produce a (single) band.
        assert_eq!(error_bands(&[50.0], &[1e-7], 6).len(), 1);
        assert!(error_bands(&[], &[], 6).is_empty());
    }

    #[test]
    fn hermitian_embedding_matches_known_spectrum() {
        // [[d, i·o], [−i·o, d]] has eigenvalues d − o and d + o: 1 and 3
        // at (2, 1), −1 and 3 at (1, 2).
        let sample = |d: f64, o: f64| {
            let mut h = CMatrix::zeros(2, 2);
            h[(0, 0)] = Complex64::from_real(d);
            h[(1, 1)] = Complex64::from_real(d);
            h[(0, 1)] = Complex64::new(0.0, o);
            h[(1, 0)] = Complex64::new(0.0, -o);
            semidefinite(&real_embedding(&h)).unwrap()
        };
        assert!(sample(2.0, 1.0));
        assert!(!sample(1.0, 2.0));
    }

    /// `Q diag(d) Qᵀ`, with `Q` the left singular vectors of a random
    /// square matrix.
    fn with_spectrum(rand: &mut impl FnMut() -> f64, d: &[f64]) -> Matrix {
        let n = d.len();
        let q = bdsm_linalg::Svd::compute(&Matrix::from_fn(n, n, |_, _| rand()))
            .unwrap()
            .u;
        Matrix::from_fn(n, n, |i, j| {
            (0..n).map(|k| q[(i, k)] * d[k] * q[(j, k)]).sum()
        })
    }

    #[test]
    fn margin_verdict_matches_the_congruent_pencil_oracle() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut rand = move || {
            state = state.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        };
        let n = 24;
        let b = Matrix::zeros(n, 1);
        for trial in 0..10 {
            // C: SPD, eigenvalues log-spread over 1e-4 … 1.
            let spread = |k: usize| 10f64.powf(-4.0 * k as f64 / (n - 1) as f64);
            let c = with_spectrum(&mut rand, &(0..n).map(spread).collect::<Vec<_>>());
            // sym(G): smallest eigenvalue ±1e-2, the rest in [1e-2, 1].
            let lambda_min = if trial % 2 == 0 { 1e-2 } else { -1e-2 };
            let mut eigs = vec![lambda_min];
            eigs.extend((1..n).map(|_| 10f64.powf(-(rand() + 1.0))));
            let mut g = with_spectrum(&mut rand, &eigs);
            if trial >= 8 {
                // RLC-shaped: the second half of the states couples to the
                // first through a skew block `[[0, E], [−Eᵀ, 0]]`.
                for i in 0..n / 2 {
                    for j in n / 2..n {
                        let e = rand();
                        g[(i, j)] += e;
                        g[(j, i)] -= e;
                    }
                }
            }
            let cert = certify_reduced(&g, &c, &b, &b.transpose(), &[], None, None).unwrap();
            // The skew block cancels in `sym(G)`, so `sym(G)` has the
            // spectrum `eigs`. `C ≻ 0` makes `λ_min(L⁻¹ sym(G) L⁻ᵀ)`, over
            // `C = LLᵀ`, the pencil's oracle, and by Sylvester's law its
            // sign is the sign of `lambda_min`.
            let stable = cert.stability == CheckOutcome::Pass;
            assert_eq!(stable, lambda_min > 0.0, "trial {trial}");
            assert_eq!(cert.status == CertStatus::Certified, stable);
        }
    }

    #[test]
    fn min_transient_step_tracks_envelope() {
        let n = 3;
        let cert = certify_reduced(
            &spd(n, 3.0),
            &spd(n, 2.5),
            &Matrix::from_fn(n, 1, |i, _| if i == 0 { 1.0 } else { 0.0 }),
            &Matrix::from_fn(1, n, |_, j| if j == 0 { 1.0 } else { 0.0 }),
            &[1.0e2, 1.0e3, 4.0e3],
            None,
            None,
        )
        .unwrap();
        assert_eq!(cert.min_transient_step(), Some(1.0 / 4.0e3));
    }
}
