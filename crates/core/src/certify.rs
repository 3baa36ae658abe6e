//! The trust layer of the `Certify` stage: typed certificates a served
//! ROM can carry around.
//!
//! The residual check the adaptive loop always ran (now
//! [`ResidualSweep`]) says *how far* a ROM is from the full model on a
//! grid. This module upgrades the stage into properties a downstream
//! co-simulation actually relies on:
//!
//! - **Passivity** ([`PassivityCertificate`]): semidefiniteness margins of
//!   `sym(G_r)` and `C_r` (an RC descriptor with `sym(G) ⪰ 0`, `C ⪰ 0`
//!   cannot generate energy), plus positive-real sampling of the reduced
//!   transfer function — the smallest eigenvalue of the Hermitian part of
//!   `H(jω)` per grid frequency, with violating frequencies localized.
//! - **Stability** ([`StabilityCertificate`]): the Lyapunov sufficient
//!   condition (`V = xᵀC_r x` decays when `sym(G_r) ⪰ 0`, `C_r ⪰ 0`) and,
//!   when `C_r` admits a Cholesky factorization, the exact spectral
//!   abscissa of the reduced pencil `(−G_r, C_r)`.
//! - **A posteriori error bands** ([`ErrorBand`]): the residual sweep
//!   folded into per-log-frequency-band worst-case bounds.
//!
//! Congruence reduction preserves semidefiniteness exactly in exact
//! arithmetic — these checks certify that *floating-point* reduction did
//! not break it, which is precisely the guarantee a stranger consuming the
//! artifact needs. Eigenvalue margins on large reduced pencils go through
//! [`bdsm_linalg::sym_eig_extremes`] (tridiagonalize + Sturm bisection);
//! the small per-frequency Hermitian samples go through the full
//! [`SymEig`] Jacobi decomposition via the real `2p×2p` embedding.
//!
//! Everything here is deterministic: fixed bisection schedules, no
//! data-dependent thread interaction — certificates are bitwise-identical
//! for any `BDSM_THREADS`.

use crate::reduce::Result;
use crate::transfer::{eval_jomega_sweep, CMatrix};
use bdsm_linalg::{sym_eig_extremes, Matrix, SymEig};
use bdsm_obs::json::{self, Json, Object};

/// Knobs of the certification pass, carried on
/// [`ReductionOpts`](crate::reduce::ReductionOpts).
#[derive(Debug, Clone, PartialEq)]
pub struct CertifyOpts {
    /// Relative eigenvalue tolerance: a margin `λ_min ≥ −tol·max(1, ‖A‖)`
    /// still counts as semidefinite (roundoff allowance).
    pub tol: f64,
}

impl Default for CertifyOpts {
    fn default() -> Self {
        CertifyOpts { tol: 1e-8 }
    }
}

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
    /// No check ran — e.g. a pre-certificate (format v2) artifact.
    Unknown,
}

/// Passivity evidence: semidefiniteness margins of the reduced pencil and
/// positive-real sampling of the reduced transfer function.
#[derive(Debug, Clone, PartialEq)]
pub struct PassivityCertificate {
    /// The relative eigenvalue tolerance the margins were judged against.
    pub tol: f64,
    /// Smallest eigenvalue of `sym(G_r)`.
    pub g_sym_min_eig: f64,
    /// Smallest eigenvalue of `C_r` (symmetrized).
    pub c_min_eig: f64,
    /// Frequencies where `Re H(jω)` was sampled (empty when the transfer
    /// matrix is not square or no grid was available).
    pub sample_omegas: Vec<f64>,
    /// Smallest eigenvalue of the Hermitian part of `H(jω)` per sample.
    pub sample_min_eigs: Vec<f64>,
    /// Indices into the samples where positive-realness is violated —
    /// the localization a debugging consumer needs.
    pub violations: Vec<usize>,
    /// The verdict.
    pub outcome: CheckOutcome,
}

/// Stability evidence for the reduced pencil `(−G_r, C_r)`.
#[derive(Debug, Clone, PartialEq)]
pub struct StabilityCertificate {
    /// Lyapunov margin from `sym(G_r)`: `V = xᵀC_r x` decays when ≥ 0.
    pub lyapunov_margin_g: f64,
    /// Lyapunov margin from `C_r`.
    pub lyapunov_margin_c: f64,
    /// Exact spectral abscissa `max Re λ` of the pencil, when `C_r`
    /// admitted a Cholesky factorization (`None` when singular /
    /// indefinite — the Lyapunov condition then carries the verdict).
    pub spectral_abscissa: Option<f64>,
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
/// provenance (format v3) and enforced by the query envelope of
/// `RomServer`.
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// Passivity evidence.
    pub passivity: PassivityCertificate,
    /// Stability evidence.
    pub stability: StabilityCertificate,
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
    /// status [`CertStatus::Unknown`] — what a pre-certificate (v2)
    /// artifact reports after loading.
    pub fn unknown() -> Self {
        Certificate {
            passivity: PassivityCertificate {
                tol: 0.0,
                g_sym_min_eig: 0.0,
                c_min_eig: 0.0,
                sample_omegas: Vec::new(),
                sample_min_eigs: Vec::new(),
                violations: Vec::new(),
                outcome: CheckOutcome::Skipped,
            },
            stability: StabilityCertificate {
                lyapunov_margin_g: 0.0,
                lyapunov_margin_c: 0.0,
                spectral_abscissa: None,
                outcome: CheckOutcome::Skipped,
            },
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
        let s = &self.stability;
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
                    .field("g_sym_min_eig", p.g_sym_min_eig)
                    .field("c_min_eig", p.c_min_eig)
                    .field("samples", p.sample_omegas.len())
                    .field("violations", p.violations.len()),
            )
            .field(
                "stability",
                Object::new()
                    .field("outcome", s.outcome)
                    .field("lyapunov_margin_g", s.lyapunov_margin_g)
                    .field("lyapunov_margin_c", s.lyapunov_margin_c)
                    .field("spectral_abscissa", s.spectral_abscissa),
            )
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
/// `rom_samples`, when provided, must be `H(jω)` at exactly those
/// frequencies (the adaptive loop already has them — recomputing would
/// double the certification cost). `residuals`, when provided, feeds the
/// a posteriori error bands.
///
/// # Errors
///
/// Propagates eigensolver failures and singular transfer evaluations
/// (a grid point sitting on a pole of the ROM).
#[allow(clippy::too_many_arguments)] // the descriptor alone is four matrices
pub fn certify_reduced(
    g: &Matrix,
    c: &Matrix,
    b: &Matrix,
    l: &Matrix,
    omegas: &[f64],
    rom_samples: Option<&[CMatrix]>,
    residuals: Option<&ResidualSweep>,
    opts: &CertifyOpts,
) -> Result<Certificate> {
    let q = g.nrows();
    if q == 0 {
        return Ok(Certificate::unknown());
    }
    let g_thresh = opts.tol * g.norm_max().max(1.0);
    let c_thresh = opts.tol * c.norm_max().max(1.0);
    // Three independent `O(q³)` jobs: the pencil's spectral abscissa
    // (`None` — Cholesky, two triangular solves and an eigenvalue bracket,
    // the longest, so first) and the smallest eigenvalue of each matrix's
    // symmetric part. Each is a pure function of `(G_r, C_r)`, so the
    // fan-out cannot move a bit.
    let jobs: [Option<&Matrix>; 3] = [None, Some(g), Some(c)];
    let mut spectra = crate::par::parallel_map(&jobs, |_, job| match *job {
        None => Ok(spectral_abscissa(g, c)),
        Some(m) => sym_eig_extremes(m).map(|(lo, _)| Some(lo)),
    })
    .into_iter();
    let mut next = || spectra.next().expect("one result per job");
    let spectral_abscissa = next()?;
    let g_sym_min_eig = next()?.expect("an eigenvalue job returns a value");
    let c_min_eig = next()?.expect("an eigenvalue job returns a value");
    let matrices_pass = g_sym_min_eig >= -g_thresh && c_min_eig >= -c_thresh;

    // Positive-real sampling: only defined for a square transfer matrix
    // (inputs and outputs must pair up for `uᴴ H u` to be a power).
    let square = b.ncols() == l.nrows() && b.ncols() > 0;
    let (sample_omegas, sample_min_eigs, violations) = if square && !omegas.is_empty() {
        let samples = match rom_samples {
            Some(s) => s.to_vec(),
            None => eval_jomega_sweep(g, c, b, l, omegas)?,
        };
        let mut mins = Vec::with_capacity(samples.len());
        let mut bad = Vec::new();
        for (k, h) in samples.iter().enumerate() {
            let (min_eig, scale) = hermitian_part_min_eig(h)?;
            if min_eig < -opts.tol * scale.max(1.0) {
                bad.push(k);
            }
            mins.push(min_eig);
        }
        (omegas.to_vec(), mins, bad)
    } else {
        (Vec::new(), Vec::new(), Vec::new())
    };
    let passivity_outcome = if !matrices_pass || !violations.is_empty() {
        CheckOutcome::Fail
    } else {
        CheckOutcome::Pass
    };

    let stable = match spectral_abscissa {
        Some(a) => a <= g_thresh.max(c_thresh),
        None => matrices_pass,
    };
    let stability_outcome = if stable {
        CheckOutcome::Pass
    } else {
        CheckOutcome::Fail
    };

    let error_bands = residuals
        .map(|r| error_bands(&r.omegas, &r.residuals, 6))
        .unwrap_or_default();

    let status =
        if passivity_outcome == CheckOutcome::Fail || stability_outcome == CheckOutcome::Fail {
            CertStatus::Violated
        } else {
            CertStatus::Certified
        };
    Ok(Certificate {
        passivity: PassivityCertificate {
            tol: opts.tol,
            g_sym_min_eig,
            c_min_eig,
            sample_omegas,
            sample_min_eigs,
            violations,
            outcome: passivity_outcome,
        },
        stability: StabilityCertificate {
            lyapunov_margin_g: g_sym_min_eig,
            lyapunov_margin_c: c_min_eig,
            spectral_abscissa,
            outcome: stability_outcome,
        },
        error_bands,
        status,
    })
}

/// Smallest eigenvalue of the Hermitian part `M = (H + Hᴴ)/2` of a square
/// complex matrix, plus `‖M‖_max` as the tolerance scale. Computed through
/// the real symmetric `2p×2p` embedding `[[Re M, −Im M], [Im M, Re M]]`,
/// whose spectrum is that of `M` with every eigenvalue doubled — the port
/// count is small, so the full Jacobi [`SymEig`] is the right tool.
fn hermitian_part_min_eig(h: &CMatrix) -> Result<(f64, f64)> {
    let p = h.nrows();
    let mut scale = 0.0_f64;
    let mut e = Matrix::zeros(2 * p, 2 * p);
    for i in 0..p {
        for j in 0..p {
            let re = 0.5 * (h[(i, j)].re + h[(j, i)].re);
            let im = 0.5 * (h[(i, j)].im - h[(j, i)].im);
            scale = scale.max(re.abs()).max(im.abs());
            e[(i, j)] = re;
            e[(i + p, j + p)] = re;
            e[(i, j + p)] = -im;
            e[(i + p, j)] = im;
        }
    }
    let eig = SymEig::compute(&e)?;
    Ok((eig.min().unwrap_or(0.0), scale))
}

/// Exact spectral abscissa `max Re λ` of the pencil `−G x = λ C x`, via the
/// symmetric-definite reduction `S = L⁻¹ sym(G) L⁻ᵀ` over the Cholesky
/// factor `C = LLᵀ`: the pencil eigenvalues are `−eig(S)`, so the abscissa
/// is `−λ_min(S)`. Returns `None` when `C` is not positive definite
/// (Cholesky breakdown) — the Lyapunov condition then decides stability.
fn spectral_abscissa(g: &Matrix, c: &Matrix) -> Option<f64> {
    let n = c.nrows();
    let l = cholesky(c)?;
    // X = L⁻¹ sym(G): forward-substitute each column of sym(G).
    let sym_g = Matrix::from_fn(n, n, |i, j| 0.5 * (g[(i, j)] + g[(j, i)]));
    let x = forward_solve_cols(&l, &sym_g);
    // S = X L⁻ᵀ = (L⁻¹ Xᵀ)ᵀ — X is `L⁻¹ sym(G)`, so S is symmetric.
    let s = forward_solve_cols(&l, &x.transpose()).transpose();
    let (lo, _) = sym_eig_extremes(&s).ok()?;
    Some(-lo)
}

/// Unpivoted Cholesky `A = LLᵀ` of the symmetrized input; `None` on a
/// non-positive pivot (not positive definite).
fn cholesky(a: &Matrix) -> Option<Matrix> {
    let n = a.nrows();
    let mut l = Matrix::zeros(n, n);
    for j in 0..n {
        let mut d = 0.5 * (a[(j, j)] + a[(j, j)]);
        for k in 0..j {
            d -= l[(j, k)] * l[(j, k)];
        }
        if d.is_nan() || d <= 0.0 {
            return None;
        }
        let dj = d.sqrt();
        l[(j, j)] = dj;
        for i in (j + 1)..n {
            let mut v = 0.5 * (a[(i, j)] + a[(j, i)]);
            for k in 0..j {
                v -= l[(i, k)] * l[(j, k)];
            }
            l[(i, j)] = v / dj;
        }
    }
    Some(l)
}

/// Solves `L X = B` for lower-triangular `L`, all columns at once: row
/// `i` of `X` is row `i` of `B` minus `l[i, k]` × (finished) row `k` for
/// `k` ascending, over `l[i, i]` — contiguous row updates, and per
/// element the same subtractions in the same order as a column-by-column
/// substitution, so the result is that one's, bit for bit.
fn forward_solve_cols(l: &Matrix, b: &Matrix) -> Matrix {
    let (n, m) = b.shape();
    let mut x = b.clone();
    for i in 0..n {
        let (done, rest) = x.as_mut_slice().split_at_mut(i * m);
        let xi = &mut rest[..m];
        for (k, xk) in done.chunks_exact(m).enumerate() {
            let lik = l[(i, k)];
            for (v, &w) in xi.iter_mut().zip(xk) {
                *v -= lik * w;
            }
        }
        let lii = l[(i, i)];
        for v in xi.iter_mut() {
            *v /= lii;
        }
    }
    x
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
        certify_reduced(
            g,
            c,
            b,
            l,
            &[1.0, 10.0, 100.0],
            None,
            None,
            &CertifyOpts::default(),
        )
        .unwrap()
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
        assert_eq!(cert.stability.outcome, CheckOutcome::Pass);
        assert!(cert.passivity.g_sym_min_eig > 0.0);
        assert!(cert.passivity.c_min_eig > 0.0);
        assert!(cert.passivity.violations.is_empty());
        assert_eq!(cert.passivity.sample_min_eigs.len(), 3);
        assert!(cert.passivity.sample_min_eigs.iter().all(|&m| m >= 0.0));
        let a = cert.stability.spectral_abscissa.expect("C is SPD");
        assert!(a < 0.0, "RC pencil abscissa {a} not negative");
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
        assert!(cert.passivity.g_sym_min_eig < 0.0);
        assert_eq!(cert.stability.outcome, CheckOutcome::Fail);
        assert!(cert.stability.spectral_abscissa.unwrap() > 0.0);
        // The driving-point H(jω) of an active one-port goes non-positive-
        // real somewhere on the grid — the violation list localizes it.
        assert!(
            !cert.passivity.violations.is_empty(),
            "sampled min eigs: {:?}",
            cert.passivity.sample_min_eigs
        );
    }

    #[test]
    fn singular_c_skips_spectral_but_lyapunov_decides() {
        let n = 4;
        let g = spd(n, 3.0);
        let mut c = spd(n, 2.5);
        // Zero out a row/col: C ⪰ 0 but singular — Cholesky must refuse.
        for k in 0..n {
            c[(0, k)] = 0.0;
            c[(k, 0)] = 0.0;
        }
        let b = Matrix::from_fn(n, 1, |i, _| if i == 0 { 1.0 } else { 0.0 });
        let l = b.transpose();
        let cert = certify_plain(&g, &c, &b, &l);
        assert_eq!(cert.stability.spectral_abscissa, None);
        assert_eq!(cert.stability.outcome, CheckOutcome::Pass);
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
        // M = [[2, i], [-i, 2]] has eigenvalues 1 and 3.
        let mut h = CMatrix::zeros(2, 2);
        h[(0, 0)] = Complex64::from_real(2.0);
        h[(1, 1)] = Complex64::from_real(2.0);
        h[(0, 1)] = Complex64::new(0.0, 1.0);
        h[(1, 0)] = Complex64::new(0.0, -1.0);
        let (min_eig, scale) = hermitian_part_min_eig(&h).unwrap();
        assert!((min_eig - 1.0).abs() < 1e-12);
        assert!((scale - 2.0).abs() < 1e-15);
    }

    #[test]
    fn row_walking_forward_solve_is_the_column_walk_bit_for_bit() {
        // Reference: the column-by-column substitution this replaced.
        fn column_walk(l: &Matrix, b: &Matrix) -> Matrix {
            let (n, m) = b.shape();
            let mut x = b.clone();
            for j in 0..m {
                for i in 0..n {
                    let mut v = x[(i, j)];
                    for k in 0..i {
                        v -= l[(i, k)] * x[(k, j)];
                    }
                    x[(i, j)] = v / l[(i, i)];
                }
            }
            x
        }
        let n = 40;
        let a = Matrix::from_fn(n, n, |i, j| {
            ((i * 13 + j * 7) as f64 * 0.29).sin() * ((i + j) as f64 * 0.31).cos()
        });
        let spd = a
            .matmul(&a.transpose())
            .unwrap()
            .add(&Matrix::identity(n))
            .unwrap();
        let l = cholesky(&spd).expect("SPD by construction");
        let b = Matrix::from_fn(n, n, |i, j| ((i * 5 + j * 11) as f64 * 0.17).cos() + 0.3);
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&forward_solve_cols(&l, &b)),
            bits(&column_walk(&l, &b))
        );
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
            &CertifyOpts::default(),
        )
        .unwrap();
        assert_eq!(cert.min_transient_step(), Some(1.0 / 4.0e3));
    }
}
