//! Versioned, self-describing persistence for reduced models.
//!
//! A [`RomArtifact`] captures everything needed to *serve* a ROM long
//! after the build: the reduced descriptor `(G_r, C_r, B_r, L_r)`, the
//! block structure and state permutation, the interface map of exactly
//! preserved boundary voltages, and build provenance (engine version,
//! shifts chosen, residual trajectory, certification flag).
//!
//! The binary format is deliberately boring — a magic tag, a format
//! version, length-prefixed sections, every `f64` stored as its IEEE-754
//! bit pattern (`to_bits`), each reduced matrix dense or compressed-row,
//! whichever is smaller, and a trailing word-wise checksum — and is
//! written and read through the shared [`crate::codec`]. Round-trips
//! are **bitwise-exact** — `save` → `load` reproduces every float bit for
//! bit, which is what lets a served artifact answer queries with exactly
//! the numbers the freshly built model would produce. A JSON debug dump
//! ([`RomArtifact::to_json`]) mirrors the same content human-readably.

use crate::codec::{checksum, ByteReader, ByteWriter, CodecError};
use crate::server::QueryError;
use bdsm_core::certify::{CertStatus, Certificate, CheckOutcome, ErrorBand, PassivityCertificate};
use bdsm_core::engine::EngineReport;
use bdsm_core::krylov::ExpansionPoint;
use bdsm_core::projector::InterfacePolicy;
use bdsm_core::reduce::{CoreError, ReducedModel};
use bdsm_linalg::{LinalgError, Matrix};
use bdsm_obs::json::Object;
use std::fmt;
use std::path::Path;

/// Leading magic of every artifact file.
pub const MAGIC: [u8; 8] = *b"BDSMROM\0";

/// Format version this build writes and the only one it reads. Bump on
/// any layout change; every other version is rejected loudly.
///
/// History: v1 — initial layout; v2 — provenance gained the partition
/// strategy tag and the user-designated kept-bus list; v3 — provenance
/// gained the typed property certificate; v4 — the word-wise
/// [`checksum`] replaced byte-serial FNV-1a, and the retired slots (the
/// solver-backend tag, the stability section's two margins and its
/// spectral-abscissa tag) went; v5 — the bus-partition section and the
/// partition-strategy tag went: `state_order`, `block_sizes` and
/// `interface_states` already determine each bus's block and the
/// interface buses; v6 — the certificate's two eigenvalue margins went:
/// semidefiniteness is decided by a scaled Cholesky test that computes
/// no eigenvalue, and its verdict is the stability outcome; v7 — the
/// per-sample eigenvalues of the passivity section went: the same test
/// decides each positive-real sample, and `violations` localises the
/// failures; v8 — each reduced matrix is tagged dense or compressed-row
/// and stored in whichever is smaller, losslessly (every entry whose bits
/// are not `+0.0` is kept, `−0.0` included): the mesh ROM's `G_r` and
/// `C_r` are 12 % and 2 % nonzero, and its artifact fell from 2 634 834
/// to 458 102 bytes. Only the current version loads: artifacts are
/// deterministic build outputs, so an old file is rebuilt from its
/// netlist rather than read through a second layout.
pub const FORMAT_VERSION: u32 = 8;

/// Build provenance carried inside an artifact — the audit trail that
/// makes a loaded ROM explainable: which engine built it, from which
/// shifts, and how the adaptive residual converged.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// `bdsm-core` version that ran the reduction.
    pub engine_version: String,
    /// Expansion points of the final basis, in merge order.
    pub shifts: Vec<ExpansionPoint>,
    /// Columns of the final global Krylov basis.
    pub basis_cols: usize,
    /// Whether the adaptive loop certified its residual tolerance.
    pub certified: bool,
    /// Worst candidate-grid residual per greedy round (empty for fixed
    /// shifts).
    pub residual_trajectory: Vec<f64>,
    /// How interface buses were treated by the projector.
    pub interface_policy: InterfacePolicy,
    /// User-designated kept buses the partition was derived from (empty
    /// for a plain block-count build).
    pub kept_buses: Vec<usize>,
    /// Typed property certificate of the reduced pencil (passivity,
    /// stability, error bands). [`CertStatus::Unknown`] for reports
    /// without a Certify run.
    pub certificate: Certificate,
}

/// A persistable reduced-order model: reduced descriptor + block
/// structure + interface map + provenance. Build one with
/// [`RomArtifact::from_model`] (or [`crate::Reducer::reduce_to_artifact`]),
/// persist with [`save`](Self::save) / [`load`](Self::load), and serve it
/// through [`crate::RomServer`].
#[derive(Debug, Clone, PartialEq)]
pub struct RomArtifact {
    /// Full states per block of the permuted full model.
    pub block_sizes: Vec<usize>,
    /// Reduced states per block (`qᵢ`; sums to the reduced dimension).
    pub block_dims: Vec<usize>,
    /// State permutation (`new_of_old`) the build applied before
    /// projection. Bus voltages are states `0..num_buses`, so this and
    /// `block_sizes` place every bus in its block.
    pub state_order: Vec<usize>,
    /// Interface states of the permuted full model (sorted).
    pub interface_states: Vec<usize>,
    /// `(full state row, reduced column)` pairs of exactly preserved
    /// boundary voltages (empty under folded interfaces).
    pub interface_map: Vec<(usize, usize)>,
    /// Reduced conductance `VᵀGV`.
    pub g: Matrix,
    /// Reduced storage `VᵀCV`.
    pub c: Matrix,
    /// Reduced input map `VᵀB`.
    pub b: Matrix,
    /// Reduced output map `LV`.
    pub l: Matrix,
    /// Build provenance.
    pub provenance: Provenance,
}

/// Errors of the artifact and serving layers.
#[derive(Debug)]
#[non_exhaustive]
pub enum RomError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file does not start with the artifact magic.
    BadMagic,
    /// The file's format version is not the one this build reads.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The file ends mid-section.
    Truncated {
        /// Which section was being read.
        while_reading: &'static str,
    },
    /// Structurally invalid content (bad checksum, inconsistent shapes,
    /// trailing bytes, …).
    Corrupt(&'static str),
    /// A query named a model id the server has not loaded.
    UnknownModel(usize),
    /// A query was malformed or refused (port out of range, empty batch,
    /// non-finite input, outside the certified envelope, …).
    Query(QueryError),
    /// A panic crossed into the serving layer and was contained at the
    /// public API boundary; the payload is the panic message.
    Internal(String),
    /// Numerical failure while serving (e.g. a query frequency hits a
    /// pole of the ROM).
    Linalg(LinalgError),
    /// Reduction-engine failure while building an artifact.
    Core(CoreError),
}

impl fmt::Display for RomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RomError::Io(e) => write!(f, "artifact io error: {e}"),
            RomError::BadMagic => write!(f, "not a BDSM ROM artifact (bad magic)"),
            RomError::UnsupportedVersion { found, supported } => write!(
                f,
                "artifact format version {found} unsupported (this build reads {supported})"
            ),
            RomError::Truncated { while_reading } => {
                write!(f, "artifact truncated while reading {while_reading}")
            }
            RomError::Corrupt(what) => write!(f, "artifact corrupt: {what}"),
            RomError::UnknownModel(id) => write!(f, "no model with id {id} is loaded"),
            RomError::Query(what) => write!(f, "bad query: {what}"),
            RomError::Internal(what) => write!(f, "internal serving failure: {what}"),
            RomError::Linalg(e) => write!(f, "serving failed: {e}"),
            RomError::Core(e) => write!(f, "reduction failed: {e}"),
        }
    }
}

impl std::error::Error for RomError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RomError::Io(e) => Some(e),
            RomError::Linalg(e) => Some(e),
            RomError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for RomError {
    fn from(e: std::io::Error) -> Self {
        RomError::Io(e)
    }
}

impl From<LinalgError> for RomError {
    fn from(e: LinalgError) -> Self {
        RomError::Linalg(e)
    }
}

impl From<CoreError> for RomError {
    fn from(e: CoreError) -> Self {
        RomError::Core(e)
    }
}

impl From<CodecError> for RomError {
    fn from(e: CodecError) -> Self {
        match e {
            // A length whose byte size overflows claims more than any file
            // holds: the same finding as a length past the end.
            CodecError::Truncated { while_reading } | CodecError::Overflow { while_reading } => {
                RomError::Truncated { while_reading }
            }
            CodecError::Corrupt(what) => RomError::Corrupt(what),
        }
    }
}

impl RomArtifact {
    /// Captures a freshly built [`ReducedModel`] (and, when available, the
    /// engine's audit report) as a persistable artifact. The reduced
    /// matrices are copied verbatim — no rounding, no reformatting — so
    /// the artifact serves exactly the numbers the in-memory model would.
    /// With a report, the provenance records the interface policy and
    /// kept buses the engine ran with; without one, the policy is inferred
    /// from the interface map (non-empty ⇔ boundaries preserved) and the
    /// kept-bus list is empty.
    pub fn from_model(rm: &ReducedModel, report: Option<&EngineReport>) -> Self {
        let interface_map = rm.interface_map.clone();
        let inferred_policy = if interface_map.is_empty() {
            InterfacePolicy::Folded
        } else {
            InterfacePolicy::Exact
        };
        let provenance = Provenance {
            engine_version: bdsm_core::ENGINE_VERSION.to_string(),
            shifts: report.map(|r| r.shifts.clone()).unwrap_or_default(),
            basis_cols: report.map_or(0, |r| r.basis_cols),
            certified: report.is_some_and(|r| r.certified),
            residual_trajectory: report.map(|r| r.rounds.clone()).unwrap_or_default(),
            interface_policy: report.map_or(inferred_policy, |r| r.interface_policy),
            kept_buses: report.map(|r| r.kept_buses.clone()).unwrap_or_default(),
            certificate: report.map(|r| r.certificate.clone()).unwrap_or_default(),
        };
        RomArtifact {
            block_sizes: rm.block_sizes.clone(),
            block_dims: rm.block_dims.clone(),
            state_order: rm.state_order.clone(),
            interface_states: rm.interface_states.clone(),
            interface_map,
            g: rm.g.clone(),
            c: rm.c.clone(),
            b: rm.b.clone(),
            l: rm.l.clone(),
            provenance,
        }
    }

    /// Full state dimension `n` of the model this ROM reduces.
    pub fn full_dim(&self) -> usize {
        self.block_sizes.iter().sum()
    }

    /// Reduced state dimension `q`.
    pub fn reduced_dim(&self) -> usize {
        self.g.nrows()
    }

    /// Number of input ports `m`.
    pub fn num_inputs(&self) -> usize {
        self.b.ncols()
    }

    /// Number of output ports `p`.
    pub fn num_outputs(&self) -> usize {
        self.l.nrows()
    }

    /// Number of partition blocks `k`.
    pub fn num_blocks(&self) -> usize {
        self.block_sizes.len()
    }

    /// `true` when every float, index, and string of the two artifacts is
    /// identical — the round-trip acceptance predicate (floats compared
    /// via their bit patterns, so `-0.0` and NaN payloads count).
    pub fn bitwise_eq(&self, other: &RomArtifact) -> bool {
        self.to_bytes() == other.to_bytes()
    }

    /// Serializes to the compact binary format ([`FORMAT_VERSION`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.bytes(&MAGIC);
        w.u32(FORMAT_VERSION);
        w.str(&self.provenance.engine_version);
        w.usizes(&self.block_sizes);
        w.usizes(&self.block_dims);
        w.usizes(&self.state_order);
        w.usizes(&self.interface_states);
        w.u64(self.interface_map.len() as u64);
        for &(row, col) in &self.interface_map {
            w.u64(row as u64);
            w.u64(col as u64);
        }
        let n = self.state_order.len();
        for m in [&self.g, &self.c, &self.b, &self.l] {
            write_matrix(&mut w, m, n);
        }
        w.u64(self.provenance.shifts.len() as u64);
        for s in &self.provenance.shifts {
            match *s {
                ExpansionPoint::Real(v) => {
                    w.u8(0);
                    w.f64(v);
                }
                ExpansionPoint::Jomega(v) => {
                    w.u8(1);
                    w.f64(v);
                }
            }
        }
        w.u64(self.provenance.basis_cols as u64);
        w.u8(self.provenance.certified as u8);
        w.f64s(&self.provenance.residual_trajectory);
        w.u8(match self.provenance.interface_policy {
            InterfacePolicy::Folded => 0,
            InterfacePolicy::Exact => 1,
        });
        w.usizes(&self.provenance.kept_buses);
        write_certificate(&mut w, &self.provenance.certificate);
        w.into_checksummed()
    }

    /// Deserializes the binary format, validating magic, version,
    /// checksum, and structural consistency.
    ///
    /// # Errors
    ///
    /// [`RomError::BadMagic`], [`RomError::UnsupportedVersion`],
    /// [`RomError::Truncated`], or [`RomError::Corrupt`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, RomError> {
        let mut r = open(bytes)?;
        let engine_version = r.str("engine version")?;
        let block_sizes = r.usizes("block sizes")?;
        let block_dims = r.usizes("block dims")?;
        let state_order = r.usizes("state order")?;
        let interface_states = r.usizes("interface states")?;
        let n_map = r.count(16, "interface map")?;
        let mut interface_map = Vec::with_capacity(n_map);
        for _ in 0..n_map {
            let row = r.u64("interface map")? as usize;
            let col = r.u64("interface map")? as usize;
            interface_map.push((row, col));
        }
        let n = state_order.len();
        let g = read_matrix(&mut r, "G", n)?;
        let c = read_matrix(&mut r, "C", n)?;
        let b = read_matrix(&mut r, "B", n)?;
        let l = read_matrix(&mut r, "L", n)?;
        let n_shifts = r.count(9, "shifts")?;
        let mut shifts = Vec::with_capacity(n_shifts);
        for _ in 0..n_shifts {
            let tag = r.u8("shift tag")?;
            let v = r.f64("shift value")?;
            shifts.push(match tag {
                0 => ExpansionPoint::Real(v),
                1 => ExpansionPoint::Jomega(v),
                _ => return Err(RomError::Corrupt("unknown expansion-point tag")),
            });
        }
        let basis_cols = r.u64("basis cols")? as usize;
        let certified = match r.u8("certified flag")? {
            0 => false,
            1 => true,
            _ => return Err(RomError::Corrupt("certified flag not boolean")),
        };
        let residual_trajectory = r.f64s("residual trajectory")?;
        let interface_policy = match r.u8("interface policy tag")? {
            0 => InterfacePolicy::Folded,
            1 => InterfacePolicy::Exact,
            _ => return Err(RomError::Corrupt("unknown interface-policy tag")),
        };
        let kept_buses = r.usizes("kept buses")?;
        let certificate = read_certificate(&mut r)?;
        r.finish()?;

        let artifact = RomArtifact {
            block_sizes,
            block_dims,
            state_order,
            interface_states,
            interface_map,
            g,
            c,
            b,
            l,
            provenance: Provenance {
                engine_version,
                shifts,
                basis_cols,
                certified,
                residual_trajectory,
                interface_policy,
                kept_buses,
                certificate,
            },
        };
        artifact.validate()?;
        Ok(artifact)
    }

    /// Structural consistency of a deserialized artifact: shapes agree
    /// with the block structure, every index is in range, and the state
    /// order is a permutation.
    fn validate(&self) -> Result<(), RomError> {
        let q = self.g.nrows();
        let n = self.full_dim();
        if !self.g.is_square() || self.c.shape() != (q, q) {
            return Err(RomError::Corrupt("reduced G/C not square and consistent"));
        }
        if self.b.nrows() != q || self.l.ncols() != q {
            return Err(RomError::Corrupt("reduced B/L shapes inconsistent"));
        }
        if self.block_dims.iter().sum::<usize>() != q {
            return Err(RomError::Corrupt("block dims do not sum to reduced dim"));
        }
        if self.block_dims.len() != self.block_sizes.len() {
            return Err(RomError::Corrupt("block dim/size counts differ"));
        }
        if self.state_order.len() != n {
            return Err(RomError::Corrupt("state order length mismatch"));
        }
        let mut seen = vec![false; n];
        for &s in &self.state_order {
            if s >= n {
                return Err(RomError::Corrupt("state order entry out of range"));
            }
            if std::mem::replace(&mut seen[s], true) {
                return Err(RomError::Corrupt("state order entry repeated"));
            }
        }
        if self.interface_states.iter().any(|&s| s >= n) {
            return Err(RomError::Corrupt("interface state out of range"));
        }
        if self
            .interface_map
            .iter()
            .any(|&(row, col)| row >= n || col >= q)
        {
            return Err(RomError::Corrupt("interface map entry out of range"));
        }
        // Bus voltages are states `0..num_buses`, so a kept bus is a state.
        if self.provenance.kept_buses.iter().any(|&b| b >= n) {
            return Err(RomError::Corrupt("kept bus out of range"));
        }
        Ok(())
    }

    /// Saves the binary artifact to a file.
    ///
    /// # Errors
    ///
    /// [`RomError::Io`] on filesystem failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), RomError> {
        Ok(std::fs::write(path, self.to_bytes())?)
    }

    /// Loads a binary artifact from a file.
    ///
    /// # Errors
    ///
    /// Same as [`from_bytes`](Self::from_bytes), plus [`RomError::Io`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, RomError> {
        Self::from_bytes(&std::fs::read(path)?)
    }

    /// Human-readable JSON mirror of the artifact, from the one emitter
    /// in `bdsm_obs::json`: every float prints as its shortest round-trip
    /// `{:e}` spelling, which parses back to exactly the stored bits, but
    /// the binary format remains the round-trip authority.
    pub fn to_json(&self) -> String {
        let matrix = |m: &Matrix| {
            let rows: Vec<&[f64]> = (0..m.nrows()).map(|i| m.row(i)).collect();
            Object::new()
                .field("nrows", m.nrows())
                .field("ncols", m.ncols())
                .field("rows", rows)
        };
        let shifts: Vec<Object> = self
            .provenance
            .shifts
            .iter()
            .map(|s| match *s {
                ExpansionPoint::Real(v) => Object::new().field("real", v),
                ExpansionPoint::Jomega(v) => Object::new().field("jomega", v),
            })
            .collect();
        let p = &self.provenance;
        let provenance = Object::new()
            .field("shifts", shifts)
            .field("basis_cols", p.basis_cols)
            .field("certified", p.certified)
            .field("residual_trajectory", &p.residual_trajectory)
            .field("interface_policy", format!("{:?}", p.interface_policy))
            .field("kept_buses", &p.kept_buses);
        Object::new()
            .field("format_version", FORMAT_VERSION)
            .field("engine_version", &p.engine_version)
            .field("full_dim", self.full_dim())
            .field("reduced_dim", self.reduced_dim())
            .field("block_sizes", &self.block_sizes)
            .field("block_dims", &self.block_dims)
            .field("interface_states", &self.interface_states)
            .field("interface_map", &self.interface_map)
            .field("g", matrix(&self.g))
            .field("c", matrix(&self.c))
            .field("b", matrix(&self.b))
            .field("l", matrix(&self.l))
            .field("provenance", provenance)
            .field("certificate", &p.certificate)
            .finish()
    }
}

fn outcome_tag(o: CheckOutcome) -> u8 {
    match o {
        CheckOutcome::Pass => 0,
        CheckOutcome::Fail => 1,
        CheckOutcome::Skipped => 2,
    }
}

fn outcome_from_tag(tag: u8) -> Result<CheckOutcome, RomError> {
    match tag {
        0 => Ok(CheckOutcome::Pass),
        1 => Ok(CheckOutcome::Fail),
        2 => Ok(CheckOutcome::Skipped),
        _ => Err(RomError::Corrupt("unknown check-outcome tag")),
    }
}

/// The certificate section, appended after the kept-bus list.
fn write_certificate(w: &mut ByteWriter, cert: &Certificate) {
    w.u8(match cert.status {
        CertStatus::Certified => 0,
        CertStatus::Violated => 1,
        CertStatus::Unknown => 2,
    });
    let p = &cert.passivity;
    w.f64(p.tol);
    w.f64s(&p.sample_omegas);
    w.usizes(&p.violations);
    w.u8(outcome_tag(p.outcome));
    w.u8(outcome_tag(cert.stability));
    w.u64(cert.error_bands.len() as u64);
    for b in &cert.error_bands {
        w.f64(b.omega_lo);
        w.f64(b.omega_hi);
        w.f64(b.worst_residual);
        w.u64(b.samples as u64);
    }
}

fn read_certificate(r: &mut ByteReader<'_>) -> Result<Certificate, RomError> {
    let status = match r.u8("certificate status")? {
        0 => CertStatus::Certified,
        1 => CertStatus::Violated,
        2 => CertStatus::Unknown,
        _ => return Err(RomError::Corrupt("unknown certificate-status tag")),
    };
    let tol = r.f64("passivity tol")?;
    let sample_omegas = r.f64s("passivity sample omegas")?;
    let violations = r.usizes("passivity violations")?;
    if violations.iter().any(|&i| i >= sample_omegas.len()) {
        return Err(RomError::Corrupt("passivity violation index out of range"));
    }
    let passivity_outcome = outcome_from_tag(r.u8("passivity outcome")?)?;
    let stability = outcome_from_tag(r.u8("stability outcome")?)?;
    let n_bands = r.count(32, "error bands")?;
    let mut error_bands = Vec::with_capacity(n_bands);
    for _ in 0..n_bands {
        error_bands.push(ErrorBand {
            omega_lo: r.f64("error band")?,
            omega_hi: r.f64("error band")?,
            worst_residual: r.f64("error band")?,
            samples: r.u64("error band")? as usize,
        });
    }
    Ok(Certificate {
        passivity: PassivityCertificate {
            tol,
            sample_omegas,
            violations,
            outcome: passivity_outcome,
        },
        stability,
        error_bands,
        status,
    })
}

/// Storage tag of a matrix section whose every entry is stored.
const DENSE: u8 = 0;
/// Storage tag of a matrix section that stores only the entries whose
/// bits are not `+0.0`, row by row.
const COMPRESSED_ROW: u8 = 1;

/// Whether an `nrows × ncols` matrix with `stored` entries not `+0.0` is
/// written compressed-row: exactly when that section is smaller than the
/// dense one (in words: the entry count, one end pointer per row, and an
/// index and a value per stored entry, against one word per entry), and
/// the matrix holds at most `n²` entries for the artifact's `n` full
/// states. A compressed section's bytes do not bound its dense size; `n`
/// is stored as `n` explicit words of the state order, so the cap keeps
/// a decode's allocation tied to the file (and within what an allocation
/// can hold). Every reduced matrix of a model with no more ports than
/// states is under it (`q ≤ n` for any projection). Writer and reader
/// share this rule, so each matrix has one encoding and
/// `to_bytes(from_bytes(b)) == b` for every accepted `b`. It takes the
/// words as read and computes in `u128`, so no value overflows or
/// truncates before it is checked.
fn compressed_row_wins(nrows: u64, ncols: u64, stored: u64, n: u64) -> bool {
    let (nrows, ncols, stored, n) = (nrows as u128, ncols as u128, stored as u128, n as u128);
    let cap = (n * n).min(isize::MAX as u128 / 8);
    1 + nrows + 2 * stored < nrows * ncols && nrows * ncols <= cap
}

/// Entries stored by a compressed-row section: every one whose bits are
/// not `+0.0`, so `−0.0` survives the round trip.
fn is_stored(v: f64) -> bool {
    v.to_bits() != 0
}

/// One reduced matrix: a [`DENSE`] or [`COMPRESSED_ROW`] tag, the two
/// extents, then either every entry row-major or the stored-entry count,
/// each row's end pointer, the column indices and the values, in the
/// row-major `Matrix`'s own order.
fn write_matrix(w: &mut ByteWriter, m: &Matrix, n: usize) {
    let stored = m.as_slice().iter().filter(|&&v| is_stored(v)).count();
    let (nrows, ncols) = (m.nrows() as u64, m.ncols() as u64);
    let compressed = compressed_row_wins(nrows, ncols, stored as u64, n as u64);
    w.u8(if compressed { COMPRESSED_ROW } else { DENSE });
    w.u64(nrows);
    w.u64(ncols);
    if !compressed {
        m.as_slice().iter().for_each(|&v| w.f64(v));
        return;
    }
    w.u64(stored as u64);
    let mut end = 0;
    for i in 0..m.nrows() {
        end += m.row(i).iter().filter(|&&v| is_stored(v)).count();
        w.u64(end as u64);
    }
    for i in 0..m.nrows() {
        (m.row(i).iter().enumerate())
            .filter(|&(_, &v)| is_stored(v))
            .for_each(|(j, _)| w.u64(j as u64));
    }
    (m.as_slice().iter())
        .filter(|&&v| is_stored(v))
        .for_each(|&v| w.f64(v));
}

/// Reads one [`write_matrix`] section of an artifact with `n` full
/// states. The decode allocates one buffer, the returned matrix: a dense
/// section is collected into it from the exact-size [`ByteReader::words`]
/// iterator, and a compressed-row one is scattered into it, zero-filled,
/// straight from the borrowed pointer, index and value lists, so an open
/// allocates the same sizes in the same order whichever way a matrix was
/// stored (README, `first_answer_ms`). Only the canonical encoding is
/// accepted: a section the other storage would beat, a stored `+0.0`, a
/// decreasing row pointer or one past the entry count, a last pointer
/// that is not the entry count, and a column index out of range or not
/// strictly increasing within its row are all [`RomError::Corrupt`].
fn read_matrix(r: &mut ByteReader<'_>, what: &'static str, n: usize) -> Result<Matrix, RomError> {
    // The checksum guards against accidents, not against a producer bug,
    // and a NaN entry would be served as `Ok(NaN)`, so every stored value
    // is checked. `&`, not `all`: without the early exit the dense scan
    // vectorises (0.08 vs 0.15 ms on a q = 360 ROM).
    let non_finite = || RomError::Corrupt("non-finite entry in a reduced matrix");
    match r.u8(what)? {
        DENSE => {
            let (nrows, ncols) = r.dims(8, what)?;
            let data: Vec<f64> = r.words(nrows * ncols, what)?.map(f64::from_bits).collect();
            let (finite, stored) = (data.iter()).fold((true, 0), |(ok, k), &v| {
                (ok & v.is_finite(), k + is_stored(v) as usize)
            });
            if !finite {
                return Err(non_finite());
            }
            if compressed_row_wins(nrows as u64, ncols as u64, stored as u64, n as u64) {
                return Err(RomError::Corrupt(
                    "dense matrix section that compressed-row storage would beat",
                ));
            }
            Matrix::from_vec(nrows, ncols, data)
                .map_err(|_| RomError::Corrupt("matrix extents inconsistent"))
        }
        COMPRESSED_ROW => {
            let (nrows, ncols) = (r.u64(what)?, r.u64(what)?);
            let stored = r.count(16, what)?;
            if !compressed_row_wins(nrows, ncols, stored as u64, n as u64) {
                return Err(RomError::Corrupt(
                    "compressed-row matrix section that dense storage would beat",
                ));
            }
            // Lossless now: the rule capped `nrows × ncols`.
            let (nrows, ncols) = (nrows as usize, ncols as usize);
            let ends = r.words(nrows, what)?;
            let mut entries = r.words(stored, what)?.zip(r.words(stored, what)?);
            let mut m = Matrix::zeros(nrows, ncols);
            let (mut start, mut finite) = (0, true);
            for (i, end) in ends.enumerate() {
                if end < start as u64 || end > stored as u64 {
                    return Err(RomError::Corrupt(
                        "row pointer decreasing or past the entry count",
                    ));
                }
                let (row, mut next) = (m.row_mut(i), 0);
                for (j, bits) in entries.by_ref().take(end as usize - start) {
                    if j < next || j >= ncols as u64 {
                        return Err(RomError::Corrupt(
                            "column index out of range or not increasing in its row",
                        ));
                    }
                    if bits == 0 {
                        return Err(RomError::Corrupt(
                            "stored +0.0 entry in a compressed-row matrix",
                        ));
                    }
                    let v = f64::from_bits(bits);
                    finite &= v.is_finite();
                    row[j as usize] = v;
                    next = j + 1;
                }
                start = end as usize;
            }
            if start != stored {
                return Err(RomError::Corrupt("last row pointer is not the entry count"));
            }
            if !finite {
                return Err(non_finite());
            }
            Ok(m)
        }
        _ => Err(RomError::Corrupt("unknown matrix-storage tag")),
    }
}

/// Verifies magic, version and checksum, returning a reader positioned at
/// the first payload section (and ending before the trailing digest).
fn open(buf: &[u8]) -> Result<ByteReader<'_>, RomError> {
    let mut r = ByteReader::new(buf);
    if r.bytes(MAGIC.len(), "magic")? != MAGIC {
        return Err(RomError::BadMagic);
    }
    let version = r.u32("format version")?;
    if version != FORMAT_VERSION {
        return Err(RomError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    if buf.len() < HEADER_LEN + 8 {
        return Err(RomError::Truncated {
            while_reading: "checksum",
        });
    }
    let (body, stored) = buf.split_at(buf.len() - 8);
    if checksum(body).to_le_bytes() != stored {
        return Err(RomError::Corrupt("checksum mismatch"));
    }
    Ok(ByteReader::new(&body[HEADER_LEN..]))
}

/// Bytes before the first payload section: magic + format version.
const HEADER_LEN: usize = MAGIC.len() + 4;

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_artifact() -> RomArtifact {
        RomArtifact {
            block_sizes: vec![2, 2],
            block_dims: vec![1, 2],
            state_order: vec![0, 1, 2, 3],
            interface_states: vec![1, 2],
            interface_map: vec![(1, 0), (2, 1)],
            g: Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64 * 0.25 - 1.0),
            c: Matrix::from_fn(3, 3, |i, j| if i == j { 1e-3 } else { -0.0 }),
            b: Matrix::from_fn(3, 2, |i, j| (i + j) as f64),
            l: Matrix::from_fn(2, 3, |i, j| i as f64 - j as f64),
            provenance: Provenance {
                engine_version: "0.1.0".into(),
                shifts: vec![ExpansionPoint::Real(0.5), ExpansionPoint::Jomega(450.0)],
                basis_cols: 7,
                certified: true,
                residual_trajectory: vec![1e-2, 3.5e-5, 9.9e-8],
                interface_policy: InterfacePolicy::Exact,
                kept_buses: vec![1, 2],
                certificate: tiny_certificate(),
            },
        }
    }

    fn tiny_certificate() -> Certificate {
        Certificate {
            passivity: PassivityCertificate {
                tol: 1e-8,
                sample_omegas: vec![1.0e2, 4.5e2, 2.0e3],
                violations: vec![2],
                outcome: CheckOutcome::Pass,
            },
            stability: CheckOutcome::Pass,
            error_bands: vec![ErrorBand {
                omega_lo: 1.0e2,
                omega_hi: 2.0e3,
                worst_residual: 9.9e-8,
                samples: 3,
            }],
            status: CertStatus::Certified,
        }
    }

    #[test]
    fn bytes_round_trip_bitwise() {
        // -0.0 in C exercises the bit-pattern (not value) equality.
        let a = tiny_artifact();
        let back = RomArtifact::from_bytes(&a.to_bytes()).unwrap();
        assert!(a.bitwise_eq(&back));
        assert_eq!(a, back);
        assert_eq!(back.c[(0, 1)].to_bits(), (-0.0_f64).to_bits());
    }

    /// `tiny_artifact` widened to `q = 6` over `n = 8` states, with
    /// matrices of every storage case: `G` sparse with a `−0.0`, two
    /// subnormals and an all-zero row, `C` all zero (both compressed-row),
    /// `B` fully dense and `L` with one stored entry per row.
    fn sparse_artifact() -> RomArtifact {
        let mut g = Matrix::zeros(6, 6);
        for i in [0, 1, 3, 4, 5] {
            g[(i, i)] = 2.0 + i as f64;
        }
        g[(0, 5)] = -0.0;
        g[(1, 4)] = f64::from_bits(1);
        g[(5, 0)] = -f64::from_bits(0x000f_ffff_ffff_ffff);
        RomArtifact {
            block_sizes: vec![4, 4],
            block_dims: vec![3, 3],
            state_order: (0..8).collect(),
            interface_states: vec![3, 4],
            interface_map: vec![],
            g,
            c: Matrix::zeros(6, 6),
            b: Matrix::from_fn(6, 2, |i, j| 1.0 + (i * 2 + j) as f64),
            l: Matrix::from_fn(2, 6, |i, j| if j == 3 * i { -1.0 } else { 0.0 }),
            ..tiny_artifact()
        }
    }

    /// The storage tag `write_matrix` gives `m` in an artifact of `n` states.
    fn storage_tag(m: &Matrix, n: usize) -> u8 {
        let mut w = ByteWriter::new();
        write_matrix(&mut w, m, n);
        w.into_bytes()[0]
    }

    #[test]
    fn every_storage_case_round_trips_bitwise() {
        let a = sparse_artifact();
        let tags = [&a.g, &a.c, &a.b, &a.l].map(|m| storage_tag(m, 8));
        assert_eq!(
            tags,
            [COMPRESSED_ROW, COMPRESSED_ROW, DENSE, COMPRESSED_ROW]
        );
        let back = RomArtifact::from_bytes(&a.to_bytes()).unwrap();
        assert!(a.bitwise_eq(&back));
        for (m, got) in [
            (&a.g, &back.g),
            (&a.c, &back.c),
            (&a.b, &back.b),
            (&a.l, &back.l),
        ] {
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!((got.shape(), bits(got)), (m.shape(), bits(m)));
        }
        assert_eq!(back.g[(0, 5)].to_bits(), (-0.0_f64).to_bits());
        assert_eq!(back.g.row(2), [0.0; 6]);
        // A matrix past `n²` entries never compresses, however sparse.
        assert_eq!(storage_tag(&Matrix::zeros(6, 6), 5), DENSE);
    }

    /// `tiny_artifact`'s bytes with its `G` section replaced by `section`
    /// and checksummed afresh, so only the structural checks can object.
    fn with_g_section(section: &[u8]) -> Vec<u8> {
        let a = tiny_artifact();
        let clean = a.to_bytes();
        let body = &clean[..clean.len() - 8];
        let mut g = ByteWriter::new();
        write_matrix(&mut g, &a.g, a.state_order.len());
        let g = g.into_bytes();
        let at = body.windows(g.len()).position(|w| w == g).unwrap();
        let mut w = ByteWriter::new();
        w.bytes(&body[..at]);
        w.bytes(section);
        w.bytes(&body[at + g.len()..]);
        w.into_checksummed()
    }

    /// A `3 × 3` compressed-row section from its parts.
    fn compressed_3x3(stored: u64, ends: &[u64], cols: &[u64], vals: &[f64]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u8(COMPRESSED_ROW);
        [3, 3, stored]
            .into_iter()
            .chain(ends.iter().copied())
            .for_each(|v| w.u64(v));
        cols.iter().for_each(|&j| w.u64(j));
        vals.iter().for_each(|&v| w.f64(v));
        w.into_bytes()
    }

    #[test]
    fn non_canonical_matrix_sections_are_corrupt() {
        // The splice is sound: a canonical section decodes to its matrix.
        let good = compressed_3x3(2, &[1, 1, 2], &[0, 2], &[1.5, -0.0]);
        let g = RomArtifact::from_bytes(&with_g_section(&good)).unwrap().g;
        let bits: Vec<u64> = g.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            bits,
            [1.5_f64.to_bits(), 0, 0, 0, 0, 0, 0, 0, (-0.0_f64).to_bits()]
        );

        let mut one_entry = ByteWriter::new();
        one_entry.u8(DENSE);
        [3, 3].into_iter().for_each(|v| one_entry.u64(v));
        (0..9).for_each(|k| one_entry.f64(if k == 0 { 1.5 } else { 0.0 }));
        let mut bad_tag = good.clone();
        bad_tag[0] = 2;
        let past = "row pointer decreasing or past the entry count";
        let column = "column index out of range or not increasing in its row";
        for (section, want) in [
            (compressed_3x3(2, &[1, 0, 2], &[0, 2], &[1.5, 2.5]), past),
            (compressed_3x3(2, &[3, 3, 3], &[0, 2], &[1.5, 2.5]), past),
            (
                compressed_3x3(2, &[1, 1, 1], &[0, 2], &[1.5, 2.5]),
                "last row pointer is not the entry count",
            ),
            (compressed_3x3(2, &[1, 1, 2], &[0, 3], &[1.5, 2.5]), column),
            (compressed_3x3(2, &[0, 0, 2], &[1, 1], &[1.5, 2.5]), column),
            (compressed_3x3(2, &[0, 0, 2], &[2, 1], &[1.5, 2.5]), column),
            (
                compressed_3x3(2, &[1, 1, 2], &[0, 2], &[1.5, 0.0]),
                "stored +0.0 entry in a compressed-row matrix",
            ),
            (
                compressed_3x3(3, &[1, 2, 3], &[0, 1, 2], &[1.5, 2.5, 3.5]),
                "compressed-row matrix section that dense storage would beat",
            ),
            (
                one_entry.into_bytes(),
                "dense matrix section that compressed-row storage would beat",
            ),
            (bad_tag, "unknown matrix-storage tag"),
        ] {
            let got =
                std::panic::catch_unwind(|| RomArtifact::from_bytes(&with_g_section(&section)))
                    .unwrap_or_else(|_| panic!("decode panicked ({want})"));
            assert!(
                matches!(got, Err(RomError::Corrupt(w)) if w == want),
                "{want}: {got:?}"
            );
        }
    }

    #[test]
    fn version_mismatch_is_typed() {
        // Hand-built headers of the six formats before v8 (their bodies
        // never get read) and of the next one.
        for found in [2, 3, 4, 5, 6, 7, FORMAT_VERSION + 1] {
            let mut bytes = MAGIC.to_vec();
            bytes.extend(found.to_le_bytes());
            bytes.extend([0; 16]);
            assert!(matches!(
                RomArtifact::from_bytes(&bytes),
                Err(RomError::UnsupportedVersion { found: f, supported: 8 }) if f == found
            ));
        }
    }

    #[test]
    fn bad_magic_and_truncation_are_typed() {
        let bytes = tiny_artifact().to_bytes();
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert!(matches!(
            RomArtifact::from_bytes(&wrong),
            Err(RomError::BadMagic)
        ));
        // Every proper prefix must fail loudly, never panic.
        for cut in [0, 4, MAGIC.len() + 2, MAGIC.len() + 4, bytes.len() / 2] {
            assert!(
                RomArtifact::from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes accepted"
            );
        }
    }

    #[test]
    fn corrupt_certificate_tags_are_typed() {
        let a = tiny_artifact();
        let clean = a.to_bytes();
        // The status byte is the first one a different status changes.
        let mut violated = a.clone();
        violated.provenance.certificate.status = CertStatus::Violated;
        let status_pos = (clean.iter().zip(violated.to_bytes()))
            .position(|(x, y)| *x != y)
            .unwrap();
        let mut bytes = clean;
        bytes[status_pos] = 9; // not a valid CertStatus tag
        let patched = restamp_checksum(bytes);
        assert!(matches!(
            RomArtifact::from_bytes(&patched),
            Err(RomError::Corrupt("unknown certificate-status tag"))
        ));
    }

    fn restamp_checksum(mut bytes: Vec<u8>) -> Vec<u8> {
        let end = bytes.len() - 8;
        let sum = checksum(&bytes[..end]);
        bytes[end..].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    #[test]
    fn payload_corruption_trips_the_checksum() {
        let mut bytes = tiny_artifact().to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            RomArtifact::from_bytes(&bytes),
            Err(RomError::Corrupt("checksum mismatch"))
        ));
        // With the checksum restamped over the bad index, the structural
        // check must object instead.
        for (state_order, kept_buses, what) in [
            (
                vec![0, 4, 2, 3],
                vec![1, 2],
                "state order entry out of range",
            ),
            (vec![0, 0, 2, 3], vec![1, 2], "state order entry repeated"),
            (vec![0, 1, 2, 3], vec![1, 4], "kept bus out of range"),
        ] {
            let mut a = tiny_artifact();
            a.state_order = state_order;
            a.provenance.kept_buses = kept_buses;
            let err = RomArtifact::from_bytes(&a.to_bytes()).unwrap_err();
            assert!(
                matches!(err, RomError::Corrupt(w) if w == what),
                "{what}: {err}"
            );
        }
    }

    #[test]
    fn non_finite_reduced_entries_are_corrupt() {
        // Set in memory, so the checksum is valid and only the entry scan
        // can object; the sparse artifact stores G, C and L compressed-row.
        let matrices: [fn(&mut RomArtifact) -> &mut Matrix; 4] =
            [|a| &mut a.g, |a| &mut a.c, |a| &mut a.b, |a| &mut a.l];
        for (matrix, artifact) in (matrices.into_iter()).flat_map(|m| {
            [
                (m, tiny_artifact as fn() -> RomArtifact),
                (m, sparse_artifact),
            ]
        }) {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut a = artifact();
                matrix(&mut a)[(0, 0)] = bad;
                assert!(matches!(
                    RomArtifact::from_bytes(&a.to_bytes()),
                    Err(RomError::Corrupt("non-finite entry in a reduced matrix"))
                ));
            }
        }
    }

    #[test]
    fn json_dump_escapes_the_engine_version_it_read() {
        let mut a = tiny_artifact();
        a.provenance.engine_version = "a\"b\\c\n".into();
        let back = RomArtifact::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(back.provenance.engine_version, "a\"b\\c\n");
        let j = back.to_json();
        assert!(j.contains(r#""engine_version": "a\"b\\c\u000a","#), "{j}");
    }

    #[test]
    fn json_dump_names_the_structure() {
        let j = tiny_artifact().to_json();
        for needle in [
            "\"format_version\": 8",
            "\"certificate\": {\"status\": \"certified\"",
            "\"stability\": \"pass\"",
            "\"reduced_dim\": 3",
            "\"interface_map\": [[1, 0], [2, 1]]",
            "\"certified\": true",
            "\"jomega\"",
            "\"kept_buses\": [1, 2]",
        ] {
            assert!(j.contains(needle), "JSON dump missing {needle}:\n{j}");
        }
    }

    /// The entries of matrix `name` in a JSON dump, row by row.
    fn dumped_entries(json: &str, name: &str) -> Vec<f64> {
        let start = json.find(&format!("\"{name}\": {{\"nrows\"")).unwrap();
        let rows = start + json[start..].find("\"rows\": [").unwrap() + "\"rows\": [".len();
        let end = rows + json[rows..].find("]}").unwrap();
        json[rows..end]
            .split(['[', ']', ',', ' '])
            .filter(|t| !t.is_empty())
            .map(|t| t.parse().unwrap())
            .collect()
    }

    #[test]
    fn json_dump_reproduces_every_matrix_bit() {
        let mut odd = tiny_artifact();
        odd.g[(0, 0)] = -0.0;
        odd.c[(0, 0)] = f64::from_bits(1); // the smallest subnormal
        for a in [tiny_artifact(), odd] {
            let j = a.to_json();
            for (name, m) in [("g", &a.g), ("c", &a.c), ("b", &a.b), ("l", &a.l)] {
                let want: Vec<u64> = (0..m.nrows())
                    .flat_map(|i| m.row(i))
                    .map(|v| v.to_bits())
                    .collect();
                let got: Vec<u64> = dumped_entries(&j, name)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert_eq!(got, want, "matrix {name} in {j}");
            }
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("bdsm_rom_artifact_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.rom");
        let a = tiny_artifact();
        a.save(&path).unwrap();
        let back = RomArtifact::load(&path).unwrap();
        assert!(a.bitwise_eq(&back));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
