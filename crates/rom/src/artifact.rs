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
//! bit pattern (`to_bits`), and a trailing FNV-1a checksum — and is
//! written and read through the shared [`crate::codec`]. Round-trips
//! are **bitwise-exact** — `save` → `load` reproduces every float bit for
//! bit, which is what lets a served artifact answer queries with exactly
//! the numbers the freshly built model would produce. A JSON debug dump
//! ([`RomArtifact::to_json`]) mirrors the same content human-readably.

use crate::codec::{fnv1a, ByteReader, ByteWriter, CodecError};
use crate::server::QueryError;
use bdsm_circuit::{Partition, PartitionStrategy};
use bdsm_core::certify::{
    CertStatus, Certificate, CheckOutcome, ErrorBand, PassivityCertificate, StabilityCertificate,
};
use bdsm_core::engine::EngineReport;
use bdsm_core::krylov::ExpansionPoint;
use bdsm_core::projector::InterfacePolicy;
use bdsm_core::reduce::{CoreError, ReducedModel};
use bdsm_linalg::{LinalgError, Matrix};
use std::fmt;
use std::fmt::Write as _;
use std::path::Path;

/// Leading magic of every artifact file.
pub const MAGIC: [u8; 8] = *b"BDSMROM\0";

/// Format version this build writes. Bump on any layout change; readers
/// accept [`MIN_FORMAT_VERSION`]..=[`FORMAT_VERSION`] and reject
/// everything else loudly.
///
/// History: v1 — initial layout; v2 — provenance gained the partition
/// strategy tag and the user-designated kept-bus list; v3 — provenance
/// gained the typed property certificate (a v2 artifact still loads,
/// reporting `CertStatus::Unknown`).
pub const FORMAT_VERSION: u32 = 3;

/// Oldest format version this build still reads.
pub const MIN_FORMAT_VERSION: u32 = 2;

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
    /// How the bus graph was partitioned into blocks.
    pub partition_strategy: PartitionStrategy,
    /// User-designated kept buses the partition was derived from (empty
    /// when the partition came from a plain strategy run instead of a
    /// reduction set).
    pub kept_buses: Vec<usize>,
    /// Typed property certificate of the reduced pencil (passivity,
    /// stability, error bands). [`CertStatus::Unknown`] for artifacts
    /// written before format v3 and for reports without a Certify run.
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
    /// projection.
    pub state_order: Vec<usize>,
    /// The bus partition behind the block structure.
    pub partition: Partition,
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
    pub fn from_model(rm: &ReducedModel, report: Option<&EngineReport>) -> Self {
        let interface_map = rm.interface_map().to_vec();
        let provenance = Provenance {
            engine_version: bdsm_core::ENGINE_VERSION.to_string(),
            shifts: report.map(|r| r.shifts.clone()).unwrap_or_default(),
            basis_cols: report.map_or(0, |r| r.basis_cols),
            certified: report.is_some_and(|r| r.certified),
            residual_trajectory: report
                .map(|r| r.rounds.iter().map(|x| x.worst_residual).collect())
                .unwrap_or_default(),
            // A `ReducedModel` does not carry its policy, so infer it
            // from the interface map (non-empty ⇔ boundaries preserved).
            // `Reducer::reduce_to_artifact` overwrites this with the
            // actually-configured policy.
            interface_policy: if interface_map.is_empty() {
                InterfacePolicy::Folded
            } else {
                InterfacePolicy::Exact
            },
            // Likewise unknown to a bare `ReducedModel`; the builder path
            // overwrites both with the configured values.
            partition_strategy: PartitionStrategy::Bfs,
            kept_buses: Vec::new(),
            certificate: report.map(|r| r.certificate.clone()).unwrap_or_default(),
        };
        RomArtifact {
            block_sizes: rm.block_sizes.clone(),
            block_dims: rm.projector.block_dims(),
            state_order: rm.state_order.clone(),
            partition: rm.partition.clone(),
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

    /// Serializes to the compact binary format (current version).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_bytes_versioned(FORMAT_VERSION)
    }

    /// Serializes to the **v2** layout (no certificate section) — kept so
    /// compatibility tests can fabricate genuine old-format bytes. The
    /// certificate is simply not persisted; loading the result reports
    /// [`CertStatus::Unknown`].
    #[doc(hidden)]
    pub fn to_bytes_v2(&self) -> Vec<u8> {
        self.to_bytes_versioned(MIN_FORMAT_VERSION)
    }

    fn to_bytes_versioned(&self, version: u32) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.bytes(&MAGIC);
        w.u32(version);
        w.str(&self.provenance.engine_version);
        w.usizes(&self.block_sizes);
        w.usizes(&self.block_dims);
        w.usizes(&self.state_order);
        w.u64s(&self.partition.pack());
        w.usizes(&self.interface_states);
        w.u64(self.interface_map.len() as u64);
        for &(row, col) in &self.interface_map {
            w.u64(row as u64);
            w.u64(col as u64);
        }
        for m in [&self.g, &self.c, &self.b, &self.l] {
            write_matrix(&mut w, m);
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
        // The v3 layout keeps the slot of the retired solver-backend tag
        // (0 = sparse, the only pipeline there is).
        w.u8(0);
        w.u8(match self.provenance.interface_policy {
            InterfacePolicy::Folded => 0,
            InterfacePolicy::Exact => 1,
        });
        w.u8(match self.provenance.partition_strategy {
            PartitionStrategy::Bfs => 0,
            PartitionStrategy::NestedDissection => 1,
        });
        w.usizes(&self.provenance.kept_buses);
        if version >= 3 {
            write_certificate(&mut w, &self.provenance.certificate);
        }
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
        let (mut r, version) = open(bytes)?;
        let engine_version = r.str("engine version")?;
        let block_sizes = r.usizes("block sizes")?;
        let block_dims = r.usizes("block dims")?;
        let state_order = r.usizes("state order")?;
        let partition_words = r.u64s("partition")?;
        let partition = Partition::unpack(&partition_words)
            .map_err(|_| RomError::Corrupt("partition encoding invalid"))?;
        let interface_states = r.usizes("interface states")?;
        let n_map = r.count(16, "interface map")?;
        let mut interface_map = Vec::with_capacity(n_map);
        for _ in 0..n_map {
            let row = r.u64("interface map")? as usize;
            let col = r.u64("interface map")? as usize;
            interface_map.push((row, col));
        }
        let g = read_matrix(&mut r, "G")?;
        let c = read_matrix(&mut r, "C")?;
        let b = read_matrix(&mut r, "B")?;
        let l = read_matrix(&mut r, "L")?;
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
        // Artifacts written while a dense backend existed carry 1 here.
        if r.u8("backend tag")? > 1 {
            return Err(RomError::Corrupt("unknown backend tag"));
        }
        let interface_policy = match r.u8("interface policy tag")? {
            0 => InterfacePolicy::Folded,
            1 => InterfacePolicy::Exact,
            _ => return Err(RomError::Corrupt("unknown interface-policy tag")),
        };
        let partition_strategy = match r.u8("partition strategy tag")? {
            0 => PartitionStrategy::Bfs,
            1 => PartitionStrategy::NestedDissection,
            _ => return Err(RomError::Corrupt("unknown partition-strategy tag")),
        };
        let kept_buses = r.usizes("kept buses")?;
        let certificate = if version >= 3 {
            read_certificate(&mut r)?
        } else {
            Certificate::unknown()
        };
        r.finish()?;

        let artifact = RomArtifact {
            block_sizes,
            block_dims,
            state_order,
            partition,
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
                partition_strategy,
                kept_buses,
                certificate,
            },
        };
        artifact.validate()?;
        Ok(artifact)
    }

    /// Structural consistency of a deserialized artifact: shapes agree
    /// with the block structure and every index is in range.
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
        let num_buses = self.partition.block_of_node.len();
        if self.provenance.kept_buses.iter().any(|&b| b >= num_buses) {
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

    /// Human-readable JSON mirror of the artifact (floats printed with 17
    /// significant digits — enough to reconstruct every bit — but the
    /// binary format remains the round-trip authority).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"format_version\": {FORMAT_VERSION},");
        out.push_str("  \"engine_version\": ");
        bdsm_obs::push_json_string(&mut out, &self.provenance.engine_version);
        out.push_str(",\n");
        let _ = writeln!(out, "  \"full_dim\": {},", self.full_dim());
        let _ = writeln!(out, "  \"reduced_dim\": {},", self.reduced_dim());
        let _ = writeln!(out, "  \"block_sizes\": {:?},", self.block_sizes);
        let _ = writeln!(out, "  \"block_dims\": {:?},", self.block_dims);
        let _ = writeln!(out, "  \"interface_states\": {:?},", self.interface_states);
        let map: Vec<String> = self
            .interface_map
            .iter()
            .map(|&(r, c)| format!("[{r}, {c}]"))
            .collect();
        let _ = writeln!(out, "  \"interface_map\": [{}],", map.join(", "));
        for (name, m) in [
            ("g", &self.g),
            ("c", &self.c),
            ("b", &self.b),
            ("l", &self.l),
        ] {
            let _ = writeln!(out, "  \"{name}\": {},", json_matrix(m));
        }
        let shifts: Vec<String> = self
            .provenance
            .shifts
            .iter()
            .map(|s| match *s {
                ExpansionPoint::Real(v) => format!("{{\"real\": {v:.17e}}}"),
                ExpansionPoint::Jomega(v) => format!("{{\"jomega\": {v:.17e}}}"),
            })
            .collect();
        let resid: Vec<String> = self
            .provenance
            .residual_trajectory
            .iter()
            .map(|r| format!("{r:.17e}"))
            .collect();
        let _ = writeln!(
            out,
            "  \"provenance\": {{\"shifts\": [{}], \"basis_cols\": {}, \
             \"certified\": {}, \"residual_trajectory\": [{}], \
             \"interface_policy\": \"{:?}\", \
             \"partition_strategy\": \"{:?}\", \"kept_buses\": {:?}}},",
            shifts.join(", "),
            self.provenance.basis_cols,
            self.provenance.certified,
            resid.join(", "),
            self.provenance.interface_policy,
            self.provenance.partition_strategy,
            self.provenance.kept_buses,
        );
        let _ = writeln!(
            out,
            "  \"certificate\": {}",
            self.provenance.certificate.to_json()
        );
        out.push('}');
        out.push('\n');
        out
    }

    /// Writes the JSON debug dump next to (or instead of) the binary.
    ///
    /// # Errors
    ///
    /// [`RomError::Io`] on filesystem failure.
    pub fn save_json(&self, path: impl AsRef<Path>) -> Result<(), RomError> {
        Ok(std::fs::write(path, self.to_json())?)
    }
}

fn json_matrix(m: &Matrix) -> String {
    let rows: Vec<String> = (0..m.nrows())
        .map(|i| {
            let cells: Vec<String> = m.row(i).iter().map(|v| format!("{v:.17e}")).collect();
            format!("[{}]", cells.join(", "))
        })
        .collect();
    format!(
        "{{\"nrows\": {}, \"ncols\": {}, \"rows\": [{}]}}",
        m.nrows(),
        m.ncols(),
        rows.join(", ")
    )
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

/// The v3 certificate section, appended after the kept-bus list.
fn write_certificate(w: &mut ByteWriter, cert: &Certificate) {
    w.u8(match cert.status {
        CertStatus::Certified => 0,
        CertStatus::Violated => 1,
        CertStatus::Unknown => 2,
    });
    let p = &cert.passivity;
    w.f64(p.tol);
    w.f64(p.g_sym_min_eig);
    w.f64(p.c_min_eig);
    w.f64s(&p.sample_omegas);
    w.f64s(&p.sample_min_eigs);
    w.usizes(&p.violations);
    w.u8(outcome_tag(p.outcome));
    let s = &cert.stability;
    w.f64(s.lyapunov_margin_g);
    w.f64(s.lyapunov_margin_c);
    match s.spectral_abscissa {
        Some(a) => {
            w.u8(1);
            w.f64(a);
        }
        None => w.u8(0),
    }
    w.u8(outcome_tag(s.outcome));
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
    let g_sym_min_eig = r.f64("passivity g margin")?;
    let c_min_eig = r.f64("passivity c margin")?;
    let sample_omegas = r.f64s("passivity sample omegas")?;
    let sample_min_eigs = r.f64s("passivity sample eigs")?;
    let violations = r.usizes("passivity violations")?;
    if sample_min_eigs.len() != sample_omegas.len() {
        return Err(RomError::Corrupt("passivity sample lists disagree"));
    }
    if violations.iter().any(|&i| i >= sample_omegas.len()) {
        return Err(RomError::Corrupt("passivity violation index out of range"));
    }
    let passivity_outcome = outcome_from_tag(r.u8("passivity outcome")?)?;
    let lyapunov_margin_g = r.f64("stability g margin")?;
    let lyapunov_margin_c = r.f64("stability c margin")?;
    let spectral_abscissa = match r.u8("spectral abscissa tag")? {
        0 => None,
        1 => Some(r.f64("spectral abscissa")?),
        _ => return Err(RomError::Corrupt("spectral-abscissa tag not boolean")),
    };
    let stability_outcome = outcome_from_tag(r.u8("stability outcome")?)?;
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
            g_sym_min_eig,
            c_min_eig,
            sample_omegas,
            sample_min_eigs,
            violations,
            outcome: passivity_outcome,
        },
        stability: StabilityCertificate {
            lyapunov_margin_g,
            lyapunov_margin_c,
            spectral_abscissa,
            outcome: stability_outcome,
        },
        error_bands,
        status,
    })
}

fn write_matrix(w: &mut ByteWriter, m: &Matrix) {
    w.u64(m.nrows() as u64);
    w.u64(m.ncols() as u64);
    m.as_slice().iter().for_each(|&v| w.f64(v));
}

fn read_matrix(r: &mut ByteReader<'_>, what: &'static str) -> Result<Matrix, RomError> {
    let (nrows, ncols) = r.dims(8, what)?;
    let data: Vec<f64> = r.words(nrows * ncols, what)?.map(f64::from_bits).collect();
    // The checksum guards against accidents, not against a producer bug,
    // and a NaN entry would be served as `Ok(NaN)`. `&`, not `all`: without
    // the early exit the scan vectorises (0.08 vs 0.15 ms on a q = 360 ROM).
    if !data.iter().fold(true, |ok, v| ok & v.is_finite()) {
        return Err(RomError::Corrupt("non-finite entry in a reduced matrix"));
    }
    Matrix::from_vec(nrows, ncols, data)
        .map_err(|_| RomError::Corrupt("matrix extents inconsistent"))
}

/// Verifies magic, version and checksum, returning a reader positioned at
/// the first payload section (and ending before the trailing digest) plus
/// the format version the file declares.
fn open(buf: &[u8]) -> Result<(ByteReader<'_>, u32), RomError> {
    let mut r = ByteReader::new(buf);
    if r.bytes(MAGIC.len(), "magic")? != MAGIC {
        return Err(RomError::BadMagic);
    }
    let version = r.u32("format version")?;
    if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&version) {
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
    if fnv1a(body).to_le_bytes() != stored {
        return Err(RomError::Corrupt("checksum mismatch"));
    }
    Ok((ByteReader::new(&body[HEADER_LEN..]), version))
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
            partition: Partition {
                block_of_node: vec![0, 0, 1, 1],
                blocks: vec![vec![0, 1], vec![2, 3]],
                interface: vec![1, 2],
            },
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
                partition_strategy: PartitionStrategy::NestedDissection,
                kept_buses: vec![1, 2],
                certificate: tiny_certificate(),
            },
        }
    }

    fn tiny_certificate() -> Certificate {
        Certificate {
            passivity: PassivityCertificate {
                tol: 1e-8,
                g_sym_min_eig: 0.125,
                c_min_eig: 1e-3,
                sample_omegas: vec![1.0e2, 4.5e2, 2.0e3],
                sample_min_eigs: vec![0.5, 0.25, -0.0],
                violations: vec![2],
                outcome: CheckOutcome::Pass,
            },
            stability: StabilityCertificate {
                lyapunov_margin_g: 0.125,
                lyapunov_margin_c: 1e-3,
                spectral_abscissa: Some(-42.5),
                outcome: CheckOutcome::Pass,
            },
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

    #[test]
    fn version_mismatch_is_typed() {
        let mut bytes = tiny_artifact().to_bytes();
        bytes[8] = FORMAT_VERSION as u8 + 1;
        assert!(matches!(
            RomArtifact::from_bytes(&bytes),
            Err(RomError::UnsupportedVersion { found, supported })
                if found == FORMAT_VERSION + 1 && supported == FORMAT_VERSION
        ));
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
    fn v2_bytes_still_load_with_unknown_certificate() {
        let a = tiny_artifact();
        let old = a.to_bytes_v2();
        assert_eq!(old[8], MIN_FORMAT_VERSION as u8);
        let back = RomArtifact::from_bytes(&old).unwrap();
        // Everything except the (un-persisted) certificate survives.
        assert_eq!(back.provenance.certificate, Certificate::unknown());
        assert_eq!(
            back.provenance.certificate.status,
            bdsm_core::certify::CertStatus::Unknown
        );
        let mut expect = a.clone();
        expect.provenance.certificate = Certificate::unknown();
        assert_eq!(back, expect);
        // Re-saving an upgraded artifact writes the current version.
        assert_eq!(back.to_bytes()[8], FORMAT_VERSION as u8);
    }

    #[test]
    fn corrupt_certificate_tags_are_typed() {
        let a = tiny_artifact();
        let clean = a.to_bytes();
        // The status byte sits right after the kept-bus section: find it
        // by serializing v2 (same prefix) and diffing lengths.
        let v2_len = a.to_bytes_v2().len();
        let status_pos = v2_len - 8; // v2 ends with the 8-byte checksum
        let mut bytes = clean.clone();
        bytes[status_pos] = 9; // not a valid CertStatus tag
        let patched = restamp_checksum(bytes);
        assert!(matches!(
            RomArtifact::from_bytes(&patched),
            Err(RomError::Corrupt("unknown certificate-status tag"))
        ));
    }

    #[test]
    fn retired_backend_slot_accepts_both_old_tags_only() {
        // After the slot come the policy and strategy tags (1 + 1), the two
        // kept buses (8 + 2·8) and, in the v2 layout, the checksum (8).
        let a = tiny_artifact();
        let slot = a.to_bytes_v2().len() - 8 - 24 - 2 - 1;
        let patched = |tag: u8| {
            let mut bytes = a.to_bytes();
            assert_eq!(bytes[slot], 0, "the writer stamps the constant 0");
            bytes[slot] = tag;
            RomArtifact::from_bytes(&restamp_checksum(bytes))
        };
        assert_eq!(patched(1).unwrap(), a);
        assert!(matches!(
            patched(2),
            Err(RomError::Corrupt("unknown backend tag"))
        ));
    }

    fn restamp_checksum(mut bytes: Vec<u8>) -> Vec<u8> {
        let end = bytes.len() - 8;
        let sum = fnv1a(&bytes[..end]);
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
    }

    #[test]
    fn non_finite_reduced_entries_are_corrupt() {
        // Set in memory, so the checksum is valid and only the entry scan
        // can object.
        let matrices: [fn(&mut RomArtifact) -> &mut Matrix; 4] =
            [|a| &mut a.g, |a| &mut a.c, |a| &mut a.b, |a| &mut a.l];
        for matrix in matrices {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut a = tiny_artifact();
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
            "\"format_version\": 3",
            "\"certificate\": {\"status\": \"certified\"",
            "\"spectral_abscissa\": -4.25e1",
            "\"reduced_dim\": 3",
            "\"interface_map\": [[1, 0], [2, 1]]",
            "\"certified\": true",
            "\"jomega\"",
            "\"partition_strategy\": \"NestedDissection\"",
            "\"kept_buses\": [1, 2]",
        ] {
            assert!(j.contains(needle), "JSON dump missing {needle}:\n{j}");
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
        a.save_json(dir.join("tiny.json")).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
