//! The cluster wire protocol: length-prefixed binary frames on std TCP.
//!
//! Frames are written and read through the artifact format's codec
//! ([`bdsm_rom::codec`]) — magic bytes, a version word, little-endian
//! integers, `f64` as IEEE bit patterns (bitwise exactness survives the
//! wire by construction), an FNV-1a checksum, and alloc-bounded reads (a
//! length prefix may never demand more bytes than the frame actually
//! carries, so a hostile or corrupt length cannot trigger a huge
//! allocation). Every malformation maps to a typed [`WireError`]; decoding
//! never panics.
//!
//! ```text
//! ┌──────────┬───────────┬──────┬─────────────┬─────────┬──────────┐
//! │ magic 8B │ version 4B│ kind │ payload len │ payload │ FNV-1a 8B│
//! │ BDSMWP01 │ u32 LE    │ 1B   │ u64 LE      │ ...     │ u64 LE   │
//! └──────────┴───────────┴──────┴─────────────┴─────────┴──────────┘
//! ```
//!
//! The checksum covers header + payload. Request kinds occupy 1–6,
//! response kinds 129–135 (high bit set), so a stream desync surfaces
//! as [`WireError::UnknownKind`] rather than a misparse.

use bdsm_core::transfer::CMatrix;
use bdsm_linalg::Complex64;
use bdsm_rom::codec::{fnv1a, ByteReader, ByteWriter, CodecError};
use std::io::{Read, Write};

/// First eight bytes of every frame.
pub const MAGIC: [u8; 8] = *b"BDSMWP01";
/// Protocol version this build speaks.
pub const VERSION: u32 = 1;
/// Hard upper bound on a frame payload (bytes) — caps the allocation a
/// length prefix can demand.
pub const MAX_PAYLOAD: u64 = 256 * 1024 * 1024;
/// Bytes before the payload: magic + version + kind + payload length.
pub const HEADER_LEN: usize = 8 + 4 + 1 + 8;

/// Why a frame failed to read or decode.
#[derive(Debug)]
#[non_exhaustive]
pub enum WireError {
    /// Socket/stream failure (includes timeouts).
    Io(std::io::Error),
    /// The stream does not start with [`MAGIC`].
    BadMagic,
    /// The peer speaks a different protocol version.
    UnsupportedVersion {
        /// Version in the frame.
        found: u32,
        /// Version this build speaks.
        supported: u32,
    },
    /// A payload length exceeded [`MAX_PAYLOAD`].
    Oversized {
        /// The declared length.
        len: u64,
        /// The bound it broke.
        max: u64,
    },
    /// The frame ended before a field was complete.
    Truncated {
        /// Which field was being read.
        while_reading: &'static str,
    },
    /// The checksum did not match the frame body.
    ChecksumMismatch {
        /// Checksum recomputed over the received bytes.
        expected: u64,
        /// Checksum the frame carried.
        found: u64,
    },
    /// Structurally invalid payload content.
    Corrupt(&'static str),
    /// A frame kind outside the protocol.
    UnknownKind(u8),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire io error: {e}"),
            WireError::BadMagic => write!(f, "not a BDSM wire frame (bad magic)"),
            WireError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "wire version {found} unsupported (this build: {supported})"
                )
            }
            WireError::Oversized { len, max } => {
                write!(
                    f,
                    "frame payload of {len} bytes exceeds the {max}-byte bound"
                )
            }
            WireError::Truncated { while_reading } => {
                write!(f, "frame truncated while reading {while_reading}")
            }
            WireError::ChecksumMismatch { expected, found } => write!(
                f,
                "frame checksum mismatch (computed {expected:#018x}, carried {found:#018x})"
            ),
            WireError::Corrupt(what) => write!(f, "corrupt frame payload: {what}"),
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated { while_reading } => WireError::Truncated { while_reading },
            CodecError::Overflow { while_reading } => WireError::Corrupt(while_reading),
            CodecError::Corrupt(what) => WireError::Corrupt(what),
        }
    }
}

// ---------------------------------------------------------------------------
// Frame
// ---------------------------------------------------------------------------

/// One length-prefixed, checksummed protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Protocol kind byte (see [`Request`] / [`Response`] kinds).
    pub kind: u8,
    /// Raw payload bytes.
    pub payload: Vec<u8>,
}

/// Validates a frame header — magic, version, payload bound — and returns
/// the kind byte and the payload length it declares.
fn parse_header(header: &[u8]) -> Result<(u8, usize), WireError> {
    let mut r = ByteReader::new(header);
    if r.bytes(MAGIC.len(), "frame header")? != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = r.u32("frame header")?;
    if version != VERSION {
        return Err(WireError::UnsupportedVersion {
            found: version,
            supported: VERSION,
        });
    }
    let kind = r.u8("frame header")?;
    let len = r.u64("frame header")?;
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized {
            len,
            max: MAX_PAYLOAD,
        });
    }
    Ok((kind, len as usize))
}

impl Frame {
    /// Serializes the frame to its wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.bytes(&MAGIC);
        w.u32(VERSION);
        w.u8(self.kind);
        w.u64(self.payload.len() as u64);
        w.bytes(&self.payload);
        w.into_checksummed()
    }

    /// Decodes exactly one frame from a byte buffer; trailing bytes are
    /// [`WireError::Corrupt`] (a framed stream never leaves residue).
    ///
    /// # Errors
    ///
    /// Any [`WireError`] variant except `Io`.
    pub fn decode(bytes: &[u8]) -> Result<Frame, WireError> {
        let (kind, len) = parse_header(bytes)?;
        let body_end = HEADER_LEN + len;
        if bytes.len() < body_end + 8 {
            return Err(WireError::Truncated {
                while_reading: "frame payload",
            });
        }
        if bytes.len() > body_end + 8 {
            return Err(WireError::Corrupt("trailing bytes after frame"));
        }
        let (body, sum) = bytes.split_at(body_end);
        let carried = u64::from_le_bytes(sum.try_into().expect("8 checksum bytes"));
        let computed = fnv1a(body);
        if carried != computed {
            return Err(WireError::ChecksumMismatch {
                expected: computed,
                found: carried,
            });
        }
        Ok(Frame {
            kind,
            payload: body[HEADER_LEN..].to_vec(),
        })
    }

    /// Reads one frame off a stream (blocking; honors the stream's read
    /// timeout). The header is validated before the payload it declares
    /// is allocated.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] on stream failure, otherwise as
    /// [`decode`](Self::decode).
    pub fn read_from(r: &mut impl Read) -> Result<Frame, WireError> {
        let mut bytes = vec![0u8; HEADER_LEN];
        r.read_exact(&mut bytes)?;
        let (_, len) = parse_header(&bytes)?;
        bytes.resize(HEADER_LEN + len + 8, 0);
        r.read_exact(&mut bytes[HEADER_LEN..])?;
        Frame::decode(&bytes)
    }

    /// Writes the frame to a stream and flushes it.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] on stream failure.
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), WireError> {
        w.write_all(&self.encode())?;
        w.flush()?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Complex fields on top of the shared codec
// ---------------------------------------------------------------------------

fn put_complex(w: &mut ByteWriter, v: Complex64) {
    w.f64(v.re);
    w.f64(v.im);
}

fn put_matrix(w: &mut ByteWriter, m: &CMatrix) {
    w.u64(m.nrows() as u64);
    w.u64(m.ncols() as u64);
    for i in 0..m.nrows() {
        for j in 0..m.ncols() {
            put_complex(w, m[(i, j)]);
        }
    }
}

fn get_complex(r: &mut ByteReader<'_>, what: &'static str) -> Result<Complex64, CodecError> {
    Ok(Complex64 {
        re: r.f64(what)?,
        im: r.f64(what)?,
    })
}

fn get_matrix(r: &mut ByteReader<'_>, what: &'static str) -> Result<CMatrix, CodecError> {
    let (nrows, ncols) = r.dims(16, what)?;
    let mut m = CMatrix::zeros(nrows, ncols);
    for i in 0..nrows {
        for j in 0..ncols {
            m[(i, j)] = get_complex(r, what)?;
        }
    }
    Ok(m)
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// A query the router sends to one shard. Model ids are cluster-level
/// (the [`crate::ShardPlan`] keyspace), mapped to local `RomId`s by the
/// receiving node.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Full transfer-matrix sweep over the listed frequencies.
    Sweep {
        /// Cluster model id.
        model: u64,
        /// Angular frequencies (rad/s).
        omegas: Vec<f64>,
    },
    /// One port pair's response over the listed frequencies.
    Port {
        /// Cluster model id.
        model: u64,
        /// Output port.
        out_port: u64,
        /// Input port.
        in_port: u64,
        /// Angular frequencies (rad/s).
        omegas: Vec<f64>,
    },
    /// One backward-Euler transient (per-step input vectors).
    Transient {
        /// Cluster model id.
        model: u64,
        /// Time step.
        h: f64,
        /// Input vector per step.
        inputs: Vec<Vec<f64>>,
    },
    /// The shard's `ServerMetricsSnapshot` JSON (for scrapes/audit).
    Metrics,
    /// Graceful shutdown of the node.
    Shutdown,
}

const KIND_PING: u8 = 1;
const KIND_SWEEP: u8 = 2;
const KIND_PORT: u8 = 3;
const KIND_TRANSIENT: u8 = 4;
const KIND_METRICS: u8 = 5;
const KIND_SHUTDOWN: u8 = 6;

impl Request {
    /// Encodes the request as a wire frame.
    pub fn to_frame(&self) -> Frame {
        let mut w = ByteWriter::new();
        let kind = match self {
            Request::Ping => KIND_PING,
            Request::Sweep { model, omegas } => {
                w.u64(*model);
                w.f64s(omegas);
                KIND_SWEEP
            }
            Request::Port {
                model,
                out_port,
                in_port,
                omegas,
            } => {
                w.u64(*model);
                w.u64(*out_port);
                w.u64(*in_port);
                w.f64s(omegas);
                KIND_PORT
            }
            Request::Transient { model, h, inputs } => {
                w.u64(*model);
                w.f64(*h);
                w.u64(inputs.len() as u64);
                for row in inputs {
                    w.f64s(row);
                }
                KIND_TRANSIENT
            }
            Request::Metrics => KIND_METRICS,
            Request::Shutdown => KIND_SHUTDOWN,
        };
        Frame {
            kind,
            payload: w.into_bytes(),
        }
    }

    /// Decodes a request frame.
    ///
    /// # Errors
    ///
    /// [`WireError::UnknownKind`] for a non-request kind, otherwise
    /// truncation/corruption errors from the payload.
    pub fn from_frame(frame: &Frame) -> Result<Request, WireError> {
        let mut r = ByteReader::new(&frame.payload);
        let req = match frame.kind {
            KIND_PING => Request::Ping,
            KIND_SWEEP => Request::Sweep {
                model: r.u64("sweep model")?,
                omegas: r.f64s("sweep frequencies")?,
            },
            KIND_PORT => Request::Port {
                model: r.u64("port model")?,
                out_port: r.u64("output port")?,
                in_port: r.u64("input port")?,
                omegas: r.f64s("port frequencies")?,
            },
            KIND_TRANSIENT => {
                let model = r.u64("transient model")?;
                let h = r.f64("transient step")?;
                let steps = r.count(8, "transient steps")?;
                let mut inputs = Vec::with_capacity(steps);
                for _ in 0..steps {
                    inputs.push(r.f64s("transient input row")?);
                }
                Request::Transient { model, h, inputs }
            }
            KIND_METRICS => Request::Metrics,
            KIND_SHUTDOWN => Request::Shutdown,
            k => return Err(WireError::UnknownKind(k)),
        };
        r.finish()?;
        Ok(req)
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Coarse classification of a remote failure, carried by
/// [`Response::Error`]; mirrors the server's `RomError` families without
/// shipping the full enum over the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RemoteErrorKind {
    /// Input validation / envelope refusal (`RomError::Query`).
    Query,
    /// The shard does not serve the requested model.
    UnknownModel,
    /// Numerical failure (singular shift, solver breakdown).
    Numerical,
    /// A contained panic on the shard.
    Internal,
    /// Artifact/persistence failure on the shard.
    Artifact,
    /// Anything else.
    Other,
}

impl RemoteErrorKind {
    fn code(self) -> u8 {
        match self {
            RemoteErrorKind::Query => 1,
            RemoteErrorKind::UnknownModel => 2,
            RemoteErrorKind::Numerical => 3,
            RemoteErrorKind::Internal => 4,
            RemoteErrorKind::Artifact => 5,
            RemoteErrorKind::Other => 6,
        }
    }

    fn from_code(c: u8) -> Result<Self, WireError> {
        Ok(match c {
            1 => RemoteErrorKind::Query,
            2 => RemoteErrorKind::UnknownModel,
            3 => RemoteErrorKind::Numerical,
            4 => RemoteErrorKind::Internal,
            5 => RemoteErrorKind::Artifact,
            6 => RemoteErrorKind::Other,
            _ => return Err(WireError::Corrupt("unknown remote error kind")),
        })
    }
}

/// Provenance stamp every shard reply opens with: which shard computed
/// it, under which placement plan — the audit trail the router verifies
/// against its own plan digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyStamp {
    /// The responding shard's index in the plan.
    pub shard: u32,
    /// [`crate::ShardPlan::digest`] of the plan the shard was launched
    /// with.
    pub plan_digest: u64,
}

/// A shard's answer to a [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Liveness answer.
    Pong(ReplyStamp),
    /// Transfer matrices, one per requested frequency, request order.
    Sweep(ReplyStamp, Vec<CMatrix>),
    /// Port-pair samples, one per requested frequency, request order.
    Port(ReplyStamp, Vec<Complex64>),
    /// Transient outputs, one vector per step.
    Transient(ReplyStamp, Vec<Vec<f64>>),
    /// The shard server's metrics snapshot as JSON.
    Metrics(ReplyStamp, String),
    /// The request failed on the shard.
    Error(ReplyStamp, RemoteErrorKind, String),
    /// Acknowledges a [`Request::Shutdown`].
    ShuttingDown(ReplyStamp),
}

const KIND_PONG: u8 = 129;
const KIND_SWEEP_REPLY: u8 = 130;
const KIND_PORT_REPLY: u8 = 131;
const KIND_TRANSIENT_REPLY: u8 = 132;
const KIND_METRICS_REPLY: u8 = 133;
const KIND_ERROR_REPLY: u8 = 134;
const KIND_SHUTTING_DOWN: u8 = 135;

impl Response {
    /// The provenance stamp common to every response.
    pub fn stamp(&self) -> ReplyStamp {
        match self {
            Response::Pong(s)
            | Response::Sweep(s, _)
            | Response::Port(s, _)
            | Response::Transient(s, _)
            | Response::Metrics(s, _)
            | Response::Error(s, _, _)
            | Response::ShuttingDown(s) => *s,
        }
    }

    /// Encodes the response as a wire frame.
    pub fn to_frame(&self) -> Frame {
        let mut w = ByteWriter::new();
        let stamp = self.stamp();
        w.u32(stamp.shard);
        w.u64(stamp.plan_digest);
        let kind = match self {
            Response::Pong(_) => KIND_PONG,
            Response::Sweep(_, mats) => {
                w.u64(mats.len() as u64);
                for m in mats {
                    put_matrix(&mut w, m);
                }
                KIND_SWEEP_REPLY
            }
            Response::Port(_, samples) => {
                w.u64(samples.len() as u64);
                for &s in samples {
                    put_complex(&mut w, s);
                }
                KIND_PORT_REPLY
            }
            Response::Transient(_, rows) => {
                w.u64(rows.len() as u64);
                for row in rows {
                    w.f64s(row);
                }
                KIND_TRANSIENT_REPLY
            }
            Response::Metrics(_, json) => {
                w.str(json);
                KIND_METRICS_REPLY
            }
            Response::Error(_, kind, msg) => {
                w.u8(kind.code());
                w.str(msg);
                KIND_ERROR_REPLY
            }
            Response::ShuttingDown(_) => KIND_SHUTTING_DOWN,
        };
        Frame {
            kind,
            payload: w.into_bytes(),
        }
    }

    /// Decodes a response frame.
    ///
    /// # Errors
    ///
    /// [`WireError::UnknownKind`] for a non-response kind, otherwise
    /// truncation/corruption errors from the payload.
    pub fn from_frame(frame: &Frame) -> Result<Response, WireError> {
        // Kind before stamp: an unknown kind must not be masked by
        // whatever its payload happens (not) to contain.
        if !(KIND_PONG..=KIND_SHUTTING_DOWN).contains(&frame.kind) {
            return Err(WireError::UnknownKind(frame.kind));
        }
        let mut r = ByteReader::new(&frame.payload);
        let stamp = ReplyStamp {
            shard: r.u32("reply shard")?,
            plan_digest: r.u64("reply plan digest")?,
        };
        let resp = match frame.kind {
            KIND_PONG => Response::Pong(stamp),
            KIND_SWEEP_REPLY => {
                // 16 bytes is the floor per matrix (its two dimension
                // words), which bounds the Vec allocation.
                let n = r.count(16, "sweep reply matrices")?;
                let mut mats = Vec::with_capacity(n);
                for _ in 0..n {
                    mats.push(get_matrix(&mut r, "sweep reply matrix")?);
                }
                Response::Sweep(stamp, mats)
            }
            KIND_PORT_REPLY => {
                let n = r.count(16, "port reply samples")?;
                let mut samples = Vec::with_capacity(n);
                for _ in 0..n {
                    samples.push(get_complex(&mut r, "port reply sample")?);
                }
                Response::Port(stamp, samples)
            }
            KIND_TRANSIENT_REPLY => {
                let n = r.count(8, "transient reply rows")?;
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    rows.push(r.f64s("transient reply row")?);
                }
                Response::Transient(stamp, rows)
            }
            KIND_METRICS_REPLY => Response::Metrics(stamp, r.str("metrics json")?),
            KIND_ERROR_REPLY => {
                let kind = RemoteErrorKind::from_code(r.u8("remote error kind")?)?;
                let msg = r.str("remote error message")?;
                Response::Error(stamp, kind, msg)
            }
            KIND_SHUTTING_DOWN => Response::ShuttingDown(stamp),
            k => return Err(WireError::UnknownKind(k)),
        };
        r.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp() -> ReplyStamp {
        ReplyStamp {
            shard: 2,
            plan_digest: 0xdead_beef_cafe_f00d,
        }
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Ping,
            Request::Sweep {
                model: 7,
                omegas: vec![50.0, 4.0e3, -0.0],
            },
            Request::Port {
                model: 7,
                out_port: 1,
                in_port: 0,
                omegas: vec![100.0],
            },
            Request::Transient {
                model: 3,
                h: 1e-4,
                inputs: vec![vec![1.0, 2.0], vec![0.5, -0.5]],
            },
            Request::Metrics,
            Request::Shutdown,
        ];
        for req in reqs {
            let frame = req.to_frame();
            let bytes = frame.encode();
            let back = Frame::decode(&bytes).unwrap();
            assert_eq!(back, frame);
            assert_eq!(Request::from_frame(&back).unwrap(), req);
            // Stream path agrees with the buffer path.
            let mut cursor = std::io::Cursor::new(bytes);
            assert_eq!(Frame::read_from(&mut cursor).unwrap(), frame);
        }
    }

    #[test]
    fn responses_round_trip_bitwise() {
        let mut m = CMatrix::zeros(2, 3);
        // Awkward bit patterns: negative zero, subnormals, huge values.
        m[(0, 0)] = Complex64 {
            re: -0.0,
            im: 1.0e-310,
        };
        m[(1, 2)] = Complex64 {
            re: 1.0e300,
            im: -3.5,
        };
        let resps = [
            Response::Pong(stamp()),
            Response::Sweep(stamp(), vec![m.clone(), CMatrix::zeros(1, 1)]),
            Response::Port(stamp(), vec![Complex64 { re: 0.1, im: -0.2 }]),
            Response::Transient(stamp(), vec![vec![1.0], vec![2.0]]),
            Response::Metrics(stamp(), "{\"cache\": {}}".to_string()),
            Response::Error(stamp(), RemoteErrorKind::Query, "bad ω".to_string()),
            Response::ShuttingDown(stamp()),
        ];
        for resp in resps {
            let frame = resp.to_frame();
            let back = Response::from_frame(&Frame::decode(&frame.encode()).unwrap()).unwrap();
            assert_eq!(back, resp);
            assert_eq!(back.stamp(), stamp());
        }
        // Bitwise: -0.0 survives (PartialEq would conflate it with 0.0).
        let frame = Response::Sweep(stamp(), vec![m]).to_frame();
        let Response::Sweep(_, mats) =
            Response::from_frame(&Frame::decode(&frame.encode()).unwrap()).unwrap()
        else {
            panic!("wrong kind");
        };
        assert_eq!(mats[0][(0, 0)].re.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn malformed_frames_are_typed() {
        let good = Request::Sweep {
            model: 1,
            omegas: vec![1.0, 2.0],
        }
        .to_frame()
        .encode();
        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(matches!(Frame::decode(&bad), Err(WireError::BadMagic)));
        // Bad version.
        let mut bad = good.clone();
        bad[8] = 99;
        assert!(matches!(
            Frame::decode(&bad),
            Err(WireError::UnsupportedVersion { found: 99, .. })
        ));
        // Oversized length prefix never allocates.
        let mut bad = good.clone();
        bad[13..21].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bad),
            Err(WireError::Oversized { .. })
        ));
        // Truncation.
        assert!(matches!(
            Frame::decode(&good[..good.len() - 3]),
            Err(WireError::Truncated { .. })
        ));
        // Trailing garbage.
        let mut bad = good.clone();
        bad.push(0);
        assert!(matches!(Frame::decode(&bad), Err(WireError::Corrupt(_))));
        // Payload flip → checksum mismatch.
        let mut bad = good.clone();
        bad[HEADER_LEN] ^= 0x01;
        assert!(matches!(
            Frame::decode(&bad),
            Err(WireError::ChecksumMismatch { .. })
        ));
        // Unknown kind (checksum recomputed so it decodes to the kind check).
        let reframed = Frame {
            kind: 77,
            payload: vec![],
        };
        let frame = Frame::decode(&reframed.encode()).unwrap();
        assert!(matches!(
            Request::from_frame(&frame),
            Err(WireError::UnknownKind(77))
        ));
        assert!(matches!(
            Response::from_frame(&frame),
            Err(WireError::UnknownKind(77))
        ));
    }

    #[test]
    fn inner_list_bounds_are_enforced() {
        // A sweep whose frequency count claims more elements than bytes.
        let mut w_payload = Vec::new();
        w_payload.extend_from_slice(&1u64.to_le_bytes()); // model
        w_payload.extend_from_slice(&1000u64.to_le_bytes()); // n = 1000, no data
        let frame = Frame {
            kind: 2,
            payload: w_payload,
        };
        let frame = Frame::decode(&frame.encode()).unwrap();
        assert!(matches!(
            Request::from_frame(&frame),
            Err(WireError::Truncated { .. })
        ));
    }
}
