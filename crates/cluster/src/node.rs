//! `ShardNode`: one shard process — a [`RomServer`] behind a TCP
//! listener speaking the [`crate::wire`] protocol.
//!
//! The node is deliberately thin: it maps cluster model ids to local
//! [`RomId`]s, decodes one request per frame, calls the corresponding
//! `RomServer` query (which already contains panics, validates inputs,
//! and enforces the certified envelope), and stamps every reply with its
//! shard index and plan digest. All numerical work — and therefore all
//! bitwise determinism — lives in the server; the wire layer moves bit
//! patterns (`f64::to_bits`) and cannot perturb results.
//!
//! One OS thread accepts connections; each connection gets its own
//! thread and processes requests sequentially (pipelining across
//! connections, ordering within one). Fault sites:
//! `cluster.node.accept` fires in the accept loop, and
//! `cluster.node.request` fires per request *outside* the server's panic
//! containment — an armed fault kills the connection thread, which the
//! client observes as a connection drop (the retry/failover path).

use crate::wire::{Frame, RemoteErrorKind, ReplyStamp, Request, Response, WireError};
use bdsm_rom::{RomError, RomId, RomServer};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How a [`ShardNode`] identifies itself and times out its sockets.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// This node's shard index in the cluster plan.
    pub shard_id: u32,
    /// [`crate::ShardPlan::digest`] of the plan the cluster runs under;
    /// stamped into every reply for audit.
    pub plan_digest: u64,
    /// Per-socket read/write timeout — a wedged peer can stall one
    /// connection thread for at most this long.
    pub io_timeout: Duration,
}

/// A running shard: a [`RomServer`] serving the wire protocol on a local
/// TCP address. Shuts down gracefully on [`shutdown`](Self::shutdown) or
/// drop.
pub struct ShardNode {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
}

struct NodeInner {
    server: RomServer,
    models: HashMap<u64, RomId>,
    cfg: NodeConfig,
    stop: Arc<AtomicBool>,
}

impl ShardNode {
    /// Binds `bind_addr` (use port 0 for an OS-assigned port) and starts
    /// serving `server`'s models under the given cluster ids.
    ///
    /// # Errors
    ///
    /// `std::io::Error` when the listener cannot bind.
    pub fn spawn(
        server: RomServer,
        models: Vec<(u64, RomId)>,
        cfg: NodeConfig,
        bind_addr: &str,
    ) -> io::Result<ShardNode> {
        let listener = TcpListener::bind(bind_addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let inner = Arc::new(NodeInner {
            server,
            models: models.into_iter().collect(),
            cfg,
            stop: Arc::clone(&stop),
        });
        let accept_handle = std::thread::Builder::new()
            .name(format!("bdsm-shard-{}", inner.cfg.shard_id))
            .spawn(move || accept_loop(listener, inner))?;
        Ok(ShardNode {
            addr,
            stop,
            accept_handle: Some(accept_handle),
        })
    }

    /// The address the node is serving on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, unblocks the accept loop, and joins it. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock a blocked `accept` with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ShardNode {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, inner: Arc<NodeInner>) {
    loop {
        // Armed fault here kills the accept thread: the node stops taking
        // new connections — the client sees `Unavailable` after retries.
        bdsm_obs::faultpoint!("cluster.node.accept");
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if inner.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        let inner = Arc::clone(&inner);
        let _ = std::thread::Builder::new()
            .name(format!("bdsm-shard-{}-conn", inner.cfg.shard_id))
            .spawn(move || connection_loop(stream, inner));
    }
}

fn connection_loop(mut stream: TcpStream, inner: Arc<NodeInner>) {
    let _ = stream.set_read_timeout(Some(inner.cfg.io_timeout));
    let _ = stream.set_write_timeout(Some(inner.cfg.io_timeout));
    let _ = stream.set_nodelay(true);
    let stamp = ReplyStamp {
        shard: inner.cfg.shard_id,
        plan_digest: inner.cfg.plan_digest,
    };
    loop {
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        let frame = match Frame::read_from(&mut stream) {
            Ok(f) => f,
            // Peer hung up or sent garbage: try to say why, then drop the
            // connection — a desynced stream cannot be re-framed.
            Err(WireError::Io(_)) => return,
            Err(e) => {
                let reply = Response::Error(stamp, RemoteErrorKind::Other, format!("{e}"));
                let _ = reply.to_frame().write_to(&mut stream);
                return;
            }
        };
        let request = match Request::from_frame(&frame) {
            Ok(r) => r,
            Err(e) => {
                let reply = Response::Error(stamp, RemoteErrorKind::Other, format!("{e}"));
                let _ = reply.to_frame().write_to(&mut stream);
                return;
            }
        };
        // Armed fault here panics the connection thread *outside* the
        // server's containment: the peer sees a dropped connection
        // mid-request — the nastiest failure shape the router handles.
        bdsm_obs::faultpoint!("cluster.node.request");
        let shutting_down = matches!(request, Request::Shutdown);
        let reply = handle(&inner, stamp, request);
        if reply.to_frame().write_to(&mut stream).is_err() {
            return;
        }
        if shutting_down {
            inner.stop.store(true, Ordering::SeqCst);
            // Unblock the accept loop so it observes the stop flag.
            let _ = TcpStream::connect(stream.local_addr().unwrap_or_else(|_| {
                // Loopback fallback; failing to unblock only delays exit
                // until the next incoming connection.
                SocketAddr::from(([127, 0, 0, 1], 0))
            }));
            return;
        }
    }
}

fn handle(inner: &NodeInner, stamp: ReplyStamp, request: Request) -> Response {
    let _span = bdsm_obs::span!("cluster.node.request", shard = stamp.shard as u64);
    match request {
        Request::Ping => Response::Pong(stamp),
        Request::Metrics => Response::Metrics(stamp, inner.server.metrics().to_json()),
        Request::Shutdown => Response::ShuttingDown(stamp),
        Request::Sweep { model, omegas } => {
            match lookup(inner, model).and_then(|id| inner.server.transfer_sweep(id, &omegas)) {
                Ok(mats) => Response::Sweep(stamp, mats),
                Err(e) => error_reply(stamp, &e),
            }
        }
        Request::Port {
            model,
            out_port,
            in_port,
            omegas,
        } => match lookup(inner, model).and_then(|id| {
            inner
                .server
                .port_response(id, out_port as usize, in_port as usize, &omegas)
        }) {
            Ok(samples) => Response::Port(stamp, samples),
            Err(e) => error_reply(stamp, &e),
        },
        Request::Transient { model, h, inputs } => {
            match lookup(inner, model).and_then(|id| inner.server.transient(id, h, &inputs)) {
                Ok(rows) => Response::Transient(stamp, rows),
                Err(e) => error_reply(stamp, &e),
            }
        }
    }
}

fn lookup(inner: &NodeInner, model: u64) -> Result<RomId, RomError> {
    inner
        .models
        .get(&model)
        .copied()
        .ok_or(RomError::UnknownModel(model as usize))
}

fn error_reply(stamp: ReplyStamp, e: &RomError) -> Response {
    let kind = match e {
        RomError::Query(_) => RemoteErrorKind::Query,
        RomError::UnknownModel(_) => RemoteErrorKind::UnknownModel,
        RomError::Linalg(_) => RemoteErrorKind::Numerical,
        RomError::Internal(_) => RemoteErrorKind::Internal,
        RomError::Io(_)
        | RomError::BadMagic
        | RomError::UnsupportedVersion { .. }
        | RomError::Truncated { .. }
        | RomError::Corrupt(_) => RemoteErrorKind::Artifact,
        _ => RemoteErrorKind::Other,
    };
    Response::Error(stamp, kind, format!("{e}"))
}
