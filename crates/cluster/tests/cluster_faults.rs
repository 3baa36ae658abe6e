//! Fault-injection hardening of the distribution layer: armed
//! `faultpoint!` sites drop shard connections mid-request, kill the
//! accept loop, and panic router workers — every failure must surface
//! as a **typed [`ClusterError`]**, counted in the router metrics,
//! never a hang (admission + socket timeouts bound every path) and
//! never a panic across the public API.
//!
//! Fault sites are process-global (`bdsm_obs::fault`); every test
//! serializes on one lock. A peer on an older wire version is the one
//! fault here that needs no armed site.

use bdsm_cluster::wire::{self, Frame, Request, Response};
use bdsm_cluster::{
    ClientConfig, ClusterClient, ClusterError, NodeConfig, ShardNode, ShardPlan, WireError,
};
use bdsm_core::synth::rc_grid;
use bdsm_rom::{QueryError, Reducer, RomError, RomServer};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::Duration;

static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

const MODEL: u64 = 1;

fn grid_server() -> (RomServer, bdsm_rom::RomId) {
    let net = rc_grid(6, 8, 1.0, 1e-3, 2.0);
    let reducer = Reducer::builder()
        .blocks(3)
        .jomega_shifts(&[5.0e2, 2.0e3])
        .build()
        .expect("valid reducer");
    let artifact = reducer.reduce_to_artifact(&net).expect("reduce");
    let mut server = RomServer::new();
    let id = server.load_artifact(artifact);
    (server, id)
}

fn fast_config(max_retries: u32) -> ClientConfig {
    ClientConfig {
        max_in_flight: 16,
        max_retries,
        backoff: Duration::from_millis(5),
        io_timeout: Duration::from_millis(500),
    }
}

/// One single-shard loopback cluster over the small grid model.
fn one_shard_cluster(max_retries: u32) -> (ShardNode, ClusterClient, ShardPlan) {
    let (server, id) = grid_server();
    let plan = ShardPlan::by_model(&[MODEL], 1).expect("plan");
    let digest = plan.digest();
    let node = ShardNode::spawn(
        server,
        vec![(MODEL, id)],
        NodeConfig {
            shard_id: 0,
            plan_digest: digest,
            io_timeout: Duration::from_millis(500),
        },
        "127.0.0.1:0",
    )
    .expect("bind node");
    let addr = node.addr();
    let client =
        ClusterClient::connect(plan.clone(), &[addr], fast_config(max_retries)).expect("client");
    (node, client, plan)
}

fn sweep_omegas() -> Vec<f64> {
    (0..12).map(|i| 100.0 * 1.4_f64.powi(i)).collect()
}

#[test]
fn connection_drop_mid_request_is_unavailable_without_retries() {
    let _g = locked();
    let (_node, client, _plan) = one_shard_cluster(0);
    let omegas = sweep_omegas();
    // Warm the connection so the drop happens mid-stream, not at connect.
    client.ping(0).expect("warm ping");

    // `cluster.node.request` panics the connection thread after the
    // request is read and before any reply — the client sees its pooled
    // stream die mid-RPC. With zero retries that is a typed
    // `Unavailable`, never a hang (the socket timeout bounds the read).
    let guard = bdsm_obs::fault::arm("cluster.node.request");
    let err = client
        .transfer_sweep(MODEL, &omegas)
        .expect_err("dropped connection must fail the query");
    drop(guard);
    match err {
        ClusterError::Unavailable {
            shard: 0,
            attempts: 1,
            ..
        } => {}
        other => panic!("expected Unavailable after 1 attempt, got {other:?}"),
    }
    let m = client.metrics();
    assert_eq!(m.unavailable, 1, "failure must be counted: {m:?}");

    // The fault fired once; the next query reconnects and succeeds.
    let sweep = client.transfer_sweep(MODEL, &omegas).expect("recovered");
    assert_eq!(sweep.len(), omegas.len());
    assert!(client.metrics().reconnects >= 1);
}

#[test]
fn connection_drop_mid_request_recovers_via_retry() {
    let _g = locked();
    let (_node, client, _plan) = one_shard_cluster(2);
    let omegas = sweep_omegas();
    client.ping(0).expect("warm ping");

    let baseline = client
        .transfer_sweep(MODEL, &omegas)
        .expect("baseline sweep");
    let guard = bdsm_obs::fault::arm("cluster.node.request");
    // The first attempt dies mid-request; retry reconnects and the
    // replayed request succeeds — and the bytes are identical to the
    // undisturbed sweep (the fault can change timing, never results).
    let retried = client
        .transfer_sweep(MODEL, &omegas)
        .expect("retry must recover a dropped connection");
    drop(guard);
    assert_eq!(retried, baseline, "retry changed served bytes");
    let m = client.metrics();
    assert!(m.retries >= 1, "retry path must be counted: {m:?}");
    assert!(m.reconnects >= 1, "reconnect must be counted: {m:?}");
    assert_eq!(m.unavailable, 0);
}

#[test]
fn dead_accept_loop_is_unavailable_for_new_connections_only() {
    let _g = locked();
    let (node, client, plan) = one_shard_cluster(0);
    client.ping(0).expect("pooled connection established");

    // Arming `cluster.node.accept` kills the accept thread on its next
    // loop iteration — i.e. right after it accepts one more connection.
    let guard = bdsm_obs::fault::arm("cluster.node.accept");
    let fresh = ClusterClient::connect(plan.clone(), &[node.addr()], fast_config(0))
        .expect("second client");
    // This connection gets accepted, then the accept loop dies. (Timing
    // decides whether this ping also gets served; either outcome is
    // in-contract, so only the *next* client is asserted on.)
    let _ = fresh.ping(0);
    drop(guard);

    let third = ClusterClient::connect(plan, &[node.addr()], fast_config(0)).expect("third client");
    let err = third
        .ping(0)
        .expect_err("no accept loop: new connections must time out as typed errors");
    assert!(
        matches!(err, ClusterError::Unavailable { shard: 0, .. }),
        "got {err:?}"
    );

    // The pre-fault pooled connection keeps its own serving thread.
    client
        .ping(0)
        .expect("existing connections survive an accept-loop death");
}

#[test]
fn router_worker_panic_is_typed_and_counted_then_recovers() {
    let _g = locked();
    let (_node, client, _plan) = one_shard_cluster(1);
    let omegas = sweep_omegas();
    client.ping(0).expect("warm ping");

    let guard = bdsm_obs::fault::arm("cluster.router.worker");
    let err = client
        .transfer_sweep(MODEL, &omegas)
        .expect_err("injected router panic must fail the query");
    drop(guard);
    match err {
        ClusterError::Internal(msg) => {
            assert!(
                msg.contains("injected fault") || msg.contains("panicked"),
                "unexpected contained-panic message: {msg}"
            );
        }
        other => panic!("expected ClusterError::Internal, got {other:?}"),
    }
    let m = client.metrics();
    assert_eq!(m.worker_panics, 1, "contained panic must be counted: {m:?}");

    // Disarmed: the very same query succeeds.
    let sweep = client.transfer_sweep(MODEL, &omegas).expect("recovered");
    assert_eq!(sweep.len(), omegas.len());
    assert_eq!(client.metrics().worker_panics, 1);
}

#[test]
fn admission_control_fails_fast_as_overloaded() {
    let _g = locked();
    let (_node, _client, plan) = one_shard_cluster(0);
    // A zero-capacity client: every query must be refused immediately —
    // admission happens before any socket work, so this cannot block.
    let (node2, _, _) = one_shard_cluster(0);
    let choked = ClusterClient::connect(
        plan,
        &[node2.addr()],
        ClientConfig {
            max_in_flight: 0,
            ..fast_config(0)
        },
    )
    .expect("choked client");
    let err = choked
        .transfer_sweep(MODEL, &[1.0e3])
        .expect_err("zero in-flight budget must refuse");
    match err {
        ClusterError::Overloaded {
            in_flight: 0,
            limit: 0,
        } => {}
        other => panic!("expected Overloaded, got {other:?}"),
    }
    let m = choked.metrics();
    assert_eq!(m.overloaded, 1);
    assert_eq!(m.rpcs, 0, "admission must refuse before any RPC");
}

#[test]
fn remote_errors_stay_typed_end_to_end() {
    let _g = locked();
    let (_node, client, _plan) = one_shard_cluster(1);
    // Unknown model: typed at the plan level, no network touched.
    let err = client.transfer_sweep(99, &[1.0e3]).unwrap_err();
    assert!(matches!(err, ClusterError::UnknownModel(99)), "got {err:?}");
    // A malformed query crosses the wire and comes back as a typed
    // remote error, counted by the router.
    let err = client
        .transfer_sweep(MODEL, &[f64::NAN])
        .expect_err("NaN frequency must be refused by the shard");
    match err {
        ClusterError::Remote {
            shard: 0,
            kind,
            message,
        } => {
            assert_eq!(
                kind,
                bdsm_cluster::RemoteErrorKind::Query,
                "message: {message}"
            );
        }
        other => panic!("expected Remote(Query), got {other:?}"),
    }
    assert_eq!(client.metrics().remote_errors, 1);
    // The connection survives a remote error: next query serves.
    assert_eq!(client.transfer_sweep(MODEL, &[1.0e3]).unwrap().len(), 1);
}

/// A ping as a v1 peer sends it: version word 1 and the byte-serial
/// FNV-1a checksum that v1 carried.
fn v1_ping() -> Vec<u8> {
    let mut bytes = Request::Ping.to_frame().encode();
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    let end = bytes.len() - 8;
    let sum = bytes[..end]
        .iter()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    bytes[end..].copy_from_slice(&sum.to_le_bytes());
    bytes
}

#[test]
fn wire_version_skew_is_answered_typed_then_closed() {
    let _g = locked();
    let (node, client, _plan) = one_shard_cluster(0);
    assert_eq!(wire::VERSION, 2);
    let v1 = v1_ping();
    assert!(matches!(
        Frame::decode(&v1),
        Err(WireError::UnsupportedVersion {
            found: 1,
            supported: 2
        })
    ));

    let mut stream = TcpStream::connect(node.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(&v1).expect("send v1 frame");
    let reply = Frame::read_from(&mut stream).expect("one reply frame");
    match Response::from_frame(&reply).expect("a v2 response") {
        Response::Error(stamp, _, message) => {
            assert_eq!(stamp.shard, 0);
            assert!(message.contains("version 1"), "message: {message}");
        }
        other => panic!("expected Response::Error, got {other:?}"),
    }
    // Then the node hangs up. It closes with the frame's checksum unread,
    // so the close may arrive as a reset instead of end of stream; either
    // way it is not the read timeout.
    match stream.read(&mut [0u8; 1]) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("expected the node to close, got {other:?}"),
    }

    // A v2 client connecting afterwards is still served.
    client.ping(0).expect("v2 ping");
    assert_eq!(client.transfer_sweep(MODEL, &[1.0e3]).unwrap().len(), 1);
}

/// A `Query`-class refusal from the shard: the same verdict class a local
/// server gives.
fn assert_remote_query<T: std::fmt::Debug>(what: &str, got: Result<T, ClusterError>) {
    match got {
        Err(ClusterError::Remote { kind, .. }) => {
            assert_eq!(kind, bdsm_cluster::RemoteErrorKind::Query, "{what}");
        }
        other => panic!("{what}: expected Remote(Query), got {other:?}"),
    }
}

#[test]
fn empty_frequency_lists_are_refused_locally_and_through_the_cluster() {
    let _g = locked();
    let (local, id) = grid_server();
    let (_node, client, _plan) = one_shard_cluster(0);

    let err = local.transfer_sweep(id, &[]).unwrap_err();
    assert!(
        matches!(err, RomError::Query(QueryError::EmptyBatch)),
        "got {err:?}"
    );
    let err = local.port_response(id, 0, 0, &[]).unwrap_err();
    assert!(
        matches!(err, RomError::Query(QueryError::EmptyBatch)),
        "got {err:?}"
    );
    // The port check comes before the frequency list.
    let err = local.port_response(id, 99, 0, &[]).unwrap_err();
    assert!(
        matches!(
            err,
            RomError::Query(QueryError::PortOutOfRange { port: 99, .. })
        ),
        "got {err:?}"
    );

    // No slice carries an empty query: it reaches the home shard as a
    // frame of its own, even beside a non-empty query of the same model.
    assert_remote_query("sweep", client.transfer_sweep(MODEL, &[]));
    assert_remote_query("port", client.port_response(MODEL, 0, 0, &[]));
    assert_remote_query("bad port", client.port_response(MODEL, 99, 0, &[]));
    assert_remote_query(
        "sweep batch",
        client.sweep_batch(&[(MODEL, vec![1.0e3]), (MODEL, vec![])]),
    );
    assert_eq!(client.metrics().remote_errors, 4);
    assert_eq!(client.transfer_sweep(MODEL, &[1.0e3]).unwrap().len(), 1);
}
