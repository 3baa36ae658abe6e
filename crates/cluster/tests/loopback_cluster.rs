//! The distribution oracle at scale: a loopback cluster over a
//! 10,000-state grid whose replies must be **bitwise-equal** to a single
//! local `RomServer` — for shard-by-model and shard-by-frequency-band
//! placement, for sweep/port/transient queries, and for `BDSM_THREADS`
//! ∈ {1, 2, 5} (the stack's determinism contract makes the equality
//! exact, so any divergence in the wire, routing, or merge layers fails
//! loudly).
//!
//! The local oracle runs with a **bounded LRU shift cache**, so this
//! test simultaneously proves the PR-10 cache at 10⁴ end to end:
//! evictions occur, `misses == inserts` stays exact, the live count is
//! `inserts - evictions`, and none of it changes a single served byte.
//!
//! Single test in its own binary: it manipulates `BDSM_THREADS`.

use bdsm_cluster::{ClientConfig, ClusterClient, ClusterError, NodeConfig, ShardNode, ShardPlan};
use bdsm_core::engine::AdaptiveShiftOpts;
use bdsm_core::synth::rc_grid;
use bdsm_rom::{Reducer, RomArtifact, RomServer};
use std::time::Duration;

/// Pins `BDSM_THREADS` for a scope, restoring the prior value on drop.
struct Threads(Option<String>);

impl Threads {
    fn pin(n: &str) -> Self {
        let prev = std::env::var("BDSM_THREADS").ok();
        std::env::set_var("BDSM_THREADS", n);
        Threads(prev)
    }
}

impl Drop for Threads {
    fn drop(&mut self) {
        match self.0.take() {
            Some(v) => std::env::set_var("BDSM_THREADS", v),
            None => std::env::remove_var("BDSM_THREADS"),
        }
    }
}

const BIG_MODEL: u64 = 1;
const SMALL_MODEL: u64 = 2;

fn client_config() -> ClientConfig {
    ClientConfig {
        max_in_flight: 64,
        max_retries: 1,
        backoff: Duration::from_millis(10),
        io_timeout: Duration::from_secs(120),
    }
}

fn spawn_node(
    artifacts: &[(u64, &[u8])],
    shard_id: u32,
    plan_digest: u64,
) -> (ShardNode, std::net::SocketAddr) {
    let mut server = RomServer::new();
    let models = artifacts
        .iter()
        .map(|(model, bytes)| {
            let artifact = RomArtifact::from_bytes(bytes).expect("artifact bytes load");
            (*model, server.load_artifact(artifact))
        })
        .collect();
    let node = ShardNode::spawn(
        server,
        models,
        NodeConfig {
            shard_id,
            plan_digest,
            io_timeout: Duration::from_secs(120),
        },
        "127.0.0.1:0",
    )
    .expect("bind loopback shard");
    let addr = node.addr();
    (node, addr)
}

#[test]
fn loopback_cluster_replies_bitwise_equal_local_server_at_10k() {
    let _threads = Threads::pin("5");

    // ---- Build the 10⁴ headline model (adaptive + exact interfaces) and
    // a small sibling so shard-by-model has two models to place.
    let net = rc_grid(100, 100, 1.0, 1e-3, 2.0);
    let reducer = Reducer::builder()
        .blocks(4)
        .jomega_shifts(&[4.5e2])
        .moments(2)
        .budget(2000)
        .adaptive(AdaptiveShiftOpts {
            candidate_omegas: AdaptiveShiftOpts::log_grid(5.0e1, 4.0e3, 6),
            tol: 1e-6,
            max_shifts: 4,
        })
        .exact_interfaces()
        .sparse()
        .build()
        .expect("valid reducer");
    let (rm, report, _) = reducer.reduce_traced(&net).expect("10k reduction");
    assert_eq!(rm.full_dim(), 10_000);
    let big = RomArtifact::from_model(&rm, Some(&report));
    let (env_lo, env_hi) = big
        .provenance
        .certificate
        .frequency_envelope()
        .expect("certified envelope");

    let small_net = rc_grid(6, 8, 1.0, 1e-3, 2.0);
    let small_reducer = Reducer::builder()
        .blocks(3)
        .jomega_shifts(&[5.0e2, 2.0e3])
        .build()
        .expect("valid small reducer");
    let small = small_reducer
        .reduce_to_artifact(&small_net)
        .expect("small reduce");

    let big_bytes = big.to_bytes();
    let small_bytes = small.to_bytes();

    // ---- Local oracle, with a bounded LRU cache (capacity 16 < the 64
    // frequencies each sweep touches → heavy eviction pressure).
    let mut local = RomServer::with_cache_capacity(16);
    let local_big = local.load_artifact(RomArtifact::from_bytes(&big_bytes).unwrap());
    let local_small = local.load_artifact(RomArtifact::from_bytes(&small_bytes).unwrap());

    // ---- Cluster A: shard-by-model over 2 shards.
    let plan_model = ShardPlan::by_model(&[BIG_MODEL, SMALL_MODEL], 2).expect("model plan");
    let digest_model = plan_model.digest();
    let (_node_m0, addr_m0) = spawn_node(&[(BIG_MODEL, &big_bytes)], 0, digest_model);
    let (_node_m1, addr_m1) = spawn_node(&[(SMALL_MODEL, &small_bytes)], 1, digest_model);
    let by_model = ClusterClient::connect(plan_model, &[addr_m0, addr_m1], client_config())
        .expect("by-model client");

    // ---- Cluster B: shard-by-frequency-band over 3 shards of the big
    // model's certified envelope; every shard holds the same artifact.
    let plan_band = ShardPlan::by_bands(BIG_MODEL, 3, env_lo, env_hi).expect("band plan");
    let digest_band = plan_band.digest();
    let band_nodes: Vec<(ShardNode, std::net::SocketAddr)> = (0..3)
        .map(|k| spawn_node(&[(BIG_MODEL, &big_bytes)], k, digest_band))
        .collect();
    let band_addrs: Vec<_> = band_nodes.iter().map(|(_, a)| *a).collect();
    let by_band =
        ClusterClient::connect(plan_band, &band_addrs, client_config()).expect("by-band client");

    // ---- Queries: the serve-path headline shapes.
    let omegas: Vec<f64> = (0..64)
        .map(|i| 50.0 * (4.0e3_f64 / 50.0).powf(i as f64 / 63.0))
        .collect();
    let m_inputs = big.num_inputs();
    let wave: Vec<Vec<f64>> = (0..50)
        .map(|s| vec![(0.11 * s as f64).sin(); m_inputs])
        .collect();
    let h = 1e-4;
    let small_omegas = [100.0, 1.0e3, 3.0e3];

    let mut reference: Option<(Vec<_>, Vec<_>, Vec<_>)> = None;
    for threads in ["1", "2", "5"] {
        let _t = Threads::pin(threads);

        let local_sweep = local
            .transfer_sweep(local_big, &omegas)
            .expect("local sweep");
        let local_port = local
            .port_response(local_big, 0, 0, &omegas)
            .expect("local port");
        let local_transient = local
            .transient(local_big, h, &wave)
            .expect("local transient");

        // Shard-by-model: the whole sweep lands on shard 0.
        let sweep_m = by_model
            .transfer_sweep(BIG_MODEL, &omegas)
            .expect("by-model sweep");
        assert_eq!(
            sweep_m, local_sweep,
            "by-model sweep differs from local at BDSM_THREADS={threads}"
        );
        // Shard-by-band: the sweep splits across all 3 shards and merges
        // back into ω-order.
        let sweep_b = by_band
            .transfer_sweep(BIG_MODEL, &omegas)
            .expect("by-band sweep");
        assert_eq!(
            sweep_b, local_sweep,
            "by-band sweep differs from local at BDSM_THREADS={threads}"
        );

        let port_m = by_model
            .port_response(BIG_MODEL, 0, 0, &omegas)
            .expect("by-model port");
        let port_b = by_band
            .port_response(BIG_MODEL, 0, 0, &omegas)
            .expect("by-band port");
        assert_eq!(port_m, local_port, "by-model port differs at {threads}");
        assert_eq!(port_b, local_port, "by-band port differs at {threads}");

        let tr_m = by_model
            .transient(BIG_MODEL, h, &wave)
            .expect("by-model transient");
        let tr_b = by_band
            .transient(BIG_MODEL, h, &wave)
            .expect("by-band transient");
        assert_eq!(
            tr_m, local_transient,
            "by-model transient differs at {threads}"
        );
        assert_eq!(
            tr_b, local_transient,
            "by-band transient differs at {threads}"
        );

        // And across thread counts: everything equals the first round.
        match &reference {
            None => reference = Some((local_sweep, local_port, local_transient)),
            Some((s, p, t)) => {
                assert_eq!(&local_sweep, s, "local sweep varies with threads");
                assert_eq!(&local_port, p, "local port varies with threads");
                assert_eq!(&local_transient, t, "local transient varies with threads");
            }
        }
    }

    // The second model answers through its own shard, equal to local.
    let local_small_sweep = local
        .transfer_sweep(local_small, &small_omegas)
        .expect("local small sweep");
    assert_eq!(
        by_model
            .transfer_sweep(SMALL_MODEL, &small_omegas)
            .expect("small sweep via shard 1"),
        local_small_sweep
    );

    // ---- A single query is a batch of one: the same bits, nothing
    // coalesced, one RPC per touched shard (all three bands for a sweep or
    // a port query, the home shard for a transient).
    let (ref_sweep, ref_port, _) = reference.as_ref().unwrap();
    let one_sweep = by_band
        .sweep_batch(&[(BIG_MODEL, omegas.clone())])
        .expect("sweep batch of one");
    let one_port = by_band
        .port_batch(&[(BIG_MODEL, 0, 0, omegas.clone())])
        .expect("port batch of one");
    assert_eq!((&one_sweep[0], &one_port[0]), (ref_sweep, ref_port));
    let singles = by_band.metrics();
    assert_eq!(
        singles.coalesced_queries, 0,
        "singles coalesced: {singles:?}"
    );
    assert_eq!(singles.rpcs, 3 * (3 + 3 + 1) + 3 + 3);

    // ---- Batched, coalesced queries reproduce the unbatched answers.
    let batch = by_band
        .sweep_batch(&[
            (BIG_MODEL, omegas[..20].to_vec()),
            (BIG_MODEL, omegas[20..].to_vec()),
            (BIG_MODEL, omegas.clone()),
        ])
        .expect("coalesced sweep batch");
    assert_eq!(batch[0], ref_sweep[..20]);
    assert_eq!(batch[1], ref_sweep[20..]);
    assert_eq!(batch[2][..], ref_sweep[..]);
    let port_batch = by_band
        .port_batch(&[
            (BIG_MODEL, 0, 0, omegas[..32].to_vec()),
            (BIG_MODEL, 0, 0, omegas[32..].to_vec()),
        ])
        .expect("coalesced port batch");
    assert_eq!(port_batch[0], ref_port[..32]);
    assert_eq!(port_batch[1], ref_port[32..]);
    let router = by_band.metrics();
    assert!(
        router.coalesced_queries > 0,
        "batch APIs must coalesce same-(shard, model) queries: {router:?}"
    );
    assert_eq!(router.worker_panics, 0);
    assert_eq!(router.remote_errors, 0);

    // ---- LRU e2e at 10⁴: the bounded oracle evicted heavily, kept the
    // accounting exact, and (proven by every equality above) never
    // changed a served byte.
    let lm = local.metrics();
    assert!(
        lm.cache.evictions > 0,
        "capacity 16 under 64-shift sweeps must evict"
    );
    assert_eq!(
        lm.cache.misses, lm.cache.inserts,
        "misses == inserts must stay exact"
    );
    let live = (local.cached_shifts(local_big).unwrap() + local.cached_shifts(local_small).unwrap())
        as u64;
    assert_eq!(
        live,
        lm.cache.inserts - lm.cache.evictions,
        "cached_shifts must equal inserts - evictions"
    );
    assert!(lm.to_json().contains("\"evictions\""));

    // ---- Audit: shard metrics are reachable over the wire, and a client
    // with the wrong plan is refused with a typed mismatch.
    let shard_json = by_band
        .shard_metrics(0)
        .expect("shard metrics over the wire");
    assert!(shard_json.contains("\"cache\""));
    let wrong_plan = ShardPlan::by_model(&[BIG_MODEL], 1).expect("wrong plan");
    let stray = ClusterClient::connect(wrong_plan, &[band_addrs[0]], client_config())
        .expect("stray client");
    match stray.transfer_sweep(BIG_MODEL, &small_omegas) {
        Err(ClusterError::PlanMismatch {
            shard: 0,
            expected,
            found,
        }) => {
            assert_eq!(found, digest_band);
            assert_ne!(expected, found);
        }
        other => panic!("expected PlanMismatch, got {other:?}"),
    }

    // ---- Orderly teardown over the wire.
    for result in by_band.shutdown_all() {
        result.expect("graceful shard shutdown");
    }
}
