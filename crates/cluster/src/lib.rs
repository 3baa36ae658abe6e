//! Distributed serving for BDSM reduced-order models — the scale-out
//! tier over [`bdsm_rom::RomServer`].
//!
//! Three layers, std-only (no external dependencies, TCP via
//! `std::net`):
//!
//! * **Placement** ([`ShardPlan`]) — shard-by-model (each model wholly
//!   owned by one shard) or shard-by-frequency-band (one model's
//!   certified ω-envelope split into disjoint log-spaced bands, each
//!   owned by a shard). Every reply carries the plan digest, so routing
//!   is auditable end to end.
//! * **Transport** ([`wire`]) — length-prefixed binary frames with the
//!   artifact codec's conventions: magic, version, word-wise checksum,
//!   alloc-bounded reads, typed [`WireError`]. `f64`s travel as IEEE bit
//!   patterns, so values cross the wire bitwise-exactly.
//! * **Serving** ([`ShardNode`], [`ClusterClient`]) — a node is a thin
//!   TCP wrapper around `RomServer`; the client routes, batches
//!   (coalescing compatible queries into one frame per (shard, model)),
//!   admits (bounded in-flight, typed [`ClusterError::Overloaded`] —
//!   never a hang), retries with backoff across reconnects, and merges
//!   band-sharded sweep replies deterministically back into request
//!   ω-order.
//!
//! # Determinism contract
//!
//! Per-sample results in `RomServer` are independent and
//! bitwise-deterministic for any `BDSM_THREADS`; the wire moves bit
//! patterns; the merge is position-driven. Therefore a cluster reply is
//! **bitwise-equal to the single-process server** for any placement,
//! any shard count, and any thread count on either side — asserted at
//! n = 10⁴ by the loopback integration suite and gated in CI.

mod client;
mod node;
mod plan;
pub mod wire;

pub use client::{ClientConfig, ClusterClient, ClusterError, ClusterMetricsSnapshot};
pub use node::{NodeConfig, ShardNode};
pub use plan::{BandRange, Placement, PlanError, ShardPlan};
pub use wire::{RemoteErrorKind, WireError};
