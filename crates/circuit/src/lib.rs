//! Power-grid circuit layer of the BDSM reproduction.
//!
//! Three stages live here, feeding the reduction engine in `bdsm-core`:
//!
//! 1. [`Network`] — buses, R/L/C branches, current/voltage sources, ports;
//! 2. [`mna::assemble`] — MNA stamping into descriptor form `(G, C, B, L)`,
//!    `G` and `C` compressed straight into `bdsm_sparse::CscMatrix` (the
//!    form the reduction engine factors) and renumbered by
//!    [`Descriptor::permuted`];
//! 3. [`partition::partition_network`] — BFS growth of `k` connected blocks
//!    with the interface (boundary) bus set, the paper's block structure.
//!
//! # Examples
//!
//! ```
//! use bdsm_circuit::{mna, partition, Network, GROUND};
//!
//! let mut net = Network::new();
//! let buses: Vec<usize> = (0..6).map(|i| net.add_bus(format!("b{i}"))).collect();
//! for w in buses.windows(2) {
//!     net.add_resistor(w[0], w[1], 10.0)?;
//! }
//! for &b in &buses {
//!     net.add_capacitor(b, GROUND, 1e-6)?;
//! }
//! net.add_port(buses[0])?;
//!
//! let desc = mna::assemble(&net)?;
//! assert_eq!(desc.dim(), 6);
//! let part = partition::partition_network(&net, 2)?;
//! assert_eq!(part.num_blocks(), 2);
//! # Ok::<(), bdsm_circuit::CircuitError>(())
//! ```

pub mod mna;
pub mod network;
pub mod partition;
pub mod reduction;

pub use mna::{DenseDescriptor, Descriptor, StateKind};
pub use network::{CircuitError, Element, ElementKind, Network, Result, GROUND};
pub use partition::{
    grouped_state_order, interface_state_indices, partition_network, partition_network_with,
    Partition, PartitionStrategy,
};
pub use reduction::ReductionSet;
