//! User-designated reduction regions: keep these buses, eliminate the rest.
//!
//! Practical grid equivalencing starts from the opposite end of the
//! pipeline than a generic partitioner: the user knows which part of the
//! network they are studying (the *internal* system, in power-systems
//! vocabulary) and wants everything else (the *external* system) collapsed
//! into an equivalent. [`ReductionSet`] captures that designation and
//! derives the classic three-way bus classification from graph adjacency:
//!
//! * **external** — the eliminated buses, absorbed into the reduced model;
//! * **boundary** — kept buses with at least one external neighbour; these
//!   are where the equivalent attaches, and with
//!   `InterfacePolicy::Exact` their voltages are ROM coordinates verbatim;
//! * **internal** — kept buses with no external neighbour.
//!
//! [`ReductionSet::to_partition`] maps the designation onto the engine's
//! [`Partition`]: kept and eliminated regions become separate blocks (one
//! per connected component, so blocks stay connected), which puts every
//! boundary bus on the partition interface — exactly the set the engine's
//! exact-interface projection pins.

use crate::network::{CircuitError, Network, Result};
use crate::partition::{components, finish_partition, Partition};

/// A user-designated split of the buses into *kept* and *eliminated* sets,
/// with the derived boundary/internal classification.
///
/// Construct with [`keep_buses`](ReductionSet::keep_buses), which
/// validates against the network and classifies immediately.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReductionSet {
    num_buses: usize,
    kept: Vec<usize>,
    eliminated: Vec<usize>,
    boundary: Vec<usize>,
    internal: Vec<usize>,
}

impl ReductionSet {
    /// Marks `kept` (deduplicated) as the buses to keep; every other bus is
    /// eliminated.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidReductionSet`] if the keep set is
    /// empty, covers every bus (nothing to eliminate), or contains an
    /// out-of-range index; [`CircuitError::EmptyNetwork`] on an empty
    /// network.
    pub fn keep_buses(net: &Network, kept: &[usize]) -> Result<Self> {
        let n = net.num_buses();
        if n == 0 {
            return Err(CircuitError::EmptyNetwork);
        }
        let mut keep = vec![false; n];
        for &b in kept {
            if b >= n {
                return Err(CircuitError::InvalidReductionSet {
                    what: "bus index out of range",
                });
            }
            keep[b] = true;
        }
        let kept: Vec<usize> = (0..n).filter(|&b| keep[b]).collect();
        let eliminated: Vec<usize> = (0..n).filter(|&b| !keep[b]).collect();
        if kept.is_empty() {
            return Err(CircuitError::InvalidReductionSet {
                what: "keep set is empty",
            });
        }
        if eliminated.is_empty() {
            return Err(CircuitError::InvalidReductionSet {
                what: "keep set covers every bus — nothing to eliminate",
            });
        }
        let adj = net.adjacency();
        let (mut boundary, mut internal) = (Vec::new(), Vec::new());
        for &b in &kept {
            if adj[b].iter().any(|&v| !keep[v]) {
                boundary.push(b);
            } else {
                internal.push(b);
            }
        }
        Ok(ReductionSet {
            num_buses: n,
            kept,
            eliminated,
            boundary,
            internal,
        })
    }

    /// Kept buses, sorted ascending.
    pub fn kept(&self) -> &[usize] {
        &self.kept
    }

    /// Eliminated (external) buses, sorted ascending.
    pub fn eliminated(&self) -> &[usize] {
        &self.eliminated
    }

    /// Kept buses with at least one eliminated neighbour, sorted ascending.
    /// These land on the partition interface, so the engine's exact
    /// boundary treatment preserves their voltages verbatim.
    pub fn boundary(&self) -> &[usize] {
        &self.boundary
    }

    /// Kept buses with no eliminated neighbour, sorted ascending.
    pub fn internal(&self) -> &[usize] {
        &self.internal
    }

    /// Maps the designation onto a [`Partition`]: one block per connected
    /// component of the kept subgraph (in ascending discovery order),
    /// followed by one per component of the eliminated subgraph. Every
    /// boundary bus has an eliminated neighbour in another block, so
    /// `boundary ⊆ interface` by construction.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidReductionSet`] if `net` does not have
    /// the bus count this set was built against.
    pub fn to_partition(&self, net: &Network) -> Result<Partition> {
        if net.num_buses() != self.num_buses {
            return Err(CircuitError::InvalidReductionSet {
                what: "network bus count differs from the one the set was built for",
            });
        }
        let adj = net.adjacency();
        let mut keep = vec![false; self.num_buses];
        for &b in &self.kept {
            keep[b] = true;
        }
        let regions = self.kept.iter().chain(&self.eliminated).copied();
        let blocks = components(&adj, regions, |u, v| keep[u] == keep[v]);
        let mut block_of_node = vec![usize::MAX; self.num_buses];
        for (id, block) in blocks.iter().enumerate() {
            for &u in block {
                block_of_node[u] = id;
            }
        }
        Ok(finish_partition(&adj, block_of_node, blocks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::GROUND;

    /// 3×4 resistor grid with grounded capacitors.
    fn grid() -> Network {
        let (rows, cols) = (3, 4);
        let mut net = Network::new();
        let mut id = vec![vec![0usize; cols]; rows];
        for (r, row) in id.iter_mut().enumerate() {
            for (c, cell) in row.iter_mut().enumerate() {
                *cell = net.add_bus(format!("n{r}_{c}"));
            }
        }
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    net.add_resistor(id[r][c], id[r][c + 1], 1.0).unwrap();
                }
                if r + 1 < rows {
                    net.add_resistor(id[r][c], id[r + 1][c], 1.0).unwrap();
                }
                net.add_capacitor(id[r][c], GROUND, 1.0).unwrap();
            }
        }
        net
    }

    #[test]
    fn classification_matches_adjacency() {
        // Keep the left two columns of the 3×4 grid (buses r*4, r*4+1).
        let net = grid();
        let kept: Vec<usize> = (0..3).flat_map(|r| [r * 4, r * 4 + 1]).collect();
        let rs = ReductionSet::keep_buses(&net, &kept).unwrap();
        let mut sorted = kept.clone();
        sorted.sort_unstable();
        assert_eq!(rs.kept(), sorted.as_slice());
        // Boundary = column 1 (adjacent to eliminated column 2).
        assert_eq!(rs.boundary(), &[1, 5, 9]);
        assert_eq!(rs.internal(), &[0, 4, 8]);
        assert_eq!(rs.eliminated(), &[2, 3, 6, 7, 10, 11]);
    }

    #[test]
    fn to_partition_puts_boundary_on_interface() {
        let net = grid();
        let kept: Vec<usize> = (0..3).flat_map(|r| [r * 4, r * 4 + 1]).collect();
        let rs = ReductionSet::keep_buses(&net, &kept).unwrap();
        let p = rs.to_partition(&net).unwrap();
        // Kept region connected, eliminated region connected → 2 blocks.
        assert_eq!(p.num_blocks(), 2);
        assert_eq!(p.blocks[0], rs.kept());
        assert_eq!(p.blocks[1], rs.eliminated());
        for &b in rs.boundary() {
            assert!(
                p.interface.contains(&b),
                "boundary bus {b} not on interface"
            );
        }
        // Internal kept buses never leak onto the interface.
        for &b in rs.internal() {
            assert!(!p.interface.contains(&b));
        }
    }

    #[test]
    fn disconnected_regions_become_separate_blocks() {
        // Keep the two outer columns: the kept subgraph has 2 components.
        let net = grid();
        let kept: Vec<usize> = (0..3).flat_map(|r| [r * 4, r * 4 + 3]).collect();
        let rs = ReductionSet::keep_buses(&net, &kept).unwrap();
        let p = rs.to_partition(&net).unwrap();
        assert_eq!(p.num_blocks(), 3); // left col, right col, middle
        assert_ne!(p.block_of_node[0], p.block_of_node[3]);
        // All kept buses touch the middle, so all are boundary/interface.
        assert_eq!(rs.boundary(), rs.kept());
        assert!(rs.internal().is_empty());
    }

    #[test]
    fn invalid_sets_rejected() {
        let net = grid();
        assert!(matches!(
            ReductionSet::keep_buses(&net, &[]),
            Err(CircuitError::InvalidReductionSet { .. })
        ));
        let all: Vec<usize> = (0..net.num_buses()).collect();
        assert!(matches!(
            ReductionSet::keep_buses(&net, &all),
            Err(CircuitError::InvalidReductionSet { .. })
        ));
        assert!(matches!(
            ReductionSet::keep_buses(&net, &[0, 99]),
            Err(CircuitError::InvalidReductionSet { .. })
        ));
        assert!(ReductionSet::keep_buses(&Network::new(), &[0]).is_err());
        // Duplicates in the marked list are fine.
        assert!(ReductionSet::keep_buses(&net, &[0, 0, 1]).is_ok());
        // Mismatched network at partition time.
        let rs = ReductionSet::keep_buses(&net, &[0, 1]).unwrap();
        let other = {
            let mut m = Network::new();
            m.add_bus("a");
            m
        };
        assert!(rs.to_partition(&other).is_err());
    }
}
