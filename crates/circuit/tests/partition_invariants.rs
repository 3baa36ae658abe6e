//! Structural invariants every `PartitionStrategy` must uphold, plus the
//! authoritative separator-quality bar for nested dissection: on the
//! n = 10⁴ mesh the paper's scaling experiments use, the boundary-aware
//! partitioner must produce interface sets ≥ 25 % smaller than the BFS
//! oracle. (The in-crate unit tests keep a fast smoke version of this on
//! a 40×40 mesh; this is the binding check, mirrored by the scaling
//! benchmark's `partition` record and its gate.)

use bdsm_circuit::{partition_network_with, Network, Partition, PartitionStrategy, GROUND};

fn grid(rows: usize, cols: usize) -> Network {
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

/// Two disconnected meshes plus an isolated singleton bus — the shapes
/// that used to trip BFS seeding.
fn disconnected(rows: usize, cols: usize) -> Network {
    let mut net = grid(rows, cols);
    let offset = net.num_buses();
    let mut id = vec![vec![0usize; cols]; rows];
    for (r, row) in id.iter_mut().enumerate() {
        for (c, cell) in row.iter_mut().enumerate() {
            *cell = net.add_bus(format!("m{r}_{c}"));
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
        }
    }
    let lone = net.add_bus("floating");
    net.add_capacitor(lone, GROUND, 1.0).unwrap();
    assert_eq!(net.num_buses(), 2 * offset + 1);
    net
}

/// The invariants every strategy must satisfy on every network:
/// blocks form an exact partition of the buses, `block_of_node` agrees
/// with `blocks`, and `interface` is precisely the set of buses with a
/// neighbour in a different block.
fn check_invariants(net: &Network, part: &Partition) {
    let n = net.num_buses();
    assert_eq!(part.block_of_node.len(), n);

    // Exact partition: every bus in exactly one block, blocks sorted.
    let mut seen = vec![false; n];
    for (bi, blk) in part.blocks.iter().enumerate() {
        assert!(!blk.is_empty(), "block {bi} is empty");
        assert!(blk.windows(2).all(|w| w[0] < w[1]), "block {bi} unsorted");
        for &bus in blk {
            assert!(!seen[bus], "bus {bus} in two blocks");
            seen[bus] = true;
            assert_eq!(part.block_of_node[bus], bi);
        }
    }
    assert!(seen.iter().all(|&s| s), "some bus missing from all blocks");

    // Interface = cross-block adjacency, exactly, and sorted.
    let adj = net.adjacency();
    let mut expect: Vec<usize> = (0..n)
        .filter(|&u| {
            adj[u]
                .iter()
                .any(|&v| part.block_of_node[v] != part.block_of_node[u])
        })
        .collect();
    expect.sort_unstable();
    assert_eq!(part.interface, expect, "interface ≠ cross-block adjacency");
}

#[test]
fn invariants_hold_for_both_strategies_on_meshes() {
    for (rows, cols, k) in [(12, 12, 4), (15, 17, 6), (40, 40, 8)] {
        let net = grid(rows, cols);
        for strategy in [PartitionStrategy::Bfs, PartitionStrategy::NestedDissection] {
            let part = partition_network_with(&net, k, strategy).unwrap();
            // The documented contract is *at least* k connected blocks.
            assert!(part.num_blocks() >= k, "{strategy:?} gave < {k} blocks");
            check_invariants(&net, &part);
        }
    }
}

#[test]
fn invariants_hold_on_disconnected_networks_and_singletons() {
    let net = disconnected(8, 9);
    for strategy in [PartitionStrategy::Bfs, PartitionStrategy::NestedDissection] {
        for k in [2, 4, 7] {
            let part = partition_network_with(&net, k, strategy).unwrap();
            // Three components (two meshes + a singleton) force ≥ 3 blocks
            // even when k = 2; beyond that, at least k.
            assert!(part.num_blocks() >= k.max(3));
            check_invariants(&net, &part);
        }
    }
}

#[test]
fn partitions_are_deterministic() {
    let net = grid(23, 19);
    for strategy in [PartitionStrategy::Bfs, PartitionStrategy::NestedDissection] {
        let a = partition_network_with(&net, 6, strategy).unwrap();
        let b = partition_network_with(&net, 6, strategy).unwrap();
        assert_eq!(a, b, "{strategy:?} not deterministic");
    }
}

/// The binding separator-quality bar: nested dissection beats BFS by at
/// least 25 % on the 100×100 mesh at k = 8 — the configuration the
/// scaling benchmark records — and never grows past the 522 buses first
/// recorded for it.
#[test]
fn nested_dissection_separators_beat_bfs_by_quarter_at_n_1e4() {
    let net = grid(100, 100);
    let bfs = partition_network_with(&net, 8, PartitionStrategy::Bfs).unwrap();
    let nd = partition_network_with(&net, 8, PartitionStrategy::NestedDissection).unwrap();
    check_invariants(&net, &bfs);
    check_invariants(&net, &nd);
    assert!(
        nd.interface.len() * 4 <= bfs.interface.len() * 3,
        "ND separator {} vs BFS {} — less than 25 % smaller",
        nd.interface.len(),
        bfs.interface.len(),
    );
    assert!(
        nd.interface.len() <= 522,
        "ND separator grew: {}",
        nd.interface.len()
    );
}
