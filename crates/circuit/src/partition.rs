//! Graph partitioning of a network into `k` connected blocks.
//!
//! The BDSM scheme projects each block with its own basis, so the partition
//! is the load-bearing structural decision: blocks must be connected (a
//! disconnected "block" wastes basis vectors on decoupled dynamics) and the
//! interface set — buses with at least one neighbour in a different block —
//! is what the paper's error analysis ties the coupling strength to.
//!
//! Two strategies are offered (see [`PartitionStrategy`]):
//!
//! * **BFS growth** (the default, and the oracle the rest of the test suite
//!   is anchored to): grow each block from a peripheral
//!   (minimum-unassigned-degree) bus until it reaches an adaptive target
//!   size, then start the next block. Blocks are connected by construction;
//!   on connected graphs with reasonable `k` the result is exactly `k`
//!   near-balanced blocks.
//! * **Nested dissection**: recursive bisection with boundary-minimising
//!   level cuts, sharpened by Fiduccia–Mattheyses-style refinement that
//!   optimises the *vertex* boundary (the metric the ROM dimension actually
//!   pays for) and is aware of already-paid separator vertices, followed by
//!   a global k-way polish. On meshes this produces markedly smaller
//!   separators than BFS growth — directly shrinking the exact-interface
//!   ROM dimension — at the cost of more work per partition.
//!
//! Both strategies are deterministic single-threaded procedures: the same
//! network and `k` always produce the identical partition, independent of
//! `BDSM_THREADS`. Disconnected networks are handled by partitioning each
//! connected component separately, with block counts allocated to
//! components proportionally to their size (every component gets at least
//! one block, so singleton buses become singleton blocks).

use crate::mna::{Descriptor, StateKind};
use crate::network::{CircuitError, Network, Result, GROUND};
use std::collections::{BTreeSet, VecDeque};

/// A partition of the network's buses into connected blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// `block_of_node[bus] = block index`.
    pub block_of_node: Vec<usize>,
    /// Bus indices per block, each sorted ascending.
    pub blocks: Vec<Vec<usize>>,
    /// Buses with at least one neighbour in a different block, sorted.
    pub interface: Vec<usize>,
}

impl Partition {
    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Flat `u64` encoding `[num_buses, num_blocks, block_of_node…,
    /// interface_len, interface…]` — the serialization surface the ROM
    /// artifact layer persists so a loaded artifact still knows which bus
    /// sits in which block and which buses are boundary.
    pub fn pack(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.block_of_node.len() + self.interface.len() + 3);
        out.push(self.block_of_node.len() as u64);
        out.push(self.blocks.len() as u64);
        out.extend(self.block_of_node.iter().map(|&b| b as u64));
        out.push(self.interface.len() as u64);
        out.extend(self.interface.iter().map(|&b| b as u64));
        out
    }

    /// Inverse of [`pack`](Self::pack), revalidating the structure (block
    /// assignments in range, every block non-empty, interface sorted,
    /// unique, and in range).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidPartition`] on any malformed or
    /// truncated encoding.
    pub fn unpack(words: &[u64]) -> Result<Partition> {
        let bad = |what| Err(CircuitError::InvalidPartition { what });
        let Some((&nb, rest)) = words.split_first() else {
            return bad("packed partition is empty");
        };
        let Some((&k, rest)) = rest.split_first() else {
            return bad("packed partition missing block count");
        };
        if nb > rest.len() as u64 {
            return bad("packed partition truncated in block assignments");
        }
        let (n, k) = (nb as usize, k as usize);
        if rest.len() < n + 1 {
            return bad("packed partition truncated in block assignments");
        }
        let (assign, rest) = rest.split_at(n);
        if k == 0 || n == 0 {
            return bad("packed partition has no buses or no blocks");
        }
        // Every block must end up non-empty, so k > n can never validate;
        // reject before allocating k block vectors (a crafted encoding
        // must not drive a huge allocation).
        if k > n {
            return bad("packed partition has more blocks than buses");
        }
        let mut blocks: Vec<Vec<usize>> = vec![Vec::new(); k];
        let mut block_of_node = Vec::with_capacity(n);
        for (bus, &b) in assign.iter().enumerate() {
            let b = b as usize;
            if b >= k {
                return bad("packed partition has out-of-range block index");
            }
            block_of_node.push(b);
            blocks[b].push(bus); // buses ascend, so each block stays sorted
        }
        if blocks.iter().any(Vec::is_empty) {
            return bad("packed partition has an empty block");
        }
        let (&ni, rest) = rest.split_first().expect("length checked above");
        if rest.len() != ni as usize {
            return bad("packed partition interface length mismatch");
        }
        let interface: Vec<usize> = rest.iter().map(|&b| b as usize).collect();
        let sorted_unique = interface.windows(2).all(|w| w[0] < w[1]);
        if !sorted_unique || interface.iter().any(|&b| b >= n) {
            return bad("packed partition interface not sorted/unique/in-range");
        }
        Ok(Partition {
            block_of_node,
            blocks,
            interface,
        })
    }
}

/// Strategy for splitting the bus graph into blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionStrategy {
    /// BFS growth from peripheral seeds — the original scheme, kept as the
    /// default-compatible oracle. Fast and near-balanced, but frontiers on
    /// meshes are ragged, so separators are larger than necessary.
    #[default]
    Bfs,
    /// Recursive bisection: a pseudo-peripheral BFS level cut chosen to
    /// minimise the separator within a balance window, sharpened by
    /// Fiduccia–Mattheyses-style vertex-boundary refinement (with rollback
    /// to the best state seen) and a final k-way polish. Produces
    /// measurably smaller interface sets on meshes (≳25 % on a 100×100
    /// grid at `k = 8`).
    NestedDissection,
}

/// Splits the network into (at least) `k` connected blocks using the
/// default [`PartitionStrategy::Bfs`] strategy.
///
/// On a connected graph this produces exactly `k` blocks; if the network
/// graph is disconnected, every connected component receives at least one
/// block of its own (so the result can have up to
/// `max(k, #components)` blocks) and no block ever spans two components.
///
/// # Errors
///
/// Returns [`CircuitError::InvalidPartition`] if `k` is zero or exceeds the
/// number of buses, or [`CircuitError::EmptyNetwork`] on an empty network.
pub fn partition_network(net: &Network, k: usize) -> Result<Partition> {
    partition_network_with(net, k, PartitionStrategy::Bfs)
}

/// Splits the network into (at least) `k` connected blocks with an explicit
/// [`PartitionStrategy`].
///
/// Both strategies are deterministic and single-threaded; disconnected
/// networks are partitioned per connected component with block counts
/// allocated proportionally to component size (minimum one each).
///
/// # Errors
///
/// Returns [`CircuitError::InvalidPartition`] if `k` is zero or exceeds the
/// number of buses, or [`CircuitError::EmptyNetwork`] on an empty network.
pub fn partition_network_with(
    net: &Network,
    k: usize,
    strategy: PartitionStrategy,
) -> Result<Partition> {
    partition_with_refiner(net, k, strategy, fm_refine)
}

/// A bisection refiner: `(adj, nodes, in_set, paid, side, size_a, lo, hi)`.
/// Production code only ever passes [`fm_refine`]; the parameter exists so
/// the parity tests can run the whole partitioner over a reference
/// refinement.
type Refiner = fn(&[Vec<usize>], &[usize], &[bool], &[bool], &mut [u8], &mut usize, usize, usize);

fn partition_with_refiner(
    net: &Network,
    k: usize,
    strategy: PartitionStrategy,
    refine: Refiner,
) -> Result<Partition> {
    let n = net.num_buses();
    if n == 0 {
        return Err(CircuitError::EmptyNetwork);
    }
    if k == 0 {
        return Err(CircuitError::InvalidPartition {
            what: "number of blocks must be at least 1",
        });
    }
    if k > n {
        return Err(CircuitError::InvalidPartition {
            what: "more blocks than buses",
        });
    }

    let adj = net.adjacency();
    let comps = connected_components(&adj, n);
    let alloc = allocate_blocks(&comps, k.max(comps.len()));

    let mut block_of_node = vec![usize::MAX; n];
    let mut blocks: Vec<Vec<usize>> = Vec::new();
    for (comp, &kc) in comps.iter().zip(&alloc) {
        match strategy {
            PartitionStrategy::Bfs => {
                bfs_grow_component(&adj, comp, kc, &mut block_of_node, &mut blocks);
            }
            PartitionStrategy::NestedDissection => {
                let mut sets = Vec::with_capacity(kc);
                let mut paid = vec![false; n];
                nd_recurse(&adj, comp.clone(), kc, &mut paid, &mut sets, refine);
                for mut members in sets {
                    let id = blocks.len();
                    for &u in &members {
                        block_of_node[u] = id;
                    }
                    members.sort_unstable();
                    blocks.push(members);
                }
            }
        }
    }

    if strategy == PartitionStrategy::NestedDissection {
        // Recursive bisection pays for every cut separately, but the final
        // interface is a *union*: a vertex adjacent to two cuts is counted
        // once. A k-way polish on the exact union objective lets cuts
        // migrate onto already-paid boundary (wedges sharing junctions),
        // which pairwise refinement cannot see.
        kway_refine(&adj, &mut block_of_node, blocks.len());
        for blk in &mut blocks {
            blk.clear();
        }
        for (u, &b) in block_of_node.iter().enumerate() {
            blocks[b].push(u); // ascending u keeps each block sorted
        }
    }

    Ok(finish_partition(&adj, block_of_node, blocks))
}

/// Computes the interface set and assembles the final [`Partition`].
fn finish_partition(
    adj: &[Vec<usize>],
    block_of_node: Vec<usize>,
    blocks: Vec<Vec<usize>>,
) -> Partition {
    let n = block_of_node.len();
    let mut interface: Vec<usize> = (0..n)
        .filter(|&u| adj[u].iter().any(|&v| block_of_node[v] != block_of_node[u]))
        .collect();
    interface.sort_unstable();
    Partition {
        block_of_node,
        blocks,
        interface,
    }
}

/// Connected components of the bus graph, each sorted ascending, ordered by
/// their smallest member.
fn connected_components(adj: &[Vec<usize>], n: usize) -> Vec<Vec<usize>> {
    let mut comp_of = vec![usize::MAX; n];
    let mut comps: Vec<Vec<usize>> = Vec::new();
    for s in 0..n {
        if comp_of[s] != usize::MAX {
            continue;
        }
        let id = comps.len();
        let mut members = vec![s];
        comp_of[s] = id;
        let mut queue = VecDeque::from([s]);
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u] {
                if comp_of[v] == usize::MAX {
                    comp_of[v] = id;
                    members.push(v);
                    queue.push_back(v);
                }
            }
        }
        members.sort_unstable();
        comps.push(members);
    }
    comps
}

/// Distributes `k_total` blocks over components proportionally to size:
/// every component gets one block, then remaining blocks go greedily to the
/// component with the largest per-block load (ties → lowest component
/// index), never exceeding the component's bus count.
fn allocate_blocks(comps: &[Vec<usize>], k_total: usize) -> Vec<usize> {
    let mut alloc = vec![1usize; comps.len()];
    let mut remaining = k_total.saturating_sub(comps.len());
    while remaining > 0 {
        let best = (0..comps.len())
            .filter(|&c| alloc[c] < comps[c].len())
            .max_by(|&a, &b| {
                // Compare loads size/alloc by cross-multiplication (exact),
                // breaking ties toward the lower component index.
                let la = comps[a].len() * alloc[b];
                let lb = comps[b].len() * alloc[a];
                la.cmp(&lb).then(b.cmp(&a))
            });
        match best {
            Some(c) => alloc[c] += 1,
            None => break, // every component already at one block per bus
        }
        remaining -= 1;
    }
    alloc
}

/// BFS growth of `kc` blocks inside one connected component. On a network
/// with a single component this reproduces the original global algorithm
/// bit for bit.
fn bfs_grow_component(
    adj: &[Vec<usize>],
    comp: &[usize],
    kc: usize,
    block_of_node: &mut [usize],
    blocks: &mut Vec<Vec<usize>>,
) {
    let csize = comp.len();
    let mut assigned = 0usize;
    let mut local_blocks = 0usize;
    while assigned < csize {
        // Adaptive target keeps later blocks from starving when earlier BFS
        // growth stopped short (the unassigned region can fragment once
        // earlier blocks carve pieces out of the component).
        let remaining_blocks = kc.saturating_sub(local_blocks).max(1);
        let target = (csize - assigned).div_ceil(remaining_blocks);

        // Seed at a peripheral bus: the unassigned bus with the fewest
        // unassigned neighbours (ties → lowest index). Growing inward from
        // the periphery keeps chains and radial feeders contiguous instead
        // of flooding outward from a hub and stranding disconnected tails.
        let seed = comp
            .iter()
            .copied()
            .filter(|&u| block_of_node[u] == usize::MAX)
            .min_by_key(|&u| {
                let deg = adj[u]
                    .iter()
                    .filter(|&&v| block_of_node[v] == usize::MAX)
                    .count();
                (deg, u)
            })
            .expect("unassigned bus exists while assigned < component size");
        let block_id = blocks.len();
        let mut members = Vec::with_capacity(target);
        let mut queue = VecDeque::from([seed]);
        block_of_node[seed] = block_id;
        while let Some(u) = queue.pop_front() {
            members.push(u);
            if members.len() + queue.len() >= target {
                // Drain what's already claimed for this block, then stop.
                while let Some(v) = queue.pop_front() {
                    members.push(v);
                }
                break;
            }
            for &v in &adj[u] {
                if block_of_node[v] == usize::MAX {
                    block_of_node[v] = block_id;
                    queue.push_back(v);
                }
            }
        }
        assigned += members.len();
        members.sort_unstable();
        blocks.push(members);
        local_blocks += 1;
    }
}

/// Recursive bisection of `nodes` into `kp` blocks, appended to `out` in
/// recursion order (first half fully before second half).
///
/// `paid` marks vertices already known to end up on the partition
/// interface from earlier cuts. The final interface is a union, so a cut
/// that runs through paid vertices adds nothing for them — threading this
/// through the recursion steers sub-cuts to anchor on existing boundary
/// (wedges sharing junctions) instead of paying for fresh separator.
fn nd_recurse(
    adj: &[Vec<usize>],
    mut nodes: Vec<usize>,
    kp: usize,
    paid: &mut [bool],
    out: &mut Vec<Vec<usize>>,
    refine: Refiner,
) {
    nodes.sort_unstable();
    if kp <= 1 || nodes.len() <= 1 {
        out.push(nodes);
        return;
    }
    if kp >= nodes.len() {
        // One bus per block; can only happen on tiny inputs.
        for u in nodes {
            out.push(vec![u]);
        }
        return;
    }
    // A side handed down by an earlier cut may be disconnected (repair is
    // best-effort); split per component with proportional block counts.
    let comps = components_within(adj, &nodes);
    if comps.len() > 1 {
        let alloc = allocate_blocks(&comps, kp.max(comps.len()));
        for (comp, &kc) in comps.into_iter().zip(&alloc) {
            nd_recurse(adj, comp, kc, paid, out, refine);
        }
        return;
    }

    let total = nodes.len();
    let (a, b) = bisect(adj, &nodes, paid, refine);
    // The cut just made is permanent: both sides stay in different blocks,
    // so every vertex adjacent across it is now paid interface.
    let mut in_a = vec![false; adj.len()];
    for &u in &a {
        in_a[u] = true;
    }
    let mut in_set = vec![false; adj.len()];
    for &u in &a {
        in_set[u] = true;
    }
    for &u in &b {
        in_set[u] = true;
    }
    for &u in a.iter().chain(b.iter()) {
        if adj[u].iter().any(|&v| in_set[v] && in_a[v] != in_a[u]) {
            paid[u] = true;
        }
    }
    // Apportion blocks to the actual split (the cut settles wherever the
    // boundary is cheapest inside the balance window), so block sizes still
    // converge to ~n/k even when individual cuts are uneven.
    let k1 = ((kp * a.len() + total / 2) / total).clamp(1, kp - 1);
    let k2 = kp - k1;
    nd_recurse(adj, a, k1, paid, out, refine);
    nd_recurse(adj, b, k2, paid, out, refine);
}

/// Connected components of the subgraph induced by `nodes` (assumed
/// sorted), each sorted, ordered by smallest member.
fn components_within(adj: &[Vec<usize>], nodes: &[usize]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut in_set = vec![false; n];
    for &u in nodes {
        in_set[u] = true;
    }
    let mut seen = vec![false; n];
    let mut comps: Vec<Vec<usize>> = Vec::new();
    for &s in nodes {
        if seen[s] {
            continue;
        }
        seen[s] = true;
        let mut members = vec![s];
        let mut queue = VecDeque::from([s]);
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u] {
                if in_set[v] && !seen[v] {
                    seen[v] = true;
                    members.push(v);
                    queue.push_back(v);
                }
            }
        }
        members.sort_unstable();
        comps.push(members);
    }
    comps
}

/// Bisects the connected node set `nodes` into two non-empty sides with a
/// small vertex boundary, letting the split settle anywhere inside a
/// 35–65 % balance window (the caller apportions block counts to the
/// actual side sizes, so looser balance here does not skew final blocks).
///
/// Procedure: find a pseudo-peripheral start by repeated BFS, build the BFS
/// level structure, seed with the cheapest in-window level cut, then refine
/// with Fiduccia–Mattheyses-style passes on the vertex-boundary objective
/// itself (plateau and uphill moves permitted, each vertex moves once per
/// pass, the pass rolls back to the best state it saw) and repair side
/// connectivity best-effort.
fn bisect(
    adj: &[Vec<usize>],
    nodes: &[usize],
    paid: &[bool],
    refine: Refiner,
) -> (Vec<usize>, Vec<usize>) {
    let n = adj.len();
    let mut in_set = vec![false; n];
    for &u in nodes {
        in_set[u] = true;
    }

    // Pseudo-peripheral start: min (in-set degree, index), then hop to the
    // farthest vertex of a BFS twice — on meshes this lands on a boundary
    // extreme, so level sets sweep across the short direction.
    let mut start = nodes
        .iter()
        .copied()
        .min_by_key(|&u| (adj[u].iter().filter(|&&v| in_set[v]).count(), u))
        .expect("bisect called with non-empty set");
    let mut level_of = vec![usize::MAX; n];
    for _ in 0..2 {
        let levels = bfs_levels(adj, &in_set, start, &mut level_of);
        let last = levels.last().expect("start level always exists");
        start = last[0]; // levels are built in ascending index order
    }
    let levels = bfs_levels(adj, &in_set, start, &mut level_of);

    // Candidate level cuts: side A = levels[..cut]. Cost = vertices on
    // either side of the cut with a neighbour across it, not counting
    // vertices already paid for by earlier cuts (exactly the *new*
    // contribution to the partition's interface set).
    let sizes: Vec<usize> = levels.iter().map(Vec::len).collect();
    let total: usize = sizes.iter().sum();
    debug_assert_eq!(total, nodes.len());
    let target_a = total / 2;
    let lo = (total * 2 / 10).max(1);
    let hi = (total * 8 / 10).min(total - 1);
    // In-window cuts compete on (cost, balance); if the window is empty
    // (one giant level straddles it), fall back to the best-balanced cut.
    let mut best_in: Option<(usize, usize, usize)> = None; // (cost, dist, cut)
    let mut best_out: Option<(usize, usize, usize)> = None; // (dist, cost, cut)
    let mut prefix = 0usize;
    for cut in 1..levels.len() {
        prefix += sizes[cut - 1];
        let size_a = prefix;
        // Every vertex of levels[cut] has a parent above, so all of it is
        // boundary; in levels[cut-1] only vertices with a child below are.
        let mut cost = levels[cut].iter().filter(|&&u| !paid[u]).count();
        cost += levels[cut - 1]
            .iter()
            .filter(|&&u| !paid[u] && adj[u].iter().any(|&v| in_set[v] && level_of[v] == cut))
            .count();
        let dist = size_a.abs_diff(target_a);
        if size_a >= lo && size_a <= hi {
            let cand = (cost, dist, cut);
            if best_in.is_none_or(|b| cand < b) {
                best_in = Some(cand);
            }
        } else {
            let cand = (dist, cost, cut);
            if best_out.is_none_or(|b| cand < b) {
                best_out = Some(cand);
            }
        }
    }
    let cut = best_in
        .or(best_out)
        .expect("a connected set of ≥2 nodes has ≥2 levels")
        .2;

    // side[u]: 0 = A (levels < cut), 1 = B. Only meaningful where in_set.
    let mut side = vec![0u8; n];
    let mut size_a = 0usize;
    for &u in nodes {
        if level_of[u] >= cut {
            side[u] = 1;
        } else {
            size_a += 1;
        }
    }

    refine(adj, nodes, &in_set, paid, &mut side, &mut size_a, lo, hi);

    // Connectivity repair: refinement can pinch a side into fragments; keep
    // each side's largest fragment (ties → the one with the smallest bus)
    // and push the rest across. Two rounds are enough in practice; blocks
    // stay connected on meshes, and `nd_recurse` tolerates stragglers.
    for _ in 0..2 {
        let mut changed = false;
        for s in 0..2u8 {
            let members: Vec<usize> = nodes.iter().copied().filter(|&u| side[u] == s).collect();
            if members.is_empty() {
                continue;
            }
            let frags = components_within_side(adj, &members, &in_set, &side, s);
            if frags.len() <= 1 {
                continue;
            }
            let keep = frags
                .iter()
                .enumerate()
                .max_by_key(|(i, f)| (f.len(), usize::MAX - f[0], usize::MAX - i))
                .map(|(i, _)| i)
                .expect("at least one fragment");
            for (i, frag) in frags.iter().enumerate() {
                if i == keep {
                    continue;
                }
                for &u in frag {
                    side[u] ^= 1;
                    size_a = if side[u] == 0 { size_a + 1 } else { size_a - 1 };
                }
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let a: Vec<usize> = nodes.iter().copied().filter(|&u| side[u] == 0).collect();
    let b: Vec<usize> = nodes.iter().copied().filter(|&u| side[u] == 1).collect();
    if a.is_empty() || b.is_empty() {
        // Repair degenerated into one side (possible only on adversarial
        // graphs); fall back to the raw level cut, which is never empty.
        let a: Vec<usize> = nodes
            .iter()
            .copied()
            .filter(|&u| level_of[u] < cut)
            .collect();
        let b: Vec<usize> = nodes
            .iter()
            .copied()
            .filter(|&u| level_of[u] >= cut)
            .collect();
        return (a, b);
    }
    (a, b)
}

/// Is `w` on the boundary of its side (≥ 1 in-set neighbour across)?
fn on_boundary(adj: &[Vec<usize>], in_set: &[bool], side: &[u8], w: usize) -> bool {
    adj[w].iter().any(|&x| in_set[x] && side[x] != side[w])
}

/// Change in the unpaid vertex-boundary count if `u` switches sides.
/// Vertices already `paid` by earlier cuts are on the final interface
/// regardless, so the cut may run through them for free.
fn move_delta(
    adj: &[Vec<usize>],
    in_set: &[bool],
    paid: &[bool],
    side: &mut [u8],
    u: usize,
) -> i64 {
    let count = |adj: &[Vec<usize>], side: &[u8]| -> i64 {
        let mut c = (!paid[u] && on_boundary(adj, in_set, side, u)) as i64;
        for &v in &adj[u] {
            if in_set[v] && !paid[v] {
                c += on_boundary(adj, in_set, side, v) as i64;
            }
        }
        c
    };
    let before = count(adj, side);
    side[u] ^= 1;
    let after = count(adj, side);
    side[u] ^= 1;
    after - before
}

/// Fiduccia–Mattheyses-style refinement of a bisection, minimising the
/// vertex boundary (the partition-interface contribution) directly rather
/// than the edge cut — on 4-connected meshes diagonal and axis-aligned
/// cuts tie on vertex count, so edge-cut gains would chase the wrong
/// objective.
///
/// Each pass tentatively applies the best available move (smallest boundary
/// delta, ties → lowest bus index; plateau and uphill moves included, every
/// vertex at most once per pass, side sizes confined to `[lo, hi]`), then
/// rolls back to the best state seen. Passes repeat until one fails to
/// improve. Fully deterministic: strict total order on moves, no RNG.
///
/// Only boundary vertices are candidates, and a flip can change boundary
/// membership of the flipped vertex and its in-set neighbours only, so the
/// boundary is kept as an ordered set across moves and rollbacks instead
/// of being rediscovered from the whole node set at every step.
#[allow(clippy::too_many_arguments)] // internal: the bisection state tuple
fn fm_refine(
    adj: &[Vec<usize>],
    nodes: &[usize],
    in_set: &[bool],
    paid: &[bool],
    side: &mut [u8],
    size_a: &mut usize,
    lo: usize,
    hi: usize,
) {
    let mut bnd: BTreeSet<usize> = nodes
        .iter()
        .copied()
        .filter(|&u| on_boundary(adj, in_set, side, u))
        .collect();
    // Switches `u` to the other side and re-files it and its neighbours.
    let flip = |u: usize, side: &mut [u8], size_a: &mut usize, bnd: &mut BTreeSet<usize>| {
        side[u] ^= 1;
        *size_a = if side[u] == 0 {
            *size_a + 1
        } else {
            *size_a - 1
        };
        for &w in std::iter::once(&u).chain(&adj[u]) {
            if !in_set[w] {
                continue;
            }
            if on_boundary(adj, in_set, side, w) {
                bnd.insert(w);
            } else {
                bnd.remove(&w);
            }
        }
    };
    let mut moved = vec![false; adj.len()];
    for _pass in 0..16 {
        for &u in nodes {
            moved[u] = false;
        }
        // Enough steps to wander across plateaus, bounded so a pass stays
        // O(boundary²) even on adversarial graphs.
        let step_cap = (8 * bnd.len() + 64).min(nodes.len());
        let mut history: Vec<usize> = Vec::new();
        let (mut cur, mut best, mut best_len) = (0i64, 0i64, 0usize);
        for _step in 0..step_cap {
            let mut pick: Option<(i64, usize)> = None;
            for &u in &bnd {
                if moved[u] {
                    continue;
                }
                let new_size_a = if side[u] == 0 {
                    *size_a - 1
                } else {
                    *size_a + 1
                };
                if new_size_a < lo || new_size_a > hi {
                    continue;
                }
                let cand = (move_delta(adj, in_set, paid, side, u), u);
                if pick.is_none_or(|p| cand < p) {
                    pick = Some(cand);
                }
            }
            let Some((delta, u)) = pick else { break };
            flip(u, side, size_a, &mut bnd);
            moved[u] = true;
            history.push(u);
            cur += delta;
            if cur < best {
                best = cur;
                best_len = history.len();
            }
        }
        for &u in history[best_len..].iter().rev() {
            flip(u, side, size_a, &mut bnd);
        }
        if best == 0 {
            break;
        }
    }
}

/// Is `w` adjacent to any vertex outside its block (full-graph version)?
fn kway_bnd(adj: &[Vec<usize>], block_of_node: &[usize], w: usize) -> bool {
    adj[w].iter().any(|&x| block_of_node[x] != block_of_node[w])
}

/// Change in the total interface count if `u` moves to block `tgt`.
fn kway_delta(adj: &[Vec<usize>], block_of_node: &mut [usize], u: usize, tgt: usize) -> i64 {
    let count = |bon: &[usize]| -> i64 {
        let mut c = kway_bnd(adj, bon, u) as i64;
        for &v in &adj[u] {
            c += kway_bnd(adj, bon, v) as i64;
        }
        c
    };
    let before = count(block_of_node);
    let old = block_of_node[u];
    block_of_node[u] = tgt;
    let after = count(block_of_node);
    block_of_node[u] = old;
    after - before
}

/// K-way polish of a partition on the exact interface objective
/// (`#{v : v has a cross-block neighbour}`), FM-style: best-move steps with
/// plateau/uphill tolerance and rollback to the best state of each pass.
///
/// Block sizes are confined to `[max(1, s₀/2), 2·s₀]` of each block's
/// starting size, so no block can empty out and balance cannot drift far.
/// Moves only ever target a block adjacent to the vertex, so blocks never
/// jump across connected components. Deterministic: candidates are ranked
/// by `(delta, bus, target)` with no randomness.
fn kway_refine(adj: &[Vec<usize>], block_of_node: &mut [usize], k: usize) {
    let n = adj.len();
    if k < 2 {
        return;
    }
    let mut sizes = vec![0usize; k];
    for &b in block_of_node.iter() {
        sizes[b] += 1;
    }
    // Each block may shed up to two thirds of what it arrived with —
    // imbalance is a legitimate separator-shrinking lever for block-Krylov
    // reduction — but never below a quarter of the ideal size, so no block
    // is hollowed out into a sliver.
    let ideal = n.div_ceil(k);
    let floor = (ideal / 4).max(1);
    let lo: Vec<usize> = sizes.iter().map(|&s| (s / 3).max(floor)).collect();
    let hi: Vec<usize> = sizes.iter().map(|&s| (s * 3).min(n)).collect();

    let mut bnd: BTreeSet<usize> = (0..n)
        .filter(|&u| kway_bnd(adj, block_of_node, u))
        .collect();
    let mut moved = vec![false; n];
    let mut touched: Vec<usize> = Vec::new();

    for _pass in 0..16 {
        for f in moved.iter_mut() {
            *f = false;
        }
        let step_cap = (8 * bnd.len() + 64).min(n);
        let mut history: Vec<(usize, usize)> = Vec::new(); // (bus, old block)
        let (mut cur, mut best, mut best_len) = (0i64, 0i64, 0usize);
        for _step in 0..step_cap {
            let mut pick: Option<(i64, usize, usize)> = None; // (delta, u, tgt)
            for &u in &bnd {
                if moved[u] {
                    continue;
                }
                let from = block_of_node[u];
                if sizes[from] <= lo[from] {
                    continue;
                }
                for (i, &x) in adj[u].iter().enumerate() {
                    let t = block_of_node[x];
                    if t == from || sizes[t] >= hi[t] {
                        continue;
                    }
                    if adj[u][..i].iter().any(|&y| block_of_node[y] == t) {
                        continue; // target already evaluated for this u
                    }
                    let cand = (kway_delta(adj, block_of_node, u, t), u, t);
                    if pick.is_none_or(|p| cand < p) {
                        pick = Some(cand);
                    }
                }
            }
            let Some((delta, u, tgt)) = pick else { break };
            let from = block_of_node[u];
            block_of_node[u] = tgt;
            sizes[from] -= 1;
            sizes[tgt] += 1;
            moved[u] = true;
            history.push((u, from));
            touched.clear();
            touched.push(u);
            touched.extend_from_slice(&adj[u]);
            for &w in &touched {
                if kway_bnd(adj, block_of_node, w) {
                    bnd.insert(w);
                } else {
                    bnd.remove(&w);
                }
            }
            cur += delta;
            if cur < best {
                best = cur;
                best_len = history.len();
            }
        }
        for &(u, from) in history[best_len..].iter().rev() {
            let t = block_of_node[u];
            block_of_node[u] = from;
            sizes[t] -= 1;
            sizes[from] += 1;
            touched.clear();
            touched.push(u);
            touched.extend_from_slice(&adj[u]);
            for &w in &touched {
                if kway_bnd(adj, block_of_node, w) {
                    bnd.insert(w);
                } else {
                    bnd.remove(&w);
                }
            }
        }
        if best == 0 {
            break;
        }
    }
}

/// BFS level structure of the in-set subgraph from `start`; fills
/// `level_of` (scratch, reset for the set) and returns per-level member
/// lists in ascending index order.
fn bfs_levels(
    adj: &[Vec<usize>],
    in_set: &[bool],
    start: usize,
    level_of: &mut [usize],
) -> Vec<Vec<usize>> {
    for (u, flag) in in_set.iter().enumerate() {
        if *flag {
            level_of[u] = usize::MAX;
        }
    }
    level_of[start] = 0;
    let mut frontier = vec![start];
    let mut levels = Vec::new();
    let mut depth = 0usize;
    while !frontier.is_empty() {
        levels.push(frontier.clone());
        depth += 1;
        let mut next = Vec::new();
        for &u in &frontier {
            for &v in &adj[u] {
                if in_set[v] && level_of[v] == usize::MAX {
                    level_of[v] = depth;
                    next.push(v);
                }
            }
        }
        next.sort_unstable();
        next.dedup();
        frontier = next;
    }
    levels
}

/// Connected fragments of one side of a bisection, ordered by smallest
/// member; `members` is the side's node list (ascending).
fn components_within_side(
    adj: &[Vec<usize>],
    members: &[usize],
    in_set: &[bool],
    side: &[u8],
    s: u8,
) -> Vec<Vec<usize>> {
    let mut seen = vec![false; adj.len()];
    let mut frags: Vec<Vec<usize>> = Vec::new();
    for &m in members {
        if seen[m] {
            continue;
        }
        seen[m] = true;
        let mut frag = vec![m];
        let mut queue = VecDeque::from([m]);
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u] {
                if in_set[v] && side[v] == s && !seen[v] {
                    seen[v] = true;
                    frag.push(v);
                    queue.push_back(v);
                }
            }
        }
        frag.sort_unstable();
        frags.push(frag);
    }
    frags
}

/// Groups descriptor states by partition block.
///
/// Node-voltage states follow their bus's block; inductor and voltage-source
/// current states follow the block of their first non-ground terminal.
///
/// Returns `(new_of_old, block_sizes)`: `new_of_old[old_state] = new_state`
/// is the symmetric permutation that makes the descriptor block-contiguous,
/// and `block_sizes[i]` is the number of states in block `i` after grouping.
pub fn grouped_state_order(
    net: &Network,
    desc: &Descriptor,
    part: &Partition,
) -> (Vec<usize>, Vec<usize>) {
    let block_of_state = |s: &StateKind| -> usize {
        match *s {
            StateKind::NodeVoltage(bus) => part.block_of_node[bus],
            StateKind::InductorCurrent(ei) => {
                let e = &net.elements()[ei];
                let anchor = if e.a != GROUND { e.a } else { e.b };
                part.block_of_node[anchor]
            }
            StateKind::VsourceCurrent(si) => {
                let v = &net.voltage_sources()[si];
                let anchor = if v.plus != GROUND { v.plus } else { v.minus };
                part.block_of_node[anchor]
            }
        }
    };

    let k = part.num_blocks();
    let mut new_of_old = vec![0usize; desc.dim()];
    let mut block_sizes = vec![0usize; k];
    let mut next = 0usize;
    for (blk, size) in block_sizes.iter_mut().enumerate() {
        for (old, s) in desc.states.iter().enumerate() {
            if block_of_state(s) == blk {
                new_of_old[old] = next;
                next += 1;
                *size += 1;
            }
        }
    }
    debug_assert_eq!(next, desc.dim());
    (new_of_old, block_sizes)
}

/// Interface **states** of the block-grouped descriptor: the node-voltage
/// states of interface buses (buses with a neighbour in another block),
/// expressed as indices into the *permuted* state order and sorted
/// ascending.
///
/// This is the index set the paper's exact boundary treatment preserves:
/// the projector can pin these rows to unit vectors so interface voltages
/// survive the reduction verbatim. Inductor and voltage-source current
/// states never qualify — the boundary quantities of the scheme are bus
/// voltages, and branch currents always follow their anchor bus's block.
pub fn interface_state_indices(
    desc: &Descriptor,
    part: &Partition,
    new_of_old: &[usize],
) -> Vec<usize> {
    let mut is_interface = vec![false; part.block_of_node.len()];
    for &bus in &part.interface {
        is_interface[bus] = true;
    }
    let mut states: Vec<usize> = desc
        .states
        .iter()
        .enumerate()
        .filter_map(|(old, s)| match *s {
            StateKind::NodeVoltage(bus) if is_interface[bus] => Some(new_of_old[old]),
            _ => None,
        })
        .collect();
    states.sort_unstable();
    states
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mna::assemble;
    use crate::network::Network;

    fn chain(n: usize) -> Network {
        let mut net = Network::new();
        let buses: Vec<usize> = (0..n).map(|i| net.add_bus(format!("b{i}"))).collect();
        for w in buses.windows(2) {
            net.add_resistor(w[0], w[1], 1.0).unwrap();
        }
        for &b in &buses {
            net.add_capacitor(b, GROUND, 1.0).unwrap();
        }
        net
    }

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

    #[test]
    fn chain_splits_into_contiguous_blocks() {
        let net = chain(12);
        let p = partition_network(&net, 3).unwrap();
        assert_eq!(p.num_blocks(), 3);
        assert_eq!(p.blocks[0], (0..4).collect::<Vec<_>>());
        assert_eq!(p.blocks[1], (4..8).collect::<Vec<_>>());
        assert_eq!(p.blocks[2], (8..12).collect::<Vec<_>>());
        // Interface = the four buses adjacent to a cut.
        assert_eq!(p.interface, vec![3, 4, 7, 8]);
    }

    #[test]
    fn every_block_is_connected() {
        let net = chain(20);
        let p = partition_network(&net, 4).unwrap();
        let adj = net.adjacency();
        for blk in &p.blocks {
            // BFS restricted to the block must reach every member.
            let inside: std::collections::HashSet<_> = blk.iter().copied().collect();
            let mut seen = std::collections::HashSet::from([blk[0]]);
            let mut q = VecDeque::from([blk[0]]);
            while let Some(u) = q.pop_front() {
                for &v in &adj[u] {
                    if inside.contains(&v) && seen.insert(v) {
                        q.push_back(v);
                    }
                }
            }
            assert_eq!(seen.len(), blk.len(), "block {blk:?} is disconnected");
        }
    }

    #[test]
    fn disconnected_components_get_own_blocks() {
        let mut net = chain(6);
        // An isolated island of two buses.
        let x = net.add_bus("x");
        let y = net.add_bus("y");
        net.add_resistor(x, y, 1.0).unwrap();
        let p = partition_network(&net, 2).unwrap();
        assert!(p.num_blocks() >= 2);
        let covered: usize = p.blocks.iter().map(Vec::len).sum();
        assert_eq!(covered, net.num_buses());
        // The island must not share a block with the chain.
        assert_eq!(p.block_of_node[x], p.block_of_node[y]);
        assert_ne!(p.block_of_node[x], p.block_of_node[0]);
    }

    #[test]
    fn singleton_buses_become_singleton_blocks() {
        // Three isolated buses plus a chain; every strategy must give each
        // island its own block, never a panic or a block spanning islands.
        for strategy in [PartitionStrategy::Bfs, PartitionStrategy::NestedDissection] {
            let mut net = chain(5);
            let s1 = net.add_bus("s1");
            let s2 = net.add_bus("s2");
            let s3 = net.add_bus("s3");
            let p = partition_network_with(&net, 2, strategy).unwrap();
            let covered: usize = p.blocks.iter().map(Vec::len).sum();
            assert_eq!(covered, net.num_buses());
            for &s in &[s1, s2, s3] {
                assert_eq!(p.blocks[p.block_of_node[s]], vec![s], "{strategy:?}");
            }
            // Isolated buses touch nothing, so they are never interface.
            for &s in &[s1, s2, s3] {
                assert!(!p.interface.contains(&s), "{strategy:?}");
            }
        }
    }

    #[test]
    fn block_allocation_is_proportional() {
        // One 9-bus chain and one 3-bus chain, k = 4: the big component
        // should get 3 blocks, the small one 1.
        let mut net = chain(9);
        let a = net.add_bus("a");
        let b = net.add_bus("b");
        let c = net.add_bus("c");
        net.add_resistor(a, b, 1.0).unwrap();
        net.add_resistor(b, c, 1.0).unwrap();
        let p = partition_network(&net, 4).unwrap();
        assert_eq!(p.num_blocks(), 4);
        let big_blocks: std::collections::HashSet<_> = (0..9).map(|u| p.block_of_node[u]).collect();
        assert_eq!(big_blocks.len(), 3);
        assert_eq!(p.block_of_node[a], p.block_of_node[c]);
    }

    #[test]
    fn nested_dissection_invariants_on_grid() {
        let net = grid(12, 12);
        let p = partition_network_with(&net, 4, PartitionStrategy::NestedDissection).unwrap();
        assert_eq!(p.num_blocks(), 4);
        let covered: usize = p.blocks.iter().map(Vec::len).sum();
        assert_eq!(covered, net.num_buses());
        // Imbalance is a deliberate separator-shrinking lever (the bisection
        // balance window is 20–80 %), but no block may degenerate to a
        // sliver or swallow nearly the whole mesh.
        for blk in &p.blocks {
            assert!(
                blk.len() >= 6 && blk.len() <= 120,
                "block size {}",
                blk.len()
            );
        }
        // Interface set matches cross-block adjacency exactly.
        let adj = net.adjacency();
        let expect: Vec<usize> = (0..net.num_buses())
            .filter(|&u| {
                adj[u]
                    .iter()
                    .any(|&v| p.block_of_node[v] != p.block_of_node[u])
            })
            .collect();
        assert_eq!(p.interface, expect);
    }

    /// Fast smoke guard on a small mesh. The authoritative ≥ 25 % separator
    /// reduction is asserted at n = 10⁴ in `tests/partition_invariants.rs`
    /// and gated by the scaling benchmark; small meshes leave the FM
    /// refinement less room, so the bar here is looser.
    #[test]
    fn nested_dissection_beats_bfs_on_mesh_separators() {
        let net = grid(40, 40);
        let bfs = partition_network_with(&net, 8, PartitionStrategy::Bfs).unwrap();
        let nd = partition_network_with(&net, 8, PartitionStrategy::NestedDissection).unwrap();
        assert!(
            nd.interface.len() * 20 <= bfs.interface.len() * 17,
            "nd separator {} not ≤ 85% of bfs {}",
            nd.interface.len(),
            bfs.interface.len()
        );
    }

    /// The refinement as it was before the boundary became a maintained
    /// set: every step rediscovers the boundary by scanning all of `nodes`.
    /// Kept only as the reference [`fm_refine`] must reproduce move for
    /// move.
    #[allow(clippy::too_many_arguments)]
    fn fm_refine_full_scan(
        adj: &[Vec<usize>],
        nodes: &[usize],
        in_set: &[bool],
        paid: &[bool],
        side: &mut [u8],
        size_a: &mut usize,
        lo: usize,
        hi: usize,
    ) {
        let mut moved = vec![false; adj.len()];
        for _pass in 0..16 {
            for &u in nodes {
                moved[u] = false;
            }
            let boundary_now = nodes
                .iter()
                .filter(|&&u| on_boundary(adj, in_set, side, u))
                .count();
            let step_cap = (8 * boundary_now + 64).min(nodes.len());
            let mut history: Vec<usize> = Vec::new();
            let (mut cur, mut best, mut best_len) = (0i64, 0i64, 0usize);
            for _step in 0..step_cap {
                let mut pick: Option<(i64, usize)> = None;
                for &u in nodes {
                    if moved[u] || !on_boundary(adj, in_set, side, u) {
                        continue;
                    }
                    let new_size_a = if side[u] == 0 {
                        *size_a - 1
                    } else {
                        *size_a + 1
                    };
                    if new_size_a < lo || new_size_a > hi {
                        continue;
                    }
                    let cand = (move_delta(adj, in_set, paid, side, u), u);
                    if pick.is_none_or(|p| cand < p) {
                        pick = Some(cand);
                    }
                }
                let Some((delta, u)) = pick else { break };
                side[u] ^= 1;
                *size_a = if side[u] == 0 {
                    *size_a + 1
                } else {
                    *size_a - 1
                };
                moved[u] = true;
                history.push(u);
                cur += delta;
                if cur < best {
                    best = cur;
                    best_len = history.len();
                }
            }
            for &u in history[best_len..].iter().rev() {
                side[u] ^= 1;
                *size_a = if side[u] == 0 {
                    *size_a + 1
                } else {
                    *size_a - 1
                };
            }
            if best == 0 {
                break;
            }
        }
    }

    /// A substation feeding `feeders` radial chains of `len` buses.
    fn feeder(feeders: usize, len: usize) -> Network {
        let mut net = Network::new();
        let substation = net.add_bus("substation");
        for f in 0..feeders {
            let mut prev = substation;
            for k in 0..len {
                let bus = net.add_bus(format!("f{f}_{k}"));
                net.add_resistor(prev, bus, 1.0).unwrap();
                prev = bus;
            }
        }
        net
    }

    #[test]
    fn maintained_boundary_refinement_matches_full_scan_reference() {
        let nd = PartitionStrategy::NestedDissection;
        let nets = [
            ("grid 60x60", grid(60, 60)),
            ("grid 100x100", grid(100, 100)),
            ("ladder 3000", chain(3000)),
            ("feeder 40x30", feeder(40, 30)),
        ];
        for (name, net) in &nets {
            for k in [2, 4, 7, 8, 16] {
                let got = partition_network_with(net, k, nd).unwrap();
                let want = partition_with_refiner(net, k, nd, fm_refine_full_scan).unwrap();
                assert_eq!(got.block_of_node, want.block_of_node, "{name} k={k}");
                assert_eq!(got.interface, want.interface, "{name} k={k}");
            }
        }
    }

    #[test]
    fn strategies_are_deterministic() {
        let net = grid(15, 17);
        for strategy in [PartitionStrategy::Bfs, PartitionStrategy::NestedDissection] {
            let p1 = partition_network_with(&net, 6, strategy).unwrap();
            let p2 = partition_network_with(&net, 6, strategy).unwrap();
            assert_eq!(p1, p2, "{strategy:?}");
        }
    }

    #[test]
    fn invalid_k_rejected() {
        let net = chain(3);
        assert!(partition_network(&net, 0).is_err());
        assert!(partition_network(&net, 4).is_err());
        assert!(partition_network(&Network::new(), 1).is_err());
        let nd = PartitionStrategy::NestedDissection;
        assert!(partition_network_with(&net, 0, nd).is_err());
        assert!(partition_network_with(&net, 4, nd).is_err());
    }

    #[test]
    fn interface_states_are_voltage_states_of_interface_buses() {
        let mut net = chain(12);
        // An inductor whose current state anchors at an interface bus must
        // still be excluded: only node voltages are boundary quantities.
        net.add_inductor(3, 4, 1e-3).unwrap();
        net.add_port(0).unwrap();
        let d = assemble(&net).unwrap();
        let p = partition_network(&net, 3).unwrap();
        assert_eq!(p.interface, vec![3, 4, 7, 8]);
        let (new_of_old, sizes) = grouped_state_order(&net, &d, &p);
        let states = interface_state_indices(&d, &p, &new_of_old);
        assert_eq!(states.len(), 4);
        // Every returned index is the permuted position of one interface
        // bus's voltage state, and the list is sorted.
        for w in states.windows(2) {
            assert!(w[0] < w[1]);
        }
        for (old, s) in d.states.iter().enumerate() {
            if let StateKind::NodeVoltage(bus) = *s {
                let expect = p.interface.contains(&bus);
                assert_eq!(states.contains(&new_of_old[old]), expect, "bus {bus}");
            } else {
                assert!(!states.contains(&new_of_old[old]), "current state leaked");
            }
        }
        // All interface states fall inside valid block ranges.
        let n: usize = sizes.iter().sum();
        assert!(states.iter().all(|&s| s < n));
    }

    #[test]
    fn grouped_state_order_is_block_contiguous() {
        let mut net = chain(8);
        // Add an inductor anchored in the second half.
        net.add_inductor(6, 7, 1e-3).unwrap();
        net.add_port(0).unwrap();
        let d = assemble(&net).unwrap();
        let p = partition_network(&net, 2).unwrap();
        let (new_of_old, sizes) = grouped_state_order(&net, &d, &p);
        assert_eq!(sizes.iter().sum::<usize>(), d.dim());
        assert_eq!(sizes.len(), 2);
        // The inductor current state (last old state) anchors at bus 6 → block 1.
        assert_eq!(sizes, vec![4, 5]);
        // Permutation is a bijection.
        let mut seen = vec![false; d.dim()];
        for &v in &new_of_old {
            assert!(!seen[v]);
            seen[v] = true;
        }
        // States of block 0 come first.
        for &pos in &new_of_old[0..4] {
            assert!(pos < 4);
        }
    }

    #[test]
    fn pack_unpack_round_trips() {
        let mut net = Network::new();
        for i in 0..12 {
            net.add_bus(format!("b{i}"));
        }
        for i in 0..11 {
            net.add_resistor(i, i + 1, 1.0).unwrap();
        }
        net.add_port(0).unwrap();
        let p = partition_network(&net, 3).unwrap();
        let packed = p.pack();
        let back = Partition::unpack(&packed).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn unpack_rejects_malformed_encodings() {
        let mut net = Network::new();
        for i in 0..8 {
            net.add_bus(format!("b{i}"));
        }
        for i in 0..7 {
            net.add_resistor(i, i + 1, 1.0).unwrap();
        }
        net.add_port(0).unwrap();
        let good = partition_network(&net, 2).unwrap().pack();
        // Empty, truncated, out-of-range block, unsorted interface.
        assert!(Partition::unpack(&[]).is_err());
        assert!(Partition::unpack(&good[..good.len() - 1]).is_err());
        let mut bad_block = good.clone();
        bad_block[2] = 99;
        assert!(Partition::unpack(&bad_block).is_err());
        let mut bad_iface = good.clone();
        let ni = good[2 + 8] as usize;
        if ni >= 1 {
            bad_iface[2 + 8 + 1] = 1000; // interface bus out of range
            assert!(Partition::unpack(&bad_iface).is_err());
        }
        // A crafted huge block count (or bus count) must be rejected
        // before any allocation sized by it.
        let mut huge_k = good.clone();
        huge_k[1] = 1 << 40;
        assert!(Partition::unpack(&huge_k).is_err());
        assert!(Partition::unpack(&[1 << 40, 2, 0]).is_err());
    }
}
