//! Fill-reducing symmetric orderings.
//!
//! Sparse LU fill-in is governed by the elimination order. All orderings
//! operate on the symmetrized sparsity pattern `A + Aᵀ` (MNA matrices are
//! structurally symmetric, so nothing is lost). Three candidates:
//!
//! - [`amd_order`] — approximate minimum degree on the quotient
//!   (elimination) graph: eliminate the variable of smallest approximate
//!   degree, replace its neighbourhood by a clique represented implicitly
//!   as an *element*, absorb the elements it covers. The degree is the
//!   loose bound `|A(v)| + Σ(|L(e)| − 1)` over adjacent elements, heap
//!   ties go to the lower index and there are no supervariables: exact on
//!   trees (a leaf always has the smallest degree), well short of the
//!   best order on 2-D meshes.
//! - [`nd_order`] — nested dissection on BFS level structures: interiors
//!   first, the separator between them last, recursively, with
//!   `amd_order` on the leaves. The external / boundary / internal
//!   arrangement of a Kron reduction, applied to the factorisation.
//! - [`rcm_order`] — reverse Cuthill–McKee, a bandwidth-minimizing BFS from
//!   a pseudo-peripheral vertex. Simple and fully predictable; for when
//!   profile (banded) structure is preferable to general fill reduction.
//!
//! # The default measures instead of naming
//!
//! [`FillOrdering::MinFill`] (see [`order_graph`]) computes `amd_order`
//! and counts its factor with [`symbolic_fill`] — exact, `O(|L|)`, equal
//! entry for entry to what the numeric factorisation stores when pivots
//! stay on the diagonal. Every edge of the graph is an entry of every
//! factor, so `|L| = |E|` cannot be beaten: a fill-free minimum-degree
//! factor (ladders, radial feeders, every tree) is kept and nothing else
//! is computed. Otherwise `nd_order` is computed and counted too and the
//! smaller factor wins, minimum degree on a tie. No pattern gets a larger
//! symbolic factor than minimum degree alone would give it, and the
//! choice is a function of the pattern only.
//!
//! Measured at `n ≈ 10⁴` (entries per triangular factor; one real-shift
//! factorisation of `G + sC`; 2-CPU container, release build):
//!
//! | pattern | edges | `amd_order` fill | order | factor | `nd_order` fill | order | factor | kept |
//! |---|---:|---:|---:|---:|---:|---:|---:|---|
//! | 100 × 100 mesh | 19 800 | 391 230 | 33 ms | 206 ms | 188 166 | 7.2 ms | 32 ms | dissection |
//! | 10⁴-bus ladder | 9 999 | 9 999 | 2.0 ms | 0.70 ms | 19 901 | 4.9 ms | 0.98 ms | minimum degree |
//! | 40 × 250 feeder | 10 000 | 10 000 | 2.1 ms | 0.72 ms | 23 661 | 2.7 ms | 1.98 ms | minimum degree |
//!
//! The two symbolic counts on the mesh cost 1.4 ms together; on the ladder
//! and the feeder the selection stops after the first (0.07 ms).
//!
//! All orderings return `old_of_new` permutations: `perm[k]` is the
//! original index eliminated at step `k`.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Regions of at most this many vertices are ordered by minimum degree
/// instead of being dissected further: below it a separator costs more
/// fill than the greedy order saves.
const ND_LEAF: usize = 128;

/// Which fill-reducing ordering the factorization applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FillOrdering {
    /// Whichever of [`Amd`](Self::Amd) and
    /// [`NestedDissection`](Self::NestedDissection) has the smaller
    /// symbolic factor on this pattern (default; see [`order_graph`]).
    #[default]
    MinFill,
    /// Approximate minimum degree.
    Amd,
    /// Level-set nested dissection with minimum-degree leaves.
    NestedDissection,
    /// Reverse Cuthill–McKee (bandwidth/profile reduction).
    Rcm,
    /// Identity ordering — factor in the given order.
    Natural,
}

impl FillOrdering {
    /// Short lower-case name, as recorded on the `pencil.order` span.
    pub(crate) fn name(self) -> &'static str {
        match self {
            FillOrdering::MinFill => "min_fill",
            FillOrdering::Amd => "amd",
            FillOrdering::NestedDissection => "nd",
            FillOrdering::Rcm => "rcm",
            FillOrdering::Natural => "natural",
        }
    }
}

/// Symmetrized pattern adjacency of a square pattern given as raw CSC
/// arrays (`col_ptr.len() − 1` columns, row indices below that): neighbour
/// lists of `A + Aᵀ` without self-loops, each sorted ascending.
pub(crate) fn csc_pattern_adjacency(col_ptr: &[usize], row_idx: &[usize]) -> Vec<Vec<usize>> {
    let n = col_ptr.len() - 1;
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for j in 0..n {
        for &i in &row_idx[col_ptr[j]..col_ptr[j + 1]] {
            if i != j {
                adj[i].push(j);
                adj[j].push(i);
            }
        }
    }
    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }
    adj
}

/// An ordering together with how it was arrived at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderChoice {
    /// The `old_of_new` permutation.
    pub perm: Vec<usize>,
    /// The candidate that produced `perm`; never
    /// [`FillOrdering::MinFill`].
    pub kept: FillOrdering,
    /// [`symbolic_fill`] of the minimum-degree candidate (0 unless the
    /// selection ran).
    pub fill_amd: usize,
    /// [`symbolic_fill`] of the dissection candidate (0 unless the
    /// selection had to compute it).
    pub fill_nd: usize,
}

/// Orders an undirected graph (sorted neighbour lists, no self-loops).
///
/// The explicit kinds run their one algorithm and count nothing.
/// [`FillOrdering::MinFill`] applies the selection rule of the
/// [module docs](self#the-default-measures-instead-of-naming) and reports
/// the symbolic factor sizes it compared.
pub fn order_graph(adj: &[Vec<usize>], kind: FillOrdering) -> OrderChoice {
    let explicit = |perm, kept| OrderChoice {
        perm,
        kept,
        fill_amd: 0,
        fill_nd: 0,
    };
    match kind {
        FillOrdering::Natural => explicit((0..adj.len()).collect(), kind),
        FillOrdering::Rcm => explicit(rcm_order(adj), kind),
        FillOrdering::Amd => explicit(amd_order(adj), kind),
        FillOrdering::NestedDissection => explicit(nd_order(adj), kind),
        FillOrdering::MinFill => {
            let amd = amd_order(adj);
            let fill_amd = symbolic_fill(adj, &amd);
            let edges = adj.iter().map(Vec::len).sum::<usize>() / 2;
            let mut choice = OrderChoice {
                perm: amd,
                kept: FillOrdering::Amd,
                fill_amd,
                fill_nd: 0,
            };
            if fill_amd > edges {
                let nd = nd_order(adj);
                choice.fill_nd = symbolic_fill(adj, &nd);
                if choice.fill_nd < fill_amd {
                    choice.perm = nd;
                    choice.kept = FillOrdering::NestedDissection;
                }
            }
            choice
        }
    }
}

/// Below-diagonal entry count of the Cholesky factor of a matrix with
/// graph `adj` eliminated in the order `q` (`old_of_new`) — for a
/// structurally symmetric matrix factored without off-diagonal pivoting,
/// the stored size of each triangular LU factor.
///
/// One pass builds the elimination tree (Liu's algorithm with path
/// compression) and, row by row, walks the row subtree: every tree node
/// first reached from row `k` is one entry `L(k, ·)`, so the count is
/// exact and costs `O(|L|)`.
///
/// # Panics
///
/// Panics if `q` is not a permutation of `0..adj.len()`.
pub fn symbolic_fill(adj: &[Vec<usize>], q: &[usize]) -> usize {
    const NONE: usize = usize::MAX;
    let n = adj.len();
    assert_eq!(q.len(), n, "symbolic_fill: ordering length");
    let mut pos = vec![NONE; n];
    for (k, &v) in q.iter().enumerate() {
        assert!(pos[v] == NONE, "symbolic_fill: ordering repeats a vertex");
        pos[v] = k;
    }
    let mut parent = vec![NONE; n];
    let mut ancestor = vec![NONE; n];
    let mut mark = vec![NONE; n];
    let mut fill = 0;
    for k in 0..n {
        for &v in &adj[q[k]] {
            let mut i = pos[v];
            while i < k {
                let next = ancestor[i];
                ancestor[i] = k;
                if next == NONE {
                    parent[i] = k;
                }
                i = next;
            }
        }
        mark[k] = k;
        for &v in &adj[q[k]] {
            let mut i = pos[v];
            while i < k && mark[i] != k {
                mark[i] = k;
                fill += 1;
                i = parent[i];
            }
        }
    }
    fill
}

/// Reverse Cuthill–McKee ordering of an undirected graph.
///
/// Each connected component is traversed by BFS from a pseudo-peripheral
/// vertex (found by a double BFS from a minimum-degree seed), visiting
/// neighbours in order of increasing degree; the concatenated order is then
/// reversed.
pub fn rcm_order(adj: &[Vec<usize>]) -> Vec<usize> {
    let n = adj.len();
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut queue = VecDeque::new();
    let mut bfs = LevelBfs::new(n);
    bfs.set_region(0..n);
    while order.len() < n {
        // Min-degree unvisited seed, pushed to the component's far end.
        let seed = (0..n)
            .filter(|&v| !visited[v])
            .min_by_key(|&v| (adj[v].len(), v))
            .expect("unvisited vertex exists");
        let start = bfs.far_vertex(adj, seed);

        let begin = order.len();
        visited[start] = true;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            let mut nbrs: Vec<usize> = adj[u].iter().copied().filter(|&v| !visited[v]).collect();
            nbrs.sort_unstable_by_key(|&v| (adj[v].len(), v));
            for v in nbrs {
                visited[v] = true;
                queue.push_back(v);
            }
        }
        order[begin..].reverse();
    }
    order
}

/// Breadth-first level structures restricted to a vertex subset.
///
/// Region membership and visit marks are stamps, so a traversal of a
/// region costs its own edges — not `O(n)` — however many regions one
/// ordering call walks.
struct LevelBfs {
    /// `region[v] == region_stamp` ⇔ `v` is in the current region.
    region: Vec<usize>,
    region_stamp: usize,
    /// `seen[v] == pass` ⇔ `v` was reached since [`new_pass`](Self::new_pass).
    seen: Vec<usize>,
    pass: usize,
    /// Level of every vertex reached in the current pass.
    level_of: Vec<usize>,
    /// Vertices of the last traversal in visit order; level `l` is
    /// `order[level_ptr[l]..level_ptr[l + 1]]`.
    order: Vec<usize>,
    level_ptr: Vec<usize>,
}

impl LevelBfs {
    fn new(n: usize) -> Self {
        LevelBfs {
            region: vec![0; n],
            region_stamp: 0,
            seen: vec![0; n],
            pass: 0,
            level_of: vec![0; n],
            order: Vec::new(),
            level_ptr: Vec::new(),
        }
    }

    fn set_region(&mut self, verts: impl IntoIterator<Item = usize>) {
        self.region_stamp += 1;
        for v in verts {
            self.region[v] = self.region_stamp;
        }
    }

    fn in_region(&self, v: usize) -> bool {
        self.region[v] == self.region_stamp
    }

    fn region_degree(&self, adj: &[Vec<usize>], v: usize) -> usize {
        adj[v].iter().filter(|&&w| self.in_region(w)).count()
    }

    /// Forgets every visit mark; traversals of one pass never revisit each
    /// other's vertices, which is how components are found in one sweep.
    fn new_pass(&mut self) {
        self.pass += 1;
    }

    fn num_levels(&self) -> usize {
        self.level_ptr.len() - 1
    }

    fn level(&self, l: usize) -> &[usize] {
        &self.order[self.level_ptr[l]..self.level_ptr[l + 1]]
    }

    /// Level structure of `start`'s in-region component.
    fn run(&mut self, adj: &[Vec<usize>], start: usize) {
        self.order.clear();
        self.level_ptr.clear();
        self.level_ptr.push(0);
        self.seen[start] = self.pass;
        self.level_of[start] = 0;
        self.order.push(start);
        let mut head = 0;
        while head < self.order.len() {
            let end = self.order.len();
            self.level_ptr.push(end);
            let depth = self.level_ptr.len() - 1;
            for at in head..end {
                let u = self.order[at];
                for &v in &adj[u] {
                    if self.in_region(v) && self.seen[v] != self.pass {
                        self.seen[v] = self.pass;
                        self.level_of[v] = depth;
                        self.order.push(v);
                    }
                }
            }
            head = end;
        }
    }

    /// A pseudo-peripheral vertex of `seed`'s in-region component: twice,
    /// re-root at the deepest level's vertex of minimum in-region degree
    /// (ties → index).
    fn far_vertex(&mut self, adj: &[Vec<usize>], seed: usize) -> usize {
        let mut far = seed;
        for _ in 0..2 {
            self.new_pass();
            self.run(adj, far);
            far = self
                .level(self.num_levels() - 1)
                .iter()
                .copied()
                .min_by_key(|&v| (self.region_degree(adj, v), v))
                .expect("a level structure has no empty level");
        }
        far
    }
}

/// Nested-dissection ordering of an undirected graph: interiors first, the
/// separator between them last, recursively.
///
/// A region of at most 128 vertices (`ND_LEAF`) is ordered by
/// [`amd_order`] on its induced subgraph. A larger region is split into its connected
/// components (one linear sweep, however many there are), and each
/// component of more than `ND_LEAF` vertices is bisected on the BFS level
/// structure of a pseudo-peripheral vertex: the separator is the smallest
/// interior level that leaves at least 30 % of the component on each side
/// (the median level when none does), trimmed to its vertices with a
/// neighbour in the next level — the rest join the near side. Components
/// whose level structure has fewer than three levels have no interior
/// level and go to `amd_order` as well. The order is left, right,
/// separator, every set in ascending vertex index, so it is a function of
/// the graph alone.
pub fn nd_order(adj: &[Vec<usize>]) -> Vec<usize> {
    let n = adj.len();
    // `perm[lo..hi]` always holds the vertices whose final positions are
    // `lo..hi`; a range is refined in place until minimum degree fixes it.
    let mut perm: Vec<usize> = (0..n).collect();
    let mut bfs = LevelBfs::new(n);
    let mut local_of = vec![0usize; n];
    // (lo, hi, known to be connected)
    let mut todo = vec![(0, n, false)];
    while let Some((lo, hi, connected)) = todo.pop() {
        bfs.set_region(perm[lo..hi].iter().copied());
        if hi - lo <= ND_LEAF {
            amd_region(adj, &bfs, &mut local_of, &mut perm[lo..hi]);
            continue;
        }
        if !connected {
            // One sweep finds every component: in order of smallest
            // member, each ascending, each queued as a region of its own.
            let verts = perm[lo..hi].to_vec();
            bfs.new_pass();
            let mut at = lo;
            for &s in &verts {
                if bfs.seen[s] == bfs.pass {
                    continue;
                }
                bfs.run(adj, s);
                if bfs.order.len() == hi - lo {
                    break; // the region is one component: dissect it below
                }
                let end = at + bfs.order.len();
                perm[at..end].copy_from_slice(&bfs.order);
                perm[at..end].sort_unstable();
                todo.push((at, end, true));
                at = end;
            }
            if at > lo {
                continue;
            }
        }

        let seed = perm[lo..hi]
            .iter()
            .copied()
            .min_by_key(|&v| (bfs.region_degree(adj, v), v))
            .expect("region is non-empty");
        let root = bfs.far_vertex(adj, seed);
        bfs.new_pass();
        bfs.run(adj, root);
        let levels = bfs.num_levels();
        if levels < 3 {
            amd_region(adj, &bfs, &mut local_of, &mut perm[lo..hi]);
            continue;
        }

        let total = hi - lo;
        let mut best: Option<(usize, usize)> = None; // (level size, level)
        for l in 1..levels - 1 {
            let (left, right) = (bfs.level_ptr[l], total - bfs.level_ptr[l + 1]);
            let cand = (bfs.level(l).len(), l);
            if 10 * left >= 3 * total && 10 * right >= 3 * total && best.is_none_or(|b| cand < b) {
                best = Some(cand);
            }
        }
        let cut = match best {
            Some((_, l)) => l,
            None => bfs.level_of[bfs.order[total / 2]].clamp(1, levels - 2),
        };

        let mut left: Vec<usize> = bfs.order[..bfs.level_ptr[cut]].to_vec();
        let mut sep = Vec::new();
        for &v in bfs.level(cut) {
            let faces_right = adj[v]
                .iter()
                .any(|&w| bfs.in_region(w) && bfs.level_of[w] == cut + 1);
            let side = if faces_right { &mut sep } else { &mut left };
            side.push(v);
        }
        let mut right: Vec<usize> = bfs.order[bfs.level_ptr[cut + 1]..].to_vec();
        left.sort_unstable();
        right.sort_unstable();
        sep.sort_unstable();
        let (mid, tail) = (lo + left.len(), hi - sep.len());
        perm[lo..mid].copy_from_slice(&left);
        perm[mid..tail].copy_from_slice(&right);
        perm[tail..hi].copy_from_slice(&sep);
        todo.push((lo, mid, false));
        todo.push((mid, tail, false));
    }
    perm
}

/// Reorders `verts` (ascending, and the current region of `bfs`) by
/// [`amd_order`] on the subgraph they induce. `local_of` is scratch of
/// graph size; entries outside the region are never read.
fn amd_region(adj: &[Vec<usize>], bfs: &LevelBfs, local_of: &mut [usize], verts: &mut [usize]) {
    for (i, &v) in verts.iter().enumerate() {
        local_of[v] = i;
    }
    let sub: Vec<Vec<usize>> = verts
        .iter()
        .map(|&v| {
            adj[v]
                .iter()
                .filter(|&&w| bfs.in_region(w))
                .map(|&w| local_of[w])
                .collect()
        })
        .collect();
    let globals = verts.to_vec();
    for (slot, p) in verts.iter_mut().zip(amd_order(&sub)) {
        *slot = globals[p];
    }
}

/// Approximate minimum degree ordering of an undirected graph.
pub fn amd_order(adj: &[Vec<usize>]) -> Vec<usize> {
    let n = adj.len();
    // Quotient-graph state. A variable `v` sees plain variable neighbours
    // (`var_adj`) plus *elements* — cliques left behind by eliminations —
    // through `elem_adj`; an element's vertex set lives in `elem_vars`,
    // indexed by the variable whose elimination created it.
    let mut var_adj: Vec<Vec<usize>> = adj.to_vec();
    let mut elem_adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut elem_vars: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut eliminated = vec![false; n];
    let mut degree: Vec<usize> = var_adj.iter().map(Vec::len).collect();

    let mut heap: BinaryHeap<Reverse<(usize, usize)>> =
        (0..n).map(|v| Reverse((degree[v], v))).collect();
    // Stamped scratch for set unions: mark[v] == stamp ⇔ v in current set.
    let mut mark = vec![0usize; n];
    let mut stamp = 0usize;

    let mut order = Vec::with_capacity(n);
    while let Some(Reverse((d, v))) = heap.pop() {
        if eliminated[v] || d != degree[v] {
            continue; // stale heap entry
        }
        order.push(v);
        eliminated[v] = true;
        stamp += 1;

        // Exact neighbourhood L(v): plain neighbours plus the variables of
        // every adjacent element. Eliminated vertices are pruned from the
        // element lists in passing so they never accumulate.
        let mut le: Vec<usize> = Vec::new();
        mark[v] = stamp;
        for &u in &var_adj[v] {
            if !eliminated[u] && mark[u] != stamp {
                mark[u] = stamp;
                le.push(u);
            }
        }
        for &e in &elem_adj[v] {
            for &u in &elem_vars[e] {
                if !eliminated[u] && mark[u] != stamp {
                    mark[u] = stamp;
                    le.push(u);
                }
            }
        }
        le.sort_unstable();

        // Absorb the elements v covered: every variable referencing them is
        // in L(v), so after the filter below nothing points at them.
        let absorbed = std::mem::take(&mut elem_adj[v]);
        stamp += 1;
        for &e in &absorbed {
            mark[e] = stamp;
            elem_vars[e] = Vec::new();
        }

        for &u in &le {
            // Drop v, absorbed elements, and now-redundant variable edges
            // inside L(v) (the new element covers them).
            elem_adj[u].retain(|&e| mark[e] != stamp);
            elem_adj[u].push(v);
            var_adj[u].retain(|&w| w != v && !eliminated[w] && le.binary_search(&w).is_err());
            // AMD's approximate degree: plain neighbours plus element sizes
            // (minus self), an upper bound on the true degree. `elem_vars[v]`
            // is still empty here, so the loop counts only the old elements;
            // the new element contributes `|L(v)| − 1`.
            let mut dd = var_adj[u].len() + le.len().saturating_sub(1);
            for &e in &elem_adj[u] {
                dd += elem_vars[e].len().saturating_sub(1);
            }
            degree[u] = dd.min(n - order.len());
            heap.push(Reverse((degree[u], u)));
        }
        elem_vars[v] = le;
        var_adj[v] = Vec::new();
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_adj(n: usize) -> Vec<Vec<usize>> {
        (0..n)
            .map(|i| {
                let mut v = Vec::new();
                if i > 0 {
                    v.push(i - 1);
                }
                if i + 1 < n {
                    v.push(i + 1);
                }
                v
            })
            .collect()
    }

    fn grid_adj(rows: usize, cols: usize) -> Vec<Vec<usize>> {
        let at = |i: usize, j: usize| i * cols + j;
        let mut adj = vec![Vec::new(); rows * cols];
        for i in 0..rows {
            for j in 0..cols {
                if j + 1 < cols {
                    adj[at(i, j)].push(at(i, j + 1));
                    adj[at(i, j + 1)].push(at(i, j));
                }
                if i + 1 < rows {
                    adj[at(i, j)].push(at(i + 1, j));
                    adj[at(i + 1, j)].push(at(i, j));
                }
            }
        }
        adj
    }

    fn assert_permutation(perm: &[usize], n: usize) {
        assert_eq!(perm.len(), n);
        let mut seen = vec![false; n];
        for &p in perm {
            assert!(p < n && !seen[p], "not a permutation: {perm:?}");
            seen[p] = true;
        }
    }

    #[test]
    fn rcm_is_permutation_on_path_and_grid() {
        assert_permutation(&rcm_order(&path_adj(17)), 17);
        assert_permutation(&rcm_order(&grid_adj(6, 7)), 42);
    }

    #[test]
    fn amd_is_permutation_on_path_and_grid() {
        assert_permutation(&amd_order(&path_adj(17)), 17);
        assert_permutation(&amd_order(&grid_adj(6, 7)), 42);
    }

    #[test]
    fn handles_disconnected_graphs_and_isolated_vertices() {
        let mut adj = path_adj(4);
        adj.push(Vec::new()); // isolated vertex 4
        adj.push(vec![6]);
        adj.push(vec![5]); // separate edge 5–6
        assert_permutation(&rcm_order(&adj), 7);
        assert_permutation(&amd_order(&adj), 7);
    }

    #[test]
    fn rcm_keeps_path_bandwidth_one() {
        // On a path graph RCM must recover a bandwidth-1 ordering: every
        // edge connects consecutive positions.
        let adj = path_adj(25);
        let perm = rcm_order(&adj);
        let mut pos = [0usize; 25];
        for (k, &v) in perm.iter().enumerate() {
            pos[v] = k;
        }
        for (u, nbrs) in adj.iter().enumerate() {
            for &v in nbrs {
                assert!(pos[u].abs_diff(pos[v]) == 1, "path bandwidth broken");
            }
        }
    }

    #[test]
    fn empty_graph_orders_trivially() {
        assert!(rcm_order(&[]).is_empty());
        assert!(amd_order(&[]).is_empty());
    }

    /// The graph zoo the dissection and the selection are checked on:
    /// degenerate sizes, trees, a hub, many components, meshes, random.
    fn zoo() -> Vec<(&'static str, Vec<Vec<usize>>)> {
        let star: Vec<Vec<usize>> = std::iter::once((1..=10_000).collect())
            .chain((0..10_000).map(|_| vec![0]))
            .collect();
        // A hub adjacent to every vertex of a 20 × 20 mesh.
        let mut hub_mesh = grid_adj(20, 20);
        for list in &mut hub_mesh {
            list.push(400);
        }
        hub_mesh.push((0..400).collect());
        // Two meshes, a path, an edge and three isolated vertices.
        let mut islands = grid_adj(15, 15);
        for (offset, part) in [(225, grid_adj(12, 14)), (393, path_adj(40))] {
            islands.extend(
                part.into_iter()
                    .map(|l| l.into_iter().map(|v| v + offset).collect()),
            );
        }
        islands.extend([vec![], vec![435], vec![434], vec![], vec![]]);
        // Seeded random sparse graph: a ring plus two chords per vertex.
        let n = 3_000;
        let mut random = vec![Vec::new(); n];
        let mut seed = 0x9e37_79b9_7f4a_7c15_u64;
        for u in 0..n {
            for k in 0..3 {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                let v = if k == 0 {
                    (u + 1) % n
                } else {
                    (seed % n as u64) as usize
                };
                if v != u {
                    random[u].push(v);
                    random[v].push(u);
                }
            }
        }
        let mut all = vec![
            ("empty", Vec::new()),
            ("one vertex", vec![Vec::new()]),
            ("path", path_adj(10_000)),
            ("star", star),
            ("hub + mesh", hub_mesh),
            ("islands", islands),
            ("grid 6x7", grid_adj(6, 7)),
            ("grid 100x100", grid_adj(100, 100)),
            ("random", random),
        ];
        for (_, adj) in &mut all {
            for list in adj.iter_mut() {
                list.sort_unstable();
                list.dedup();
            }
        }
        all
    }

    #[test]
    fn dissection_and_default_are_permutations_and_default_is_the_smaller_factor() {
        for (name, adj) in zoo() {
            let n = adj.len();
            let nd = nd_order(&adj);
            assert_permutation(&nd, n);
            assert_eq!(nd, nd_order(&adj), "{name}: dissection not repeatable");
            let choice = order_graph(&adj, FillOrdering::MinFill);
            assert_permutation(&choice.perm, n);
            let amd = amd_order(&adj);
            let (fill_amd, fill_nd) = (symbolic_fill(&adj, &amd), symbolic_fill(&adj, &nd));
            let fill = symbolic_fill(&adj, &choice.perm);
            assert_eq!(fill, fill_amd.min(fill_nd), "{name}");
            assert_eq!(choice.fill_amd, fill_amd, "{name}");
            let expect = if fill_nd < fill_amd {
                (FillOrdering::NestedDissection, &nd)
            } else {
                (FillOrdering::Amd, &amd)
            };
            assert_eq!((choice.kept, &choice.perm), expect, "{name}");
            // A fill-free minimum-degree factor ends the selection.
            let edges = adj.iter().map(Vec::len).sum::<usize>() / 2;
            if fill_amd == edges {
                assert_eq!(choice.fill_nd, 0, "{name}: dissection ran needlessly");
            } else {
                assert_eq!(choice.fill_nd, fill_nd, "{name}");
            }
        }
    }

    #[test]
    fn mesh_takes_the_dissection_and_trees_keep_minimum_degree() {
        let mesh = grid_adj(100, 100);
        let choice = order_graph(&mesh, FillOrdering::MinFill);
        assert_eq!(choice.kept, FillOrdering::NestedDissection);
        assert!(choice.fill_nd <= 200_000, "mesh fill {}", choice.fill_nd);
        assert!(
            10 * choice.fill_nd <= 6 * choice.fill_amd,
            "dissection {} vs minimum degree {}",
            choice.fill_nd,
            choice.fill_amd
        );

        let path = path_adj(10_000);
        let choice = order_graph(&path, FillOrdering::MinFill);
        assert_eq!(choice.perm, amd_order(&path));
        assert_eq!(
            (choice.kept, choice.fill_amd, choice.fill_nd),
            (FillOrdering::Amd, 9_999, 0)
        );
    }

    #[test]
    fn symbolic_fill_counts_known_factors() {
        // Natural order on a path fills nothing; eliminating a star's hub
        // first joins all leaves into one clique.
        let path = path_adj(9);
        let natural: Vec<usize> = (0..9).collect();
        assert_eq!(symbolic_fill(&path, &natural), 8);
        let star: Vec<Vec<usize>> = std::iter::once((1..6).collect())
            .chain((1..6).map(|_| vec![0]))
            .collect();
        let hub_first: Vec<usize> = (0..6).collect();
        let hub_last: Vec<usize> = (0..6).rev().collect();
        assert_eq!(symbolic_fill(&star, &hub_first), 5 + 4 + 3 + 2 + 1);
        assert_eq!(symbolic_fill(&star, &hub_last), 5);
        assert_eq!(symbolic_fill(&[], &[]), 0);
    }

    #[test]
    fn order_dispatches_and_validates() {
        let adj = csc_pattern_adjacency(&[0, 1, 2, 3], &[1, 0, 2]);
        let order = |kind| order_graph(&adj, kind).perm;
        assert_eq!(order(FillOrdering::Natural), vec![0, 1, 2]);
        assert_permutation(&order(FillOrdering::Rcm), 3);
        assert_permutation(&order(FillOrdering::Amd), 3);
        assert_permutation(&order(FillOrdering::NestedDissection), 3);
        assert_permutation(&order(FillOrdering::MinFill), 3);
    }
}
