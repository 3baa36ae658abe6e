//! Modified nodal analysis (MNA): network → descriptor form `(G, C, B, L)`.
//!
//! The assembled system is the standard passive descriptor model
//!
//! ```text
//!     C ẋ + G x = B u,      y = L x,
//! ```
//!
//! with state `x = [node voltages | inductor currents | v-source currents]`.
//! Element stamps follow the symmetric/skew convention that keeps `C`
//! symmetric positive semi-definite and `G = [[Gᵣ, E], [−Eᵀ, 0]]`, so a
//! congruence projection preserves passivity for RC/RLC grids:
//!
//! - resistor `g = 1/R` between `a, b`: `G[a,a] += g`, `G[b,b] += g`,
//!   `G[a,b] −= g`, `G[b,a] −= g`;
//! - capacitor: same pattern into `C`;
//! - inductor with current state `q`: branch row `L di/dt − (v_a − v_b) = 0`
//!   gives `C[q,q] = L`, `G[q,a] = −1`, `G[q,b] = +1`; KCL columns
//!   `G[a,q] = +1`, `G[b,q] = −1`;
//! - current source into `a`: `B[a, input] = 1`;
//! - voltage source with current state `q`: KCL columns `G[plus,q] = +1`,
//!   `G[minus,q] = −1`; branch row `−(v_plus − v_minus) = −u` gives
//!   `G[q,plus] = −1`, `G[q,minus] = +1`, `B[q, input] = −1`;
//! - probe at `a`: `L[output, a] = 1`.
//!
//! Ground terminals simply drop their stamps.
//!
//! Stamps go straight into the representation the reduction engine
//! consumes: `G` and `C` are collected as `(row, col, value)` triplets in
//! element order and compressed by [`CscMatrix::from_triplets`], which sums
//! a position's duplicate stamps in that order; the thin maps `B` and `L`
//! are dense. [`Descriptor::permuted`] renumbers the states afterwards —
//! the result is bit-identical to assembling a renumbered network.

use crate::network::{ElementKind, Network, Result, GROUND};
use bdsm_linalg::Matrix;
use bdsm_sparse::CscMatrix;

/// Where a descriptor state comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateKind {
    /// Voltage of the given bus.
    NodeVoltage(usize),
    /// Current through the inductor at the given element index.
    InductorCurrent(usize),
    /// Current through the given voltage source.
    VsourceCurrent(usize),
}

/// Descriptor-form model `(G, C, B, L)`: what MNA assembly produces and,
/// once [`permuted`](Self::permuted) into block-grouped order, the full
/// model the reduction engine reduces.
///
/// `G` and `C` are sparse — at `n = 10⁵` their dense counterparts would
/// need 160 GB — while the thin input/output maps (`n × m`, `p × n` with
/// small `m`, `p`) are dense.
#[derive(Debug, Clone)]
pub struct Descriptor {
    /// Conductance/incidence matrix `G` (n × n).
    pub g: CscMatrix<f64>,
    /// Storage matrix `C` (n × n), symmetric PSD.
    pub c: CscMatrix<f64>,
    /// Input map `B` (n × m).
    pub b: Matrix,
    /// Output map `L` (p × n).
    pub l: Matrix,
    /// Origin of each state, indexed by state number.
    pub states: Vec<StateKind>,
}

impl Descriptor {
    /// State dimension `n`.
    pub fn dim(&self) -> usize {
        self.states.len()
    }

    /// Number of inputs `m`.
    pub fn num_inputs(&self) -> usize {
        self.b.ncols()
    }

    /// Number of outputs `p`.
    pub fn num_outputs(&self) -> usize {
        self.l.nrows()
    }

    /// The same model with state `i` renumbered to `new_of_old[i]`: `G`
    /// and `C` symmetrically, the rows of `B`, the columns of `L`, and
    /// [`states`](Self::states). Values only move, so this is the
    /// operation that groups states by partition block without changing
    /// a bit of any entry.
    ///
    /// # Panics
    ///
    /// Panics if `new_of_old` is not a permutation of `0..dim()`.
    pub fn permuted(&self, new_of_old: &[usize]) -> Descriptor {
        let n = self.dim();
        assert_eq!(new_of_old.len(), n, "permuted: length mismatch");
        let mut old_of_new = vec![usize::MAX; n];
        for (old, &new) in new_of_old.iter().enumerate() {
            assert!(
                new < n && old_of_new[new] == usize::MAX,
                "permuted: not a permutation"
            );
            old_of_new[new] = old;
        }
        let sym = |a: &CscMatrix<f64>| {
            a.permute_symmetric(new_of_old)
                .expect("a square matrix and a checked permutation")
        };
        let b = Matrix::from_fn(n, self.num_inputs(), |i, j| self.b[(old_of_new[i], j)]);
        let l = Matrix::from_fn(self.num_outputs(), n, |i, j| self.l[(i, old_of_new[j])]);
        Descriptor {
            g: sym(&self.g),
            c: sym(&self.c),
            b,
            l,
            states: old_of_new.iter().map(|&old| self.states[old]).collect(),
        }
    }

    /// Densifies `G` and `C` — the bridge to the dense verification
    /// oracles. Only sensible for small models.
    pub fn to_dense(&self) -> DenseDescriptor {
        DenseDescriptor {
            g: self.g.to_dense(),
            c: self.c.to_dense(),
            b: self.b.clone(),
            l: self.l.clone(),
        }
    }
}

/// A dense descriptor model `(G, C, B, L)`: the reduced model a congruence
/// produces, and the dense oracle form of a small [`Descriptor`].
#[derive(Debug, Clone)]
pub struct DenseDescriptor {
    /// Conductance matrix.
    pub g: Matrix,
    /// Storage matrix.
    pub c: Matrix,
    /// Input map.
    pub b: Matrix,
    /// Output map.
    pub l: Matrix,
}

impl DenseDescriptor {
    /// State dimension.
    pub fn dim(&self) -> usize {
        self.g.nrows()
    }
}

/// One MNA stamp `(row, col, value)`; zero values are skipped so element
/// loops can stamp unconditionally.
fn stamp(t: &mut Vec<(usize, usize, f64)>, row: usize, col: usize, value: f64) {
    if value != 0.0 {
        t.push((row, col, value));
    }
}

/// Conductance-pattern stamp: `M[a,a] += v`, `M[b,b] += v`,
/// `M[a,b] −= v`, `M[b,a] −= v`, ground terminals dropped.
fn stamp_pair(t: &mut Vec<(usize, usize, f64)>, a: usize, b: usize, v: f64) {
    if a != GROUND {
        stamp(t, a, a, v);
    }
    if b != GROUND {
        stamp(t, b, b, v);
    }
    if a != GROUND && b != GROUND {
        stamp(t, a, b, -v);
        stamp(t, b, a, -v);
    }
}

/// Assembles the MNA descriptor model of a network.
///
/// # Errors
///
/// Returns [`crate::CircuitError::EmptyNetwork`] if the network has no buses.
pub fn assemble(net: &Network) -> Result<Descriptor> {
    if net.num_buses() == 0 {
        return Err(crate::network::CircuitError::EmptyNetwork);
    }
    let nb = net.num_buses();
    let inductors: Vec<usize> = net
        .elements()
        .iter()
        .enumerate()
        .filter_map(|(i, e)| matches!(e.kind, ElementKind::Inductor(_)).then_some(i))
        .collect();
    let n = nb + inductors.len() + net.voltage_sources().len();
    let m = net.num_inputs();
    let p = net.num_outputs();

    let mut states: Vec<StateKind> = (0..nb).map(StateKind::NodeVoltage).collect();
    states.extend(inductors.iter().map(|&e| StateKind::InductorCurrent(e)));
    states.extend((0..net.voltage_sources().len()).map(StateKind::VsourceCurrent));

    let mut g = Vec::new();
    let mut c = Vec::new();
    let mut b = Matrix::zeros(n, m);
    let mut l = Matrix::zeros(p, n);

    let mut next_branch_state = nb;
    for (ei, e) in net.elements().iter().enumerate() {
        match e.kind {
            ElementKind::Resistor(r) => stamp_pair(&mut g, e.a, e.b, 1.0 / r),
            ElementKind::Capacitor(cap) => stamp_pair(&mut c, e.a, e.b, cap),
            ElementKind::Inductor(ind) => {
                let q = next_branch_state;
                next_branch_state += 1;
                debug_assert_eq!(states[q], StateKind::InductorCurrent(ei));
                stamp(&mut c, q, q, ind);
                if e.a != GROUND {
                    stamp(&mut g, q, e.a, -1.0);
                    stamp(&mut g, e.a, q, 1.0);
                }
                if e.b != GROUND {
                    stamp(&mut g, q, e.b, 1.0);
                    stamp(&mut g, e.b, q, -1.0);
                }
            }
        }
    }

    for (si, src) in net.current_sources().iter().enumerate() {
        b[(src.node, si)] += 1.0;
    }
    let m_offset = net.current_sources().len();
    for (si, src) in net.voltage_sources().iter().enumerate() {
        let q = next_branch_state;
        next_branch_state += 1;
        debug_assert_eq!(states[q], StateKind::VsourceCurrent(si));
        if src.plus != GROUND {
            stamp(&mut g, src.plus, q, 1.0);
            stamp(&mut g, q, src.plus, -1.0);
        }
        if src.minus != GROUND {
            stamp(&mut g, src.minus, q, -1.0);
            stamp(&mut g, q, src.minus, 1.0);
        }
        b[(q, m_offset + si)] -= 1.0;
    }

    for (pi, probe) in net.probes().iter().enumerate() {
        l[(pi, probe.node)] += 1.0;
    }

    let csc = |t: &[(usize, usize, f64)]| {
        CscMatrix::from_triplets(n, n, t).expect("stamps index states, so they are in bounds")
    };
    Ok(Descriptor {
        g: csc(&g),
        c: csc(&c),
        b,
        l,
        states,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use crate::PartitionStrategy;

    /// Two-node RC: port at node 0, R to node 1, C to ground, load R to ground.
    fn rc_pair() -> (Network, Descriptor) {
        let mut net = Network::new();
        let a = net.add_bus("a");
        let b = net.add_bus("b");
        net.add_resistor(a, b, 2.0).unwrap();
        net.add_capacitor(b, GROUND, 3.0).unwrap();
        net.add_resistor(b, GROUND, 4.0).unwrap();
        net.add_port(a).unwrap();
        let d = assemble(&net).unwrap();
        (net, d)
    }

    #[test]
    fn rc_stamps_match_hand_calculation() {
        let (_, d) = rc_pair();
        assert_eq!(d.dim(), 2);
        let g = d.g.to_dense();
        let c = d.c.to_dense();
        // G = [[1/2, -1/2], [-1/2, 1/2 + 1/4]]
        assert_eq!(g[(0, 0)], 0.5);
        assert_eq!(g[(0, 1)], -0.5);
        assert_eq!(g[(1, 0)], -0.5);
        assert!((g[(1, 1)] - 0.75).abs() < 1e-15);
        // C = diag(0, 3)
        assert_eq!(c[(0, 0)], 0.0);
        assert_eq!(c[(1, 1)], 3.0);
        assert_eq!(d.b[(0, 0)], 1.0);
        assert_eq!(d.l[(0, 0)], 1.0);
    }

    #[test]
    fn inductor_adds_state_with_skew_coupling() {
        let mut net = Network::new();
        let a = net.add_bus("a");
        let b = net.add_bus("b");
        net.add_inductor(a, b, 5.0).unwrap();
        net.add_capacitor(b, GROUND, 1.0).unwrap();
        net.add_port(a).unwrap();
        let d = assemble(&net).unwrap();
        assert_eq!(d.dim(), 3);
        assert_eq!(d.states[2], StateKind::InductorCurrent(0));
        let g = d.g.to_dense();
        let c = d.c.to_dense();
        assert_eq!(c[(2, 2)], 5.0);
        // KCL column and branch row are skew: G[a,q] = -G[q,a].
        assert_eq!(g[(0, 2)], 1.0);
        assert_eq!(g[(2, 0)], -1.0);
        assert_eq!(g[(1, 2)], -1.0);
        assert_eq!(g[(2, 1)], 1.0);
    }

    #[test]
    fn voltage_source_forces_node_voltage() {
        // V-source at node a, R to ground: solve G x = B u at DC.
        let mut net = Network::new();
        let a = net.add_bus("a");
        net.add_resistor(a, GROUND, 2.0).unwrap();
        net.add_voltage_source(a, GROUND).unwrap();
        net.add_probe(a).unwrap();
        let d = assemble(&net).unwrap();
        assert_eq!(d.dim(), 2);
        let g = d.g.to_dense();
        // States [v_a, i_V]: G = [[1/2, 1], [-1, 0]], B = [0, -1]ᵀ.
        // DC solve for u = 1: second row gives -v_a = -1 → v_a = 1. ✓
        let lu = bdsm_linalg::DenseLu::factor(&g).unwrap();
        let x = lu.solve(&d.b.col(0)).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-14);
        // Source current: v_a/R = 0.5 flows out of the source.
        assert!((x[1] + 0.5).abs() < 1e-14);
    }

    #[test]
    fn empty_network_rejected() {
        let net = Network::new();
        assert!(matches!(
            assemble(&net),
            Err(crate::network::CircuitError::EmptyNetwork)
        ));
    }

    #[test]
    fn c_matrix_is_symmetric_psd_for_rc() {
        let (_, d) = rc_pair();
        let c = d.c.to_dense();
        let ct = c.transpose();
        assert!(c.sub(&ct).unwrap().norm_max() == 0.0);
        let eig = bdsm_linalg::SymEig::compute(&c).unwrap();
        assert!(eig.min().unwrap() >= -1e-15);
    }

    #[test]
    fn permuted_moves_every_part_of_the_model() {
        // States [v_a, v_b, i_L, i_V]; reverse them.
        let mut net = Network::new();
        let a = net.add_bus("a");
        let b = net.add_bus("b");
        net.add_inductor(a, b, 5.0).unwrap();
        net.add_resistor(b, GROUND, 2.0).unwrap();
        net.add_capacitor(a, GROUND, 3.0).unwrap();
        net.add_voltage_source(a, GROUND).unwrap();
        net.add_port(b).unwrap();
        let d = assemble(&net).unwrap();
        let order = [3, 2, 1, 0];
        let p = d.permuted(&order);
        let (g, gp) = (d.g.to_dense(), p.g.to_dense());
        let (c, cp) = (d.c.to_dense(), p.c.to_dense());
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(gp[(order[i], order[j])], g[(i, j)]);
                assert_eq!(cp[(order[i], order[j])], c[(i, j)]);
            }
            assert_eq!(p.b.row(order[i]), d.b.row(i));
            assert_eq!(p.l.col(order[i]), d.l.col(i));
            assert_eq!(p.states[order[i]], d.states[i]);
        }
        assert_eq!((p.g.nnz(), p.c.nnz()), (d.g.nnz(), d.c.nnz()));
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn permuted_rejects_a_repeated_index() {
        let (_, d) = rc_pair();
        d.permuted(&[1, 1]);
    }

    /// `(row, col, bits)` of every stored entry.
    fn bits(a: &CscMatrix<f64>) -> Vec<(usize, usize, u64)> {
        a.iter().map(|(i, j, v)| (i, j, v.to_bits())).collect()
    }

    #[test]
    fn duplicate_stamps_sum_in_stamp_order_under_any_state_order() {
        // A 41-bus star: the hub is joined to each bus by two resistors
        // and a capacitor, so the hub's diagonal sums 80 `G` and 40 `C`
        // stamps of different magnitudes — a column long enough that an
        // unstable sort would sum them in an order set by the state
        // numbering (the hub is numbered last, and the dissection order
        // moves it). Assembling the renumbered network and renumbering
        // the assembled model must agree bit for bit.
        let mut net = Network::new();
        let buses: Vec<usize> = (1..=40).map(|i| net.add_bus(format!("b{i}"))).collect();
        let hub = net.add_bus("hub");
        for (i, &bus) in buses.iter().enumerate() {
            let x = (i + 1) as f64;
            net.add_resistor(hub, bus, 1.0 + 0.37 * x).unwrap();
            net.add_capacitor(hub, bus, 1e-3 / x).unwrap();
            net.add_resistor(bus, hub, 3.3 / x).unwrap();
            net.add_resistor(bus, GROUND, 7.0 + x).unwrap();
        }
        net.add_port(hub).unwrap();
        let d = assemble(&net).unwrap();
        for strategy in [PartitionStrategy::Bfs, PartitionStrategy::NestedDissection] {
            let part = crate::partition_network_with(&net, 4, strategy).unwrap();
            let (new_of_old, _) = crate::grouped_state_order(&net, &d, &part);
            let bus = |old: usize| {
                if old == GROUND {
                    GROUND
                } else {
                    new_of_old[old]
                }
            };
            let mut renumbered = Network::new();
            let mut old_of_new = vec![0; new_of_old.len()];
            for (old, &new) in new_of_old.iter().enumerate() {
                old_of_new[new] = old;
            }
            for &old in &old_of_new {
                renumbered.add_bus(net.bus_name(old));
            }
            for e in net.elements() {
                let (a, b) = (bus(e.a), bus(e.b));
                match e.kind {
                    ElementKind::Resistor(r) => renumbered.add_resistor(a, b, r),
                    ElementKind::Capacitor(c) => renumbered.add_capacitor(a, b, c),
                    ElementKind::Inductor(l) => renumbered.add_inductor(a, b, l),
                }
                .unwrap();
            }
            renumbered.add_port(bus(hub)).unwrap();
            let before = assemble(&renumbered).unwrap();
            let after = d.permuted(&new_of_old);
            assert_eq!(bits(&before.g), bits(&after.g), "{strategy:?}: G");
            assert_eq!(bits(&before.c), bits(&after.c), "{strategy:?}: C");
        }
    }
}
