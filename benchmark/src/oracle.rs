//! Independent references the program's outputs are checked against.
//!
//! - [`transfer_by_elimination`]: dense complex Gaussian elimination with
//!   its own complex arithmetic, for served replies.
//! - [`Nodal`]: the full model, assembled by nodal analysis straight from
//!   the generator's element list (not from the parsed network), solved
//!   through the sparse layer's shifted pencil.
//! - [`LruModel`]: the shift cache's documented policy, replayed from the
//!   request stream alone.

use crate::gen::{Netlist, GND};
use bdsm::linalg::{Complex64, Matrix};
use bdsm::sparse::{CscMatrix, FillOrdering, ShiftedPencil};

type C = (f64, f64);

/// A transfer matrix, row-major, entries as `(re, im)`.
pub type Transfer = Vec<C>;

fn mul(a: C, b: C) -> C {
    (a.0 * b.0 - a.1 * b.1, a.0 * b.1 + a.1 * b.0)
}

fn div(a: C, b: C) -> C {
    let d = b.0 * b.0 + b.1 * b.1;
    ((a.0 * b.0 + a.1 * b.1) / d, (a.1 * b.0 - a.0 * b.1) / d)
}

/// Solves `A X = B` in place by Gaussian elimination with partial
/// pivoting; `a` is `n × n` and `b` is `n × m`, both row-major. Returns
/// `false` when a pivot vanishes.
pub fn eliminate(n: usize, m: usize, a: &mut [C], b: &mut [C]) -> bool {
    for k in 0..n {
        let piv = (k..n)
            .max_by(|&i, &j| {
                let mag = |r: usize| a[r * n + k].0.hypot(a[r * n + k].1);
                mag(i).total_cmp(&mag(j))
            })
            .expect("k < n");
        if a[piv * n + k] == (0.0, 0.0) {
            return false;
        }
        if piv != k {
            for j in 0..n {
                a.swap(k * n + j, piv * n + j);
            }
            for j in 0..m {
                b.swap(k * m + j, piv * m + j);
            }
        }
        let (head, tail) = a.split_at_mut((k + 1) * n);
        let (bhead, btail) = b.split_at_mut((k + 1) * m);
        let prow = &head[k * n..];
        let pb = &bhead[k * m..];
        for (row, brow) in tail.chunks_exact_mut(n).zip(btail.chunks_exact_mut(m)) {
            let f = div(row[k], prow[k]);
            if f == (0.0, 0.0) {
                continue;
            }
            for (x, &p) in row[k + 1..].iter_mut().zip(&prow[k + 1..]) {
                let t = mul(f, p);
                *x = (x.0 - t.0, x.1 - t.1);
            }
            for (x, &p) in brow.iter_mut().zip(pb) {
                let t = mul(f, p);
                *x = (x.0 - t.0, x.1 - t.1);
            }
        }
    }
    for k in (0..n).rev() {
        for j in 0..m {
            let mut s = b[k * m + j];
            for i in k + 1..n {
                let t = mul(a[k * n + i], b[i * m + j]);
                s = (s.0 - t.0, s.1 - t.1);
            }
            b[k * m + j] = div(s, a[k * n + k]);
        }
    }
    true
}

/// `H(s) = L (G + sC)⁻¹ B` of a dense descriptor at a complex shift,
/// row-major `p × m`; `None` when `G + sC` is singular.
pub fn transfer_by_elimination(
    g: &Matrix,
    c: &Matrix,
    b: &Matrix,
    l: &Matrix,
    s: C,
) -> Option<Vec<C>> {
    let (n, m, p) = (g.nrows(), b.ncols(), l.nrows());
    let mut a: Vec<C> = Vec::with_capacity(n * n);
    for i in 0..n {
        let (gr, cr) = (g.row(i), c.row(i));
        a.extend(
            gr.iter()
                .zip(cr)
                .map(|(&gv, &cv)| (gv + s.0 * cv, s.1 * cv)),
        );
    }
    let mut x: Vec<C> = b.as_slice().iter().map(|&v| (v, 0.0)).collect();
    if !eliminate(n, m, &mut a, &mut x) {
        return None;
    }
    let mut h = vec![(0.0, 0.0); p * m];
    for i in 0..p {
        for (k, &lv) in l.row(i).iter().enumerate() {
            for j in 0..m {
                let xv = x[k * m + j];
                h[i * m + j].0 += lv * xv.0;
                h[i * m + j].1 += lv * xv.1;
            }
        }
    }
    Some(h)
}

/// Largest entry-wise distance between two transfer matrices, relative to
/// the reference's largest entry.
pub fn rel_err(got: &[C], want: &[C]) -> f64 {
    let scale = want
        .iter()
        .fold(f64::MIN_POSITIVE, |s, w| s.max(w.0.hypot(w.1)));
    got.iter()
        .zip(want)
        .fold(0.0f64, |e, (g, w)| e.max((g.0 - w.0).hypot(g.1 - w.1)))
        / scale
}

/// Flattens a served `p × m` reply into the oracle's layout.
pub fn flatten(h: &bdsm::core::CMatrix) -> Vec<C> {
    let mut out = Vec::with_capacity(h.nrows() * h.ncols());
    for i in 0..h.nrows() {
        for j in 0..h.ncols() {
            let v: Complex64 = h[(i, j)];
            out.push((v.re, v.im));
        }
    }
    out
}

/// The full model by nodal analysis: one state per bus, `G` from the
/// resistors, diagonal `C` from the grounded capacitors, unit current
/// injection and voltage probe at every port.
pub struct Nodal {
    pub g: CscMatrix<f64>,
    pub c: CscMatrix<f64>,
    pencil: ShiftedPencil,
    ports: Vec<usize>,
    n: usize,
}

impl Nodal {
    pub fn assemble(net: &Netlist) -> Result<Nodal, bdsm::linalg::LinalgError> {
        let n = net.buses;
        let mut gt = Vec::with_capacity(4 * net.resistors.len());
        for &(a, b, ohms) in &net.resistors {
            let y = 1.0 / ohms;
            for (p, q) in [(a, b), (b, a)] {
                if p != GND {
                    gt.push((p, p, y));
                    if q != GND {
                        gt.push((p, q, -y));
                    }
                }
            }
        }
        let ct: Vec<_> = net.capacitors.iter().map(|&(a, f)| (a, a, f)).collect();
        let g = CscMatrix::from_triplets(n, n, &gt)?;
        let c = CscMatrix::from_triplets(n, n, &ct)?;
        // Reverse Cuthill–McKee: on the mesh its numeric factorisation is
        // half the cost of the default ordering, and a reference needs no
        // particular one.
        let pencil = ShiftedPencil::with_ordering(&g, &c, FillOrdering::Rcm)?;
        Ok(Nodal {
            g,
            c,
            pencil,
            ports: net.ports.clone(),
            n,
        })
    }

    /// Column-major `n × ports` unit injections — the `B` of the model.
    pub fn rhs(&self) -> Vec<f64> {
        let mut rhs = vec![0.0; self.n * self.ports.len()];
        for (j, &p) in self.ports.iter().enumerate() {
            rhs[j * self.n + p] = 1.0;
        }
        rhs
    }

    /// `H(jω)`, row-major `ports × ports`.
    pub fn transfer(&self, omega: f64) -> Result<Vec<C>, bdsm::linalg::LinalgError> {
        let m = self.ports.len();
        let lu = self.pencil.factor_complex(Complex64::jomega(omega))?;
        let x = lu.solve_multi_real(&self.rhs(), m)?;
        let mut h = Vec::with_capacity(m * m);
        for &pi in &self.ports {
            for j in 0..m {
                let v = x[j * self.n + pi];
                h.push((v.re, v.im));
            }
        }
        Ok(h)
    }
}

/// Segments of the server's per-model shift cache.
const SEGMENTS: usize = 8;

/// The shift cache as documented: eight independently bounded LRU
/// segments, a shift's segment chosen by a mix of its bit pattern, each
/// segment holding at most `⌈capacity / 8⌉` entries (at least one). Kept
/// as plain recency-ordered vectors — nothing here is shared with the
/// server's hash maps and clocks.
#[derive(Debug, Clone)]
pub struct LruModel {
    /// Most recently used last.
    segments: [Vec<u64>; SEGMENTS],
    per_segment: Option<usize>,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

impl LruModel {
    pub fn new(capacity: Option<usize>) -> LruModel {
        LruModel {
            segments: Default::default(),
            per_segment: capacity.map(|c| c.div_ceil(SEGMENTS).max(1)),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn segment_of(omega: f64) -> usize {
        // The shift is s = 0 + jω, keyed by (re bits, im bits).
        let (re, im) = (0.0f64.to_bits(), omega.to_bits());
        let mut h = re ^ im.rotate_left(32);
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        (h % SEGMENTS as u64) as usize
    }

    /// Replays one sample at `jω`; returns whether it hit.
    pub fn touch(&mut self, omega: f64) -> bool {
        let seg = &mut self.segments[Self::segment_of(omega)];
        let key = omega.to_bits();
        if let Some(pos) = seg.iter().position(|&k| k == key) {
            seg.remove(pos);
            seg.push(key);
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if let Some(cap) = self.per_segment {
            while seg.len() + 1 > cap {
                seg.remove(0);
                self.evictions += 1;
            }
        }
        seg.push(key);
        false
    }

    pub fn live(&self) -> usize {
        self.segments.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elimination_solves_a_hand_worked_complex_3x3() {
        // A = [[2, j, 0], [−j, 3, 1], [0, 1, 1+j]],  x = [1, j, 1−j]
        // ⇒ b = A x = [1, 1+j, 2+j].
        let mut a = vec![
            (2.0, 0.0),
            (0.0, 1.0),
            (0.0, 0.0),
            (0.0, -1.0),
            (3.0, 0.0),
            (1.0, 0.0),
            (0.0, 0.0),
            (1.0, 0.0),
            (1.0, 1.0),
        ];
        let mut b = vec![(1.0, 0.0), (1.0, 1.0), (2.0, 1.0)];
        assert!(eliminate(3, 1, &mut a, &mut b));
        let want = [(1.0, 0.0), (0.0, 1.0), (1.0, -1.0)];
        assert!(rel_err(&b, &want) < 1e-15, "{b:?}");
    }

    #[test]
    fn elimination_pivots_and_reports_singularity() {
        // Zero leading entry forces a row swap.
        let mut a = vec![(0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.0, 0.0)];
        let mut b = vec![(3.0, 0.0), (0.0, 4.0)];
        assert!(eliminate(2, 1, &mut a, &mut b));
        assert_eq!(b, vec![(0.0, 4.0), (3.0, 0.0)]);
        let mut a = vec![(1.0, 0.0), (2.0, 0.0), (2.0, 0.0), (4.0, 0.0)];
        let mut b = vec![(1.0, 0.0), (1.0, 0.0)];
        assert!(!eliminate(2, 1, &mut a, &mut b));
    }

    #[test]
    fn dense_oracle_matches_the_one_pole_closed_form() {
        // One bus, R to ground, C to ground, one port: H = 1 / (1/R + jωC).
        let g = Matrix::from_rows(&[&[0.5]]);
        let c = Matrix::from_rows(&[&[1e-3]]);
        let one = Matrix::from_rows(&[&[1.0]]);
        let h = transfer_by_elimination(&g, &c, &one, &one, (0.0, 500.0)).unwrap();
        let want = div((1.0, 0.0), (0.5, 0.5));
        assert!(rel_err(&h, &[want]) < 1e-15);
        // At the real shift 1/h the same pole gives 1 / (1/R + C/h).
        let h = transfer_by_elimination(&g, &c, &one, &one, (1e3, 0.0)).unwrap();
        assert!(rel_err(&h, &[(1.0 / 1.5, 0.0)]) < 1e-15);
    }

    #[test]
    fn nodal_model_matches_dense_elimination_on_a_small_ladder() {
        let net = crate::gen::ladder(12, 3);
        let nodal = Nodal::assemble(&net).unwrap();
        let h = nodal.transfer(300.0).unwrap();
        let (g, c) = (nodal.g.to_dense(), nodal.c.to_dense());
        let b = Matrix::from_fn(12, 2, |i, j| f64::from(u8::from(i == net.ports[j])));
        let want = transfer_by_elimination(&g, &c, &b, &b.transpose(), (0.0, 300.0)).unwrap();
        assert!(rel_err(&h, &want) < 1e-12);
    }

    #[test]
    fn unbounded_model_never_evicts() {
        let mut m = LruModel::new(None);
        for k in 0..100 {
            assert!(!m.touch(10.0 + f64::from(k)));
        }
        for k in 0..100 {
            assert!(m.touch(10.0 + f64::from(k)));
        }
        assert_eq!(
            (m.hits, m.misses, m.evictions, m.live()),
            (100, 100, 0, 100)
        );
    }

    #[test]
    fn bounded_model_evicts_least_recent_within_a_segment() {
        // Three shifts of one segment under capacity 8 (one per segment).
        let same: Vec<f64> = (1..2000)
            .map(f64::from)
            .filter(|&w| LruModel::segment_of(w) == 3)
            .take(3)
            .collect();
        let mut m = LruModel::new(Some(8));
        assert!(!m.touch(same[0]));
        assert!(m.touch(same[0]));
        assert!(!m.touch(same[1])); // evicts same[0]
        assert!(!m.touch(same[0])); // evicts same[1]
        assert!(!m.touch(same[2]));
        assert_eq!((m.hits, m.misses, m.evictions, m.live()), (1, 4, 3, 1));
        // Capacity 16 keeps two per segment: the older of two goes first.
        let mut m = LruModel::new(Some(16));
        m.touch(same[0]);
        m.touch(same[1]);
        m.touch(same[0]);
        m.touch(same[2]); // evicts same[1]
        assert!(m.touch(same[0]));
        assert!(!m.touch(same[1]));
        assert_eq!(m.evictions, 2);
    }

    #[test]
    fn model_agrees_with_the_server_on_a_bounded_cache() {
        use bdsm::rom::{Reducer, RomServer};
        let _env = crate::run::ENV_LOCK
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let net = bdsm::io::parse_netlist(&crate::gen::ladder(60, 5).text).unwrap();
        let artifact = Reducer::builder()
            .blocks(2)
            .jomega_shifts(&[4.5e2])
            .build()
            .unwrap()
            .reduce_to_artifact(&net)
            .unwrap();
        let mut server = RomServer::with_cache_capacity(16);
        let id = server.load_artifact(artifact);
        let set = crate::gen::shift_set(64, 60.0, 3.5e3, "ws");
        let mut rng = crate::gen::Rng::new(5);
        let zipf = crate::gen::Zipf::new(64, 1.1, &mut rng);
        let mut model = LruModel::new(Some(16));
        for _ in 0..600 {
            let w = set[zipf.sample(&mut rng)];
            server.transfer_sweep(id, &[w]).unwrap();
            model.touch(w);
        }
        let got = server.metrics().cache;
        assert_eq!(
            (got.hits, got.misses, got.evictions),
            (model.hits, model.misses, model.evictions)
        );
        assert_eq!(server.cached_shifts(id).unwrap(), model.live());
        assert!(model.evictions > 0 && model.hits > 0);
    }
}
