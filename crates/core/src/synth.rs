//! Synthetic power-grid topologies for tests and benchmarks.
//!
//! Three families, in increasing structural richness, all built so that
//! every bus carries a shunt capacitor (making `C` diagonal and positive,
//! which keeps the descriptor regular):
//!
//! - [`rc_ladder`] — the classic driver/line/load chain;
//! - [`rc_grid`] — a 2-D mesh, the paper's structured power-grid testcase;
//! - [`ieee_like_feeder`] — a radial substation-plus-feeders layout with
//!   series line inductance, loosely shaped after IEEE distribution feeders.

use bdsm_circuit::{Network, GROUND};

/// An RC transmission-line ladder with `sections` buses.
///
/// Series resistors `r` chain the buses; every bus has a shunt capacitor
/// `c`; the last bus carries a load resistor `load_r` to ground (which keeps
/// `G` nonsingular). Ports (current injection + voltage probe) sit at the
/// first and last bus.
///
/// # Panics
///
/// Panics if `sections == 0` or any value is non-positive (synthetic
/// generators are test infrastructure; garbage input is a programmer error).
pub fn rc_ladder(sections: usize, r: f64, c: f64, load_r: f64) -> Network {
    assert!(sections > 0, "rc_ladder: need at least one section");
    let mut net = Network::new();
    let buses: Vec<usize> = (0..sections)
        .map(|i| net.add_bus(format!("n{i}")))
        .collect();
    for w in buses.windows(2) {
        net.add_resistor(w[0], w[1], r)
            .expect("valid ladder resistor");
    }
    for &b in &buses {
        net.add_capacitor(b, GROUND, c)
            .expect("valid ladder capacitor");
    }
    net.add_resistor(buses[sections - 1], GROUND, load_r)
        .expect("valid load resistor");
    net.add_port(buses[0]).expect("valid driver port");
    net.add_port(buses[sections - 1]).expect("valid load port");
    net
}

/// An RC ladder with distributed load taps: like [`rc_ladder`], but every
/// `load_stride`-th bus also carries a shunt load resistor `load_r` to
/// ground, the way distribution lines serve loads along their length.
/// Distributed shunt conductance bounds the slowest poles away from zero,
/// which is both physically typical and much friendlier to moment matching.
///
/// # Panics
///
/// Panics if `sections == 0`, `load_stride == 0`, or any value is
/// non-positive.
pub fn rc_ladder_loaded(
    sections: usize,
    r: f64,
    c: f64,
    load_r: f64,
    load_stride: usize,
) -> Network {
    assert!(load_stride > 0, "rc_ladder_loaded: stride must be positive");
    let mut net = rc_ladder(sections, r, c, load_r);
    for bus in (0..sections).step_by(load_stride) {
        net.add_resistor(bus, GROUND, load_r)
            .expect("valid load tap");
    }
    net
}

/// An `rows × cols` RC mesh grid.
///
/// Resistors `r` connect 4-neighbours; every bus has a shunt capacitor `c`;
/// load resistors `load_r` tie the four corners to ground. Ports sit at the
/// top-left and bottom-right corners.
///
/// # Panics
///
/// Panics if either dimension is zero or any value is non-positive.
pub fn rc_grid(rows: usize, cols: usize, r: f64, c: f64, load_r: f64) -> Network {
    assert!(rows > 0 && cols > 0, "rc_grid: dimensions must be positive");
    let mut net = Network::new();
    let mut idx = vec![vec![0usize; cols]; rows];
    for (i, row) in idx.iter_mut().enumerate() {
        for (j, slot) in row.iter_mut().enumerate() {
            *slot = net.add_bus(format!("g{i}_{j}"));
        }
    }
    for i in 0..rows {
        for j in 0..cols {
            if j + 1 < cols {
                net.add_resistor(idx[i][j], idx[i][j + 1], r)
                    .expect("grid resistor");
            }
            if i + 1 < rows {
                net.add_resistor(idx[i][j], idx[i + 1][j], r)
                    .expect("grid resistor");
            }
            net.add_capacitor(idx[i][j], GROUND, c)
                .expect("grid capacitor");
        }
    }
    for &(ci, cj) in &[(0, 0), (0, cols - 1), (rows - 1, 0), (rows - 1, cols - 1)] {
        net.add_resistor(idx[ci][cj], GROUND, load_r)
            .expect("corner load");
    }
    net.add_port(idx[0][0]).expect("grid port");
    net.add_port(idx[rows - 1][cols - 1]).expect("grid port");
    net
}

/// A radial, IEEE-distribution-flavoured layout: one substation bus feeding
/// `feeders` chains of `buses_per_feeder` buses each.
///
/// Each feeder starts with a series inductor `line_l` (line reactance), then
/// chains resistors `r`; every bus has a shunt capacitor `c`, and each
/// feeder end carries a load resistor `load_r` to ground. Ports sit at the
/// substation and at the end of the first feeder.
///
/// # Panics
///
/// Panics if `feeders == 0` or `buses_per_feeder == 0` or any value is
/// non-positive.
pub fn ieee_like_feeder(
    feeders: usize,
    buses_per_feeder: usize,
    r: f64,
    c: f64,
    line_l: f64,
    load_r: f64,
) -> Network {
    assert!(
        feeders > 0 && buses_per_feeder > 0,
        "ieee_like_feeder: need at least one feeder and one bus"
    );
    let mut net = Network::new();
    let substation = net.add_bus("substation");
    net.add_capacitor(substation, GROUND, c)
        .expect("substation capacitor");
    net.add_resistor(substation, GROUND, load_r)
        .expect("substation ground tie");
    let mut first_feeder_end = substation;
    for f in 0..feeders {
        let mut prev = substation;
        for k in 0..buses_per_feeder {
            let bus = net.add_bus(format!("f{f}_{k}"));
            if k == 0 {
                net.add_inductor(prev, bus, line_l)
                    .expect("feeder line inductor");
            } else {
                net.add_resistor(prev, bus, r).expect("feeder resistor");
            }
            net.add_capacitor(bus, GROUND, c).expect("feeder capacitor");
            // Load taps every tenth bus: feeders serve customers along
            // their whole length, not just at the end.
            if k % 10 == 5 {
                net.add_resistor(bus, GROUND, load_r)
                    .expect("feeder load tap");
            }
            prev = bus;
        }
        net.add_resistor(prev, GROUND, load_r).expect("feeder load");
        if f == 0 {
            first_feeder_end = prev;
        }
    }
    net.add_port(substation).expect("substation port");
    net.add_port(first_feeder_end).expect("feeder-end port");
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdsm_circuit::mna;

    #[test]
    fn ladder_shapes() {
        let net = rc_ladder(10, 1.0, 1e-3, 2.0);
        assert_eq!(net.num_buses(), 10);
        assert_eq!(net.num_inputs(), 2);
        assert_eq!(net.num_outputs(), 2);
        let d = mna::assemble(&net).unwrap();
        assert_eq!(d.dim(), 10);
    }

    #[test]
    fn grid_is_connected_with_expected_size() {
        let net = rc_grid(4, 5, 1.0, 1e-3, 2.0);
        assert_eq!(net.num_buses(), 20);
        // BFS from bus 0 must reach everything.
        let adj = net.adjacency();
        let mut seen = [false; 20];
        seen[0] = true;
        let mut stack = vec![0usize];
        while let Some(u) = stack.pop() {
            for &v in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn feeder_has_inductor_states() {
        let net = ieee_like_feeder(3, 4, 1.0, 1e-3, 1e-4, 5.0);
        assert_eq!(net.num_buses(), 1 + 3 * 4);
        let d = mna::assemble(&net).unwrap();
        // One inductor current state per feeder.
        assert_eq!(d.dim(), 13 + 3);
    }

    #[test]
    #[should_panic(expected = "at least one section")]
    fn ladder_rejects_zero_sections() {
        rc_ladder(0, 1.0, 1.0, 1.0);
    }
}
