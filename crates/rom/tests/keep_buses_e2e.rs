//! End-to-end contract of the reduction-region API: marking buses to
//! keep via `ReducerBuilder::keep_buses` must (1) carry every kept
//! boundary bus into the ROM as an exact-interface state, (2) reproduce
//! the full model's boundary voltages to ≤ 1e-10 at a matched shift, and
//! (3) record the region in artifact provenance across a binary
//! round-trip. The artifact stores no bus partition; (4) its state order,
//! block sizes and interface states must determine the partition the
//! build ran on, for a kept region and for a nested-dissection mesh.

use bdsm_circuit::{partition_network_with, Network, Partition, PartitionStrategy, ReductionSet};
use bdsm_core::synth::rc_grid;
use bdsm_core::transfer::ZLu;
use bdsm_linalg::Complex64;
use bdsm_rom::{Reducer, RomArtifact};
use bdsm_sparse::ShiftedPencil;

/// The first mesh row plus an interior probe bus of a 20 × 25 mesh — a
/// connected region and a detached single, so the eliminated remainder
/// wraps around both.
fn kept_region() -> (Network, Vec<usize>) {
    let mut kept: Vec<usize> = (0..25).collect();
    kept.push(12 * 25 + 13);
    (rc_grid(20, 25, 1.0, 1e-3, 2.0), kept)
}

fn kept_region_reducer(kept: &[usize]) -> Reducer {
    Reducer::builder()
        .keep_buses(kept)
        .jomega_shifts(&[4.5e2])
        .moments(2)
        .sparse()
        .build()
        .expect("keep_buses config validates")
}

#[test]
fn kept_boundary_voltages_match_full_model() {
    let (net, kept) = kept_region();
    let rm = kept_region_reducer(&kept)
        .reduce(&net)
        .expect("region-marked reduction");

    // Every kept boundary bus is an exact-interface state: its basis row
    // is a unit vector, recorded in the interface map. (rc_grid drives
    // current sources only, so state index == bus index.)
    let set = ReductionSet::keep_buses(&net, &kept).unwrap();
    let boundary = set.boundary();
    let rows: Vec<usize> = rm.interface_map.iter().map(|&(r, _)| r).collect();
    for &b in boundary {
        assert!(rows.contains(&b), "kept boundary bus {b} not exact in ROM");
    }

    // Boundary voltages at the matched shift: ROM coordinate == full
    // solution entry to solver roundoff.
    let s = Complex64::jomega(4.5e2);
    let full_lu = ShiftedPencil::new(&rm.full.g, &rm.full.c)
        .unwrap()
        .factor_complex(s)
        .unwrap();
    let rom_lu = ZLu::factor_shifted(&rm.g, &rm.c, s).unwrap();
    for input in 0..rm.full.b.ncols() {
        let x_full = full_lu.solve_real(&rm.full.b.col(input)).unwrap();
        let x_rom = rom_lu.solve_real(&rm.b.col(input)).unwrap();
        let scale = x_full
            .iter()
            .map(|z| z.abs())
            .fold(0.0_f64, f64::max)
            .max(f64::MIN_POSITIVE);
        for &(row, col) in &rm.interface_map {
            let err = (x_rom[col] - x_full[row]).abs() / scale;
            assert!(
                err <= 1e-10,
                "boundary voltage at state {row} off by {err:.3e} (input {input})"
            );
        }
    }
}

#[test]
fn reduction_region_survives_artifact_round_trip() {
    let net = rc_grid(8, 9, 1.0, 1e-3, 2.0);
    let kept = vec![0, 1, 2, 40];
    let reducer = Reducer::builder()
        .keep_buses(&kept)
        .jomega_shifts(&[2.0e2, 2.0e3])
        .moments(2)
        .build()
        .unwrap();
    let artifact = reducer.reduce_to_artifact(&net).unwrap();
    assert_eq!(artifact.provenance.kept_buses, kept);

    let restored = RomArtifact::from_bytes(&artifact.to_bytes()).unwrap();
    assert!(artifact.bitwise_eq(&restored));
    assert_eq!(restored.provenance.kept_buses, kept);
}

/// Each bus's block, read off the artifact: bus `b`'s voltage is state
/// `b`, which the state order puts inside one block's range. Plus the
/// buses whose voltage is an interface state.
fn partition_of(a: &RomArtifact, num_buses: usize) -> (Vec<usize>, Vec<usize>) {
    let ends: Vec<usize> = (a.block_sizes.iter())
        .scan(0, |end, &size| {
            *end += size;
            Some(*end)
        })
        .collect();
    let block_of_bus = (0..num_buses)
        .map(|b| ends.partition_point(|&e| e <= a.state_order[b]))
        .collect();
    let interface = (0..num_buses)
        .filter(|&b| a.interface_states.binary_search(&a.state_order[b]).is_ok())
        .collect();
    (block_of_bus, interface)
}

#[test]
fn artifact_structure_determines_the_partition() {
    let check = |net: &Network, reducer: &Reducer, part: Partition| {
        let artifact = reducer.reduce_to_artifact(net).unwrap();
        assert_eq!(artifact.num_blocks(), part.num_blocks());
        let (block_of_bus, interface) = partition_of(&artifact, net.num_buses());
        assert_eq!(block_of_bus, part.block_of_node);
        assert_eq!(interface, part.interface);
    };
    let (net, kept) = kept_region();
    let part = ReductionSet::keep_buses(&net, &kept)
        .unwrap()
        .to_partition(&net)
        .unwrap();
    check(&net, &kept_region_reducer(&kept), part);

    let mesh = rc_grid(24, 24, 1.0, 1e-3, 2.0);
    let nd = Reducer::builder()
        .blocks(4)
        .nested_dissection()
        .exact_interfaces()
        .jomega_shifts(&[4.5e2])
        .build()
        .unwrap();
    let part = partition_network_with(&mesh, 4, PartitionStrategy::NestedDissection).unwrap();
    check(&mesh, &nd, part);
}
