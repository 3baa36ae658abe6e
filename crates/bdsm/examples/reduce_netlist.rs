//! Real-grid workflow: parse a checked-in SPICE fixture netlist, mark
//! the buses a downstream tool needs to keep (the reduction region),
//! reduce everything else with adaptive shifts and exact interfaces,
//! then persist the ROM artifact and serve a frequency batch from the
//! loaded copy. Finishes by checking that every kept boundary voltage
//! matches the full model to ≤ 1e-10 at a matched shift — the exact
//! interface policy makes those voltages ROM coordinates verbatim.
//!
//! Usage: `cargo run --release --example reduce_netlist [netlist.sp]`

use bdsm::core::engine::AdaptiveShiftOpts;
use bdsm::core::transfer::ZLu;
use bdsm::io::{load_netlist, write_netlist};
use bdsm::linalg::Complex64;
use bdsm::rom::{Reducer, RomArtifact, RomServer};
use bdsm::sparse::ShiftedPencil;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let default = concat!(env!("CARGO_MANIFEST_DIR"), "/../io/fixtures/grid10x10.sp");
    let path = std::env::args().nth(1).unwrap_or_else(|| default.into());

    let net = load_netlist(&path)?;
    println!(
        "{path}: {} buses, {} elements, {} inputs, {} outputs",
        net.num_buses(),
        net.elements().len(),
        net.num_inputs(),
        net.num_outputs(),
    );

    // Round-trip sanity: the writer emits the same network the parser read.
    let text = write_netlist(&net)?;
    println!("writer round-trip: {} lines of SPICE", text.lines().count());

    // Reduction region: keep the left edge of the mesh (bus names ending
    // in `_0`) plus the far-corner port — everything the downstream tool
    // observes — and eliminate the interior. With a non-fixture netlist,
    // fall back to keeping the first three buses.
    let mut kept: Vec<usize> = (0..net.num_buses())
        .filter(|&b| net.bus_name(b).ends_with("_0") || net.bus_name(b) == "n9_9")
        .collect();
    if kept.is_empty() {
        kept = (0..net.num_buses().min(3)).collect();
    }
    println!(
        "keeping {} of {} buses: {:?}{}",
        kept.len(),
        net.num_buses(),
        kept.iter()
            .take(6)
            .map(|&b| net.bus_name(b))
            .collect::<Vec<_>>(),
        if kept.len() > 6 { " …" } else { "" },
    );

    // `keep_buses` derives the external/boundary/internal split from the
    // netlist adjacency and switches the interface policy to Exact so the
    // kept boundary voltages survive reduction bit-for-bit recoverable.
    let reducer = Reducer::builder()
        .keep_buses(&kept)
        .jomega_shifts(&[4.5e2])
        .moments(2)
        .adaptive(AdaptiveShiftOpts {
            candidate_omegas: AdaptiveShiftOpts::log_grid(5.0e1, 4.0e3, 10),
            tol: 1e-6,
            max_shifts: 4,
        })
        .sparse()
        .build()?;

    let t0 = Instant::now();
    let rm = reducer.reduce(&net)?;
    println!(
        "reduced {} -> {} states ({} blocks, {} interface states) in {:.2?}",
        rm.full_dim(),
        rm.reduced_dim(),
        rm.block_dims.len(),
        rm.interface_states.len(),
        t0.elapsed(),
    );

    // Kept-boundary voltages vs the full model at a matched shift: the
    // interface rows of the basis are unit vectors, so the ROM coordinate
    // IS the boundary voltage — deviation must sit at solver roundoff.
    let s = Complex64::jomega(4.5e2);
    let full_lu = ShiftedPencil::new(&rm.full.g, &rm.full.c)?.factor_complex(s)?;
    let rom_lu = ZLu::factor_shifted(&rm.g, &rm.c, s)?;
    let mut worst = 0.0_f64;
    for input in 0..rm.full.b.ncols() {
        let x_full = full_lu.solve_real(&rm.full.b.col(input))?;
        let x_rom = rom_lu.solve_real(&rm.b.col(input))?;
        let scale = x_full
            .iter()
            .map(|z| z.abs())
            .fold(0.0_f64, f64::max)
            .max(f64::MIN_POSITIVE);
        for &(row, col) in &rm.interface_map {
            worst = worst.max((x_rom[col] - x_full[row]).abs() / scale);
        }
    }
    println!("worst kept-boundary voltage deviation vs full: {worst:.3e}");
    assert!(worst <= 1e-10, "exact interfaces must hold to 1e-10");

    // Persist: the artifact records the reduction region in provenance.
    let artifact = reducer.reduce_to_artifact(&net)?;
    println!(
        "artifact provenance: {:?} interfaces, {} kept buses, certified {}",
        artifact.provenance.interface_policy,
        artifact.provenance.kept_buses.len(),
        artifact.provenance.certified,
    );
    let rom_path = std::env::temp_dir().join("reduce_netlist_example.rom");
    artifact.save(&rom_path)?;
    let loaded = RomArtifact::load(&rom_path)?;
    std::fs::remove_file(&rom_path).ok();
    assert!(artifact.bitwise_eq(&loaded), "round-trip must be bitwise");

    // Serve a log-spaced frequency batch from the loaded copy.
    let mut server = RomServer::new();
    let id = server.load_artifact(loaded);
    let omegas: Vec<f64> = (0..8)
        .map(|i| 50.0 * (4000.0_f64 / 50.0).powf(i as f64 / 7.0))
        .collect();
    let t = Instant::now();
    let sweep = server.transfer_sweep(id, &omegas)?;
    println!(
        "served {} frequencies in {:.2?} ({} shifts cached); |H11| at {:.0} rad/s = {:.4e}",
        sweep.len(),
        t.elapsed(),
        server.cached_shifts(id)?,
        omegas[0],
        sweep[0][(0, 0)].abs(),
    );
    Ok(())
}
