//! Build once → save → serve: reduce a synthetic RC grid through the v1
//! `Reducer` builder, compare full vs reduced transfer functions, then
//! persist the ROM as a versioned artifact and serve a frequency batch
//! (plus a transient) from the loaded copy.
//!
//! Usage: `cargo run --release --example reduce_grid [rows] [cols] [blocks]`

use bdsm::core::engine::AdaptiveShiftOpts;
use bdsm::core::synth::rc_grid;
use bdsm::core::transfer::{transfer_rel_err, SparseTransferEvaluator};
use bdsm::linalg::Complex64;
use bdsm::rom::{Reducer, RomArtifact, RomServer};
use bdsm::sparse::ShiftedPencil;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let rows: usize = args.next().map_or(Ok(20), |a| a.parse())?;
    let cols: usize = args.next().map_or(Ok(25), |a| a.parse())?;
    let blocks: usize = args.next().map_or(Ok(5), |a| a.parse())?;

    let net = rc_grid(rows, cols, 1.0, 1e-3, 2.0);
    println!(
        "grid {rows}x{cols}: {} buses, partitioning into {blocks} blocks",
        net.num_buses()
    );

    // Build: a validated reducer — misconfigurations (zero moments, budget
    // below the block count, …) surface as a typed BuildError here, not as
    // a panic mid-pipeline.
    let reducer = Reducer::builder()
        .blocks(blocks)
        .jomega_shifts(&[5.0e1, 4.5e2, 4.0e3])
        .moments(2)
        .budget(net.num_buses() / 5)
        .sparse()
        .build()?;
    let t0 = Instant::now();
    let rm = reducer.reduce(&net)?;
    println!(
        "reduced {} -> {} states ({} blocks, dims {:?}) in {:.2?}",
        rm.full_dim(),
        rm.reduced_dim(),
        rm.block_dims.len(),
        rm.block_dims,
        t0.elapsed(),
    );

    // Factorization timing: one sparse complex factorization of G + jωC at
    // a mid-band frequency, against the dense complex LU when n is small
    // enough to densify without regret.
    let n = rm.full_dim();
    let s_mid = Complex64::jomega(4.5e2);
    let pencil = ShiftedPencil::new(&rm.full.g, &rm.full.c)?;
    let t = Instant::now();
    let sparse_lu = pencil.factor_complex(s_mid)?;
    let t_sparse_factor = t.elapsed();
    println!(
        "sparse shifted factorization at n={n}: {t_sparse_factor:.2?} \
         (pattern nnz {}, factor nnz {}, {} solve panels)",
        pencil.nnz(),
        sparse_lu.factor_nnz(),
        sparse_lu.solve_panel_count(),
    );
    if n <= 2500 {
        let full = rm.full.to_dense();
        let t = Instant::now();
        let _dense_lu = bdsm::core::transfer::ZLu::factor_shifted(&full.g, &full.c, s_mid)?;
        let t_dense_factor = t.elapsed();
        let speedup = t_dense_factor.as_secs_f64() / t_sparse_factor.as_secs_f64().max(1e-12);
        println!("dense shifted factorization at n={n}: {t_dense_factor:.2?} ({speedup:.1}x slower than sparse)");
    } else {
        println!("dense shifted factorization skipped (n={n} too large to densify)");
    }

    // Save → load → serve: the adaptive+exact headline mode, persisted as
    // a versioned artifact and queried through the concurrent server.
    let adaptive = Reducer::builder()
        .blocks(blocks)
        .jomega_shifts(&[4.5e2])
        .moments(2)
        .adaptive(AdaptiveShiftOpts {
            candidate_omegas: AdaptiveShiftOpts::log_grid(5.0e1, 4.0e3, 10),
            tol: 1e-6,
            max_shifts: 4,
        })
        .exact_interfaces()
        .build()?;
    let t0 = Instant::now();
    let artifact = adaptive.reduce_to_artifact(&net)?;
    println!(
        "adaptive+exact-interface: {} -> {} states in {:.2?} \
         ({} greedy residual(s), certified: {}, {} interface buses carried verbatim)",
        artifact.full_dim(),
        artifact.reduced_dim(),
        t0.elapsed(),
        artifact.provenance.residual_trajectory.len(),
        artifact.provenance.certified,
        artifact.interface_map.len(),
    );
    for (round, resid) in artifact.provenance.residual_trajectory.iter().enumerate() {
        println!("  round {round}: worst residual {resid:.2e}");
    }

    let path = std::env::temp_dir().join("reduce_grid_example.rom");
    let t = Instant::now();
    artifact.save(&path)?;
    let bytes = std::fs::metadata(&path)?.len();
    let t_save = t.elapsed();
    let t = Instant::now();
    let loaded = RomArtifact::load(&path)?;
    let t_load = t.elapsed();
    std::fs::remove_file(&path).ok();
    assert!(artifact.bitwise_eq(&loaded), "round-trip must be bitwise");
    println!(
        "artifact: {bytes} bytes on disk, saved in {t_save:.2?}, \
         loaded (bitwise-equal) in {t_load:.2?} [engine {}]",
        loaded.provenance.engine_version
    );

    let mut server = RomServer::new();
    let id = server.load_artifact(loaded);
    let full_ev =
        SparseTransferEvaluator::new(&rm.full.g, &rm.full.c, rm.full.b.clone(), rm.full.l.clone())?;
    println!(
        "{:>12}  {:>12}  {:>12}  {:>10}",
        "omega", "|H11| full", "|H11| served", "rel err"
    );
    let omegas: Vec<f64> = (0..10)
        .map(|i| 50.0 * (4000.0_f64 / 50.0).powf(i as f64 / 9.0))
        .collect();
    let t = Instant::now();
    let served = server.transfer_sweep(id, &omegas)?;
    let t_serve = t.elapsed();
    for (hs, &omega) in served.iter().zip(&omegas) {
        let hf = full_ev.eval(Complex64::jomega(omega))?;
        println!(
            "{omega:>12.2}  {:>12.6e}  {:>12.6e}  {:>10.2e}",
            hf[(0, 0)].abs(),
            hs[(0, 0)].abs(),
            transfer_rel_err(&hf, hs)
        );
    }
    println!(
        "served {} frequencies in {t_serve:.2?} ({} shifts now cached); \
         repeat batches skip factorization entirely",
        omegas.len(),
        server.cached_shifts(id)?,
    );

    // A served transient: 200 backward-Euler steps of a unit step input.
    let m = server.artifact(id)?.num_inputs();
    let wave: Vec<Vec<f64>> = (0..200).map(|_| vec![1.0; m]).collect();
    let t = Instant::now();
    let ys = server.transient(id, 1e-4, &wave)?;
    println!(
        "served transient: {} steps in {:.2?}, final outputs {:?}",
        ys.len(),
        t.elapsed(),
        ys.last().unwrap(),
    );
    Ok(())
}
