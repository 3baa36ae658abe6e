//! Dependency-free timing helper for BDSM hot paths.
//!
//! Criterion is not in the dependency set, so this crate provides a small
//! wall-clock helper with warmup and per-iteration statistics. Regressions
//! are tracked by the standalone `benchmark/` harness; besides this helper
//! the crate holds only the `scaling` binary, the full-vs-ROM transient
//! record that no `benchmark/` workload takes yet.

use std::fmt;
use std::time::{Duration, Instant};

/// Timing result of one measured closure.
#[derive(Debug, Clone)]
pub struct Timing {
    /// Label of the measured operation.
    pub name: String,
    /// Number of measured iterations.
    pub iters: u32,
    /// Total wall-clock time across the measured iterations.
    pub total: Duration,
    /// Fastest single iteration.
    pub min: Duration,
    /// Slowest single iteration.
    pub max: Duration,
}

impl Timing {
    /// Mean time per iteration.
    pub fn per_iter(&self) -> Duration {
        self.total / self.iters.max(1)
    }
}

impl fmt::Display for Timing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:?}/iter (iters: {}, min {:?}, max {:?})",
            self.name,
            self.per_iter(),
            self.iters,
            self.min,
            self.max
        )
    }
}

/// Times `f` over `iters` iterations after `warmup` unmeasured runs.
///
/// # Panics
///
/// Panics if `iters == 0`.
pub fn time_with_warmup(name: &str, warmup: u32, iters: u32, mut f: impl FnMut()) -> Timing {
    assert!(iters > 0, "time_with_warmup: need at least one iteration");
    for _ in 0..warmup {
        f();
    }
    let mut total = Duration::ZERO;
    let mut min = Duration::MAX;
    let mut max = Duration::ZERO;
    for _ in 0..iters {
        let t0 = Instant::now();
        f();
        let dt = t0.elapsed();
        total += dt;
        min = min.min(dt);
        max = max.max(dt);
    }
    Timing {
        name: name.to_string(),
        iters,
        total,
        min,
        max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_accumulates_and_bounds_hold() {
        let mut count = 0u64;
        let t = time_with_warmup("busy-loop", 2, 5, || {
            count += 1;
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert_eq!(count, 7); // 2 warmup + 5 measured
        assert_eq!(t.iters, 5);
        assert!(t.min <= t.per_iter() && t.per_iter() <= t.max);
        assert!(t.total >= t.min * 5);
        assert!(t.to_string().contains("busy-loop"));
    }

    #[test]
    fn reduction_speedup_is_measurable() {
        // The point of the whole exercise: evaluating the reduced transfer
        // function must be much cheaper than the full one.
        use bdsm_core::krylov::KrylovOpts;
        use bdsm_core::reduce::{reduce_network, ReductionOpts};
        use bdsm_core::synth::rc_ladder;
        use bdsm_core::transfer::eval_transfer;
        use bdsm_linalg::Complex64;

        let net = rc_ladder(120, 1.0, 1e-3, 2.0);
        let opts = ReductionOpts {
            num_blocks: 4,
            krylov: KrylovOpts {
                expansion_points: vec![1.0e3],
                jomega_points: vec![],
                moments_per_point: 3,
                deflation_tol: 1e-12,
                ortho: Default::default(),
            },
            rank_tol: 1e-12,
            max_reduced_dim: None,
            ..ReductionOpts::default()
        };
        let rm = reduce_network(&net, &opts).unwrap();
        let full = rm.full.to_dense();
        let s = Complex64::jomega(500.0);
        let t_full = time_with_warmup("full-eval", 1, 3, || {
            std::hint::black_box(eval_transfer(&full.g, &full.c, &full.b, &full.l, s).unwrap());
        });
        let t_red = time_with_warmup("reduced-eval", 1, 3, || {
            std::hint::black_box(eval_transfer(&rm.g, &rm.c, &rm.b, &rm.l, s).unwrap());
        });
        // n = 120 vs q ≈ 24: the dense O(n³) gap must show clearly.
        assert!(
            t_red.per_iter() < t_full.per_iter(),
            "reduced eval ({:?}) not faster than full ({:?})",
            t_red.per_iter(),
            t_full.per_iter()
        );
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iters_rejected() {
        time_with_warmup("nope", 1, 0, || {});
    }
}
