//! The benchmark's fixed tables: workloads, end-to-end metrics with their
//! bounds, per-layer metrics. `BENCHMARK.json` at the repo root is
//! generated from them (`bdsm-benchmark manifest`) and a unit test keeps
//! the two identical.

/// Which generated network a workload reduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Loaded RC ladder, n = 10⁴: fill-free 1-D pattern.
    Ladder,
    /// 100×100 RC mesh: 2-D fill pattern.
    Mesh,
}

/// Where a workload spends its measuring time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Repeated netlist → artifact builds.
    Reduce,
    /// Fresh server per round, every request a cache miss.
    Cold,
    /// Pre-warmed unbounded cache, two closed-loop clients.
    Warm,
    /// Bounded cache under a Zipf stream of mixed request kinds.
    Churn,
    /// The warm stream through a two-shard loopback cluster.
    Cluster,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub topology: Topology,
    pub kind: Kind,
}

pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "reduce-ladder-10k",
        why: "1-D pattern: sparse solves are cheap, the cross-point merge and dense orthogonalisation dominate; merge work must show here, sparse-solver work must not",
        topology: Topology::Ladder,
        kind: Kind::Reduce,
    },
    Spec {
        name: "reduce-mesh-10k",
        why: "2-D fill: sparse factor/solve in krylov.point and certify dominate, merge is ~1 %; the mirror image of the ladder and the headline netlist-to-artifact build",
        topology: Topology::Mesh,
        kind: Kind::Reduce,
    },
    Spec {
        name: "serve-cold",
        why: "fresh server per round and 64 distinct shifts: every request is a miss, so artifact decode and the dense q x q factorisation dominate",
        topology: Topology::Mesh,
        kind: Kind::Cold,
    },
    Spec {
        name: "serve-warm",
        why: "pre-warmed unbounded cache, 2 closed-loop clients: 100 % hits, only triangular solves, lookup and lock; bypass workload for any factorisation change",
        topology: Topology::Mesh,
        kind: Kind::Warm,
    },
    Spec {
        name: "serve-churn",
        why: "capacity-16 cache under a Zipf stream of sweep/port/transient requests: inserts and evictions beside lookups, counts checked against an LRU model",
        topology: Topology::Mesh,
        kind: Kind::Churn,
    },
    Spec {
        name: "cluster-warm",
        why: "the warm stream as sweep_batch calls through a 2-shard loopback cluster: encode, round trip, decode and coalescing become a visible share",
        topology: Topology::Mesh,
        kind: Kind::Cluster,
    },
];

pub fn workload(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// `(name, unit, direction, bound)`: the bound is the share of the base
/// median by which the metric may worsen before it counts as a
/// regression. Each is at least twice the run-to-run spread seen on the
/// reference host (README, noise study) — which for every timing means
/// the contract's ceiling of a quarter.
pub const END_TO_END: [(&str, &str, Better, f64); 7] = [
    ("setup_s", "s", Better::Lower, 0.25),
    ("reduce_s", "s", Better::Lower, 0.25),
    ("artifact_bytes", "bytes", Better::Lower, 0.05),
    ("first_answer_ms", "ms", Better::Lower, 0.25),
    ("req_per_s", "1/s", Better::Higher, 0.25),
    ("p50_ms", "ms", Better::Lower, 0.25),
    ("peak_rss_mb", "MB", Better::Lower, 0.15),
];

/// `(name, unit, direction)`, grouped by layer (the prefix is the crate).
pub const PER_LAYER: [(&str, &str, Better); 64] = [
    ("io.parse_ms", "ms", Better::Lower),
    ("io.parse_mb_per_s", "MB/s", Better::Higher),
    ("circuit.assemble_ms", "ms", Better::Lower),
    ("circuit.partition_ms", "ms", Better::Lower),
    ("circuit.interface_states", "count", Better::Lower),
    ("sparse.symbolic_ms", "ms", Better::Lower),
    ("sparse.factor_ms", "ms", Better::Lower),
    ("sparse.factor_nnz", "count", Better::Lower),
    ("sparse.solve_multi_ms", "ms", Better::Lower),
    ("sparse.solve_gbps", "GB/s", Better::Higher),
    ("sparse.lu_factor_count", "count", Better::Lower),
    ("sparse.lu_solve_count", "count", Better::Lower),
    ("linalg.gemm_peak_gflops", "GFLOP/s", Better::Higher),
    ("linalg.stream_gbps", "GB/s", Better::Higher),
    ("linalg.block_project_ms", "ms", Better::Lower),
    ("linalg.block_project_gflops", "GFLOP/s", Better::Higher),
    ("linalg.svd_block_ms", "ms", Better::Lower),
    ("linalg.zlu_factor_ms", "ms", Better::Lower),
    ("linalg.zlu_factor_gflops", "GFLOP/s", Better::Higher),
    ("linalg.zlu_solve_ms", "ms", Better::Lower),
    ("linalg.zlu_solve_gbps", "GB/s", Better::Higher),
    ("core.plan_ms", "ms", Better::Lower),
    ("core.krylov_point_ms", "ms", Better::Lower),
    ("core.krylov_merge_ms", "ms", Better::Lower),
    ("core.svd_ms", "ms", Better::Lower),
    ("core.project_ms", "ms", Better::Lower),
    ("core.certify_ms", "ms", Better::Lower),
    ("core.stage_coverage", "share", Better::Higher),
    ("core.merge_gflops", "GFLOP/s", Better::Higher),
    ("core.adaptive_rounds", "count", Better::Lower),
    ("core.basis_cols", "count", Better::Lower),
    ("core.rom_dim", "count", Better::Lower),
    ("core.max_rel_err", "ratio", Better::Lower),
    ("core.reduce_1t_s", "s", Better::Lower),
    ("core.par_efficiency", "share", Better::Higher),
    ("rom.encode_ms", "ms", Better::Lower),
    ("rom.decode_ms", "ms", Better::Lower),
    ("rom.codec_mb_per_s", "MB/s", Better::Higher),
    ("rom.cache_hits", "count", Better::Higher),
    ("rom.cache_misses", "count", Better::Lower),
    ("rom.cache_evictions", "count", Better::Lower),
    ("rom.hit_rate", "share", Better::Higher),
    ("rom.hit_ms_p50", "ms", Better::Lower),
    ("rom.miss_ms_p50", "ms", Better::Lower),
    ("rom.p99_ms", "ms", Better::Lower),
    ("rom.sweep_ms_p50", "ms", Better::Lower),
    ("rom.port_ms_p50", "ms", Better::Lower),
    ("rom.transient_ms_p50", "ms", Better::Lower),
    ("rom.flagged", "count", Better::Lower),
    ("rom.refused", "count", Better::Lower),
    ("rom.span_coverage", "share", Better::Higher),
    ("sim.factor_ms", "ms", Better::Lower),
    ("sim.step_us", "us", Better::Lower),
    ("cluster.ping_us", "us", Better::Lower),
    ("cluster.encode_us", "us", Better::Lower),
    ("cluster.decode_us", "us", Better::Lower),
    ("cluster.bytes_per_req", "bytes", Better::Lower),
    ("cluster.rpcs", "count", Better::Lower),
    ("cluster.coalesced", "count", Better::Higher),
    ("cluster.retries", "count", Better::Lower),
    ("cluster.load_rom_ms", "ms", Better::Lower),
    ("cluster.over_local", "ratio", Better::Higher),
    ("obs.trace_overhead", "ratio", Better::Lower),
    ("obs.span_count", "count", Better::Lower),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.0));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
