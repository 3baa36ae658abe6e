//! Shard placement: which shard answers which query.
//!
//! A [`ShardPlan`] maps every cluster-level model id to either a single
//! owning shard ([`Placement::Model`]) or a set of disjoint frequency
//! bands ([`Placement::Bands`]), each band owned by one shard. Band
//! sharding splits a model's certified ω-envelope so a wide sweep fans
//! out across machines; per-sample results are independent, so the
//! partition changes *where* a sample is computed, never its bytes.
//!
//! The plan is summarized by a [`digest`](ShardPlan::digest) — the codec
//! checksum of the canonical placement encoding — which every shard stamps
//! into every reply. The router refuses replies whose digest differs
//! from its own plan, so a misconfigured or stale shard is a typed
//! error, not silent wrong routing.

use bdsm_rom::codec::{checksum, ByteWriter};
use std::collections::BTreeMap;

/// One shard's slice of a band-sharded model: the half-open influence
/// range is resolved by [`ShardPlan::shard_for`], which clamps queries
/// below the first band and above the last to the edge shards.
#[derive(Debug, Clone, PartialEq)]
pub struct BandRange {
    /// Owning shard index.
    pub shard: u32,
    /// Inclusive lower edge (rad/s).
    pub lo: f64,
    /// Inclusive upper edge (rad/s).
    pub hi: f64,
}

/// Where one model's queries go.
#[derive(Debug, Clone, PartialEq)]
pub enum Placement {
    /// Every query for the model goes to one shard.
    Model(u32),
    /// Frequency-domain queries split over disjoint, ascending bands;
    /// non-frequency queries (transients) go to the first band's shard.
    Bands(Vec<BandRange>),
}

/// Why a plan was rejected at construction.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PlanError {
    /// A plan must have at least one shard.
    NoShards,
    /// A band envelope was degenerate, or could not be split into one
    /// band per shard.
    BadBands {
        /// The model whose placement is broken.
        model: u64,
        /// What exactly was wrong.
        reason: &'static str,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::NoShards => write!(f, "shard plan has zero shards"),
            PlanError::BadBands { model, reason } => {
                write!(f, "model {model}: bad band list ({reason})")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// A placement of models onto shards, built valid by its two
/// constructors, [`by_model`](ShardPlan::by_model) and
/// [`by_bands`](ShardPlan::by_bands).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    shards: u32,
    placements: BTreeMap<u64, Placement>,
}

impl ShardPlan {
    /// Shard-by-model: models round-robin over `shards`, each wholly
    /// owned by its shard.
    ///
    /// # Errors
    ///
    /// [`PlanError::NoShards`] when `shards` is zero.
    pub fn by_model(models: &[u64], shards: u32) -> Result<ShardPlan, PlanError> {
        if shards == 0 {
            return Err(PlanError::NoShards);
        }
        let placements = models
            .iter()
            .enumerate()
            .map(|(i, &m)| (m, Placement::Model((i % shards as usize) as u32)))
            .collect();
        Ok(ShardPlan { shards, placements })
    }

    /// Shard-by-frequency-band: one model's certified envelope
    /// `[lo, hi]` split into `shards` log-spaced disjoint bands, band
    /// `k` owned by shard `k`. Log spacing matches how sweeps sample
    /// (decades, not linear), so bands see comparable load.
    ///
    /// # Errors
    ///
    /// [`PlanError`] for a zero shard count, a degenerate envelope
    /// (non-finite, non-positive, or `lo >= hi`), or one that cannot be
    /// split into `shards` bands: so wide that `hi / lo` overflows, or so
    /// narrow that a band would come out with `lo > hi`.
    pub fn by_bands(model: u64, shards: u32, lo: f64, hi: f64) -> Result<ShardPlan, PlanError> {
        if shards == 0 {
            return Err(PlanError::NoShards);
        }
        if !(lo.is_finite() && hi.is_finite() && lo > 0.0 && lo < hi) {
            return Err(PlanError::BadBands {
                model,
                reason: "envelope must satisfy 0 < lo < hi, finite",
            });
        }
        let n = shards as usize;
        let ratio = hi / lo;
        let mut bands = Vec::with_capacity(n);
        let mut prev_hi = lo;
        for k in 0..n {
            let band_lo = prev_hi;
            let band_hi = if k + 1 == n {
                hi
            } else {
                lo * ratio.powf((k + 1) as f64 / n as f64)
            };
            // `hi / lo` overflows on an envelope wider than f64's range,
            // and a narrow one rounds two edges past each other.
            if !band_hi.is_finite() {
                return Err(PlanError::BadBands {
                    model,
                    reason: "non-finite band edge",
                });
            }
            if band_lo > band_hi {
                return Err(PlanError::BadBands {
                    model,
                    reason: "band with lo > hi",
                });
            }
            bands.push(BandRange {
                shard: k as u32,
                lo: band_lo,
                hi: band_hi,
            });
            // Next band starts strictly above this one (next f64 up), so
            // the bands are disjoint and routing is unambiguous.
            prev_hi = next_up(band_hi);
        }
        let placements = BTreeMap::from([(model, Placement::Bands(bands))]);
        Ok(ShardPlan { shards, placements })
    }

    /// Number of shards the plan spans.
    pub fn num_shards(&self) -> u32 {
        self.shards
    }

    /// Model ids the plan places, ascending.
    pub fn models(&self) -> impl Iterator<Item = u64> + '_ {
        self.placements.keys().copied()
    }

    /// The placement for a model, if placed.
    pub fn placement(&self, model: u64) -> Option<&Placement> {
        self.placements.get(&model)
    }

    /// The shard owning one frequency sample of `model`: the owning
    /// shard for model-sharded placements; for band-sharded ones, the
    /// band containing `omega`, clamped to the edge bands outside the
    /// envelope (out-of-envelope queries stay servable — the shard's own
    /// `RomServer` envelope policy decides what to do with them).
    pub fn shard_for(&self, model: u64, omega: f64) -> Option<u32> {
        match self.placements.get(&model)? {
            Placement::Model(shard) => Some(*shard),
            Placement::Bands(bands) => {
                for b in bands {
                    if omega <= b.hi {
                        return Some(b.shard);
                    }
                }
                bands.last().map(|b| b.shard)
            }
        }
    }

    /// The shard answering `model`'s non-frequency queries (transients,
    /// metadata): the owning shard, or the first band's shard — a
    /// transient integrates the whole model and cannot be split by ω.
    pub fn home_shard(&self, model: u64) -> Option<u32> {
        match self.placements.get(&model)? {
            Placement::Model(shard) => Some(*shard),
            Placement::Bands(bands) => bands.first().map(|b| b.shard),
        }
    }

    /// Checksum of the canonical placement encoding — the audit
    /// stamp shards echo in every reply.
    pub fn digest(&self) -> u64 {
        let mut w = ByteWriter::new();
        w.u32(self.shards);
        for (&model, placement) in &self.placements {
            w.u64(model);
            match placement {
                Placement::Model(shard) => {
                    w.u8(0);
                    w.u32(*shard);
                }
                Placement::Bands(bands) => {
                    w.u8(1);
                    w.u64(bands.len() as u64);
                    for b in bands {
                        w.u32(b.shard);
                        w.f64(b.lo);
                        w.f64(b.hi);
                    }
                }
            }
        }
        checksum(&w.into_bytes())
    }
}

/// The next representable f64 above `x` (for strictly-increasing band
/// edges; `f64::next_up` is not yet stable on this toolchain).
fn next_up(x: f64) -> f64 {
    let bits = x.to_bits();
    f64::from_bits(if x >= 0.0 { bits + 1 } else { bits - 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_model_round_robins_and_digest_is_stable() {
        let plan = ShardPlan::by_model(&[10, 11, 12], 2).unwrap();
        assert_eq!(plan.shard_for(10, 1.0), Some(0));
        assert_eq!(plan.shard_for(11, 1.0), Some(1));
        assert_eq!(plan.shard_for(12, 1.0), Some(0));
        assert_eq!(plan.home_shard(11), Some(1));
        assert_eq!(plan.shard_for(99, 1.0), None);
        let again = ShardPlan::by_model(&[10, 11, 12], 2).unwrap();
        assert_eq!(plan.digest(), again.digest());
        let different = ShardPlan::by_model(&[10, 11, 12], 3).unwrap();
        assert_ne!(plan.digest(), different.digest());
    }

    #[test]
    fn by_bands_covers_the_envelope_disjointly() {
        let plan = ShardPlan::by_bands(7, 4, 50.0, 4.0e3).unwrap();
        let Placement::Bands(bands) = plan.placement(7).unwrap() else {
            panic!("expected bands");
        };
        assert_eq!(bands.len(), 4);
        assert_eq!(bands[0].lo, 50.0);
        assert_eq!(bands[3].hi, 4.0e3);
        for w in [50.0, 200.0, 1.0e3, 4.0e3] {
            assert!(plan.shard_for(7, w).is_some());
        }
        // Outside the envelope clamps to the edge shards.
        assert_eq!(plan.shard_for(7, 1.0), Some(0));
        assert_eq!(plan.shard_for(7, 1.0e9), Some(3));
        // Transients go to the first band's shard.
        assert_eq!(plan.home_shard(7), Some(0));
    }

    #[test]
    fn validation_rejects_bad_plans() {
        assert_eq!(
            ShardPlan::by_model(&[1], 0).unwrap_err(),
            PlanError::NoShards
        );
        assert_eq!(
            ShardPlan::by_bands(1, 0, 10.0, 20.0).unwrap_err(),
            PlanError::NoShards
        );
        assert!(ShardPlan::by_bands(1, 2, -1.0, 10.0).is_err());
        assert!(ShardPlan::by_bands(1, 2, 10.0, 10.0).is_err());
        // An envelope one ulp wide cannot hold three disjoint bands.
        assert_eq!(
            ShardPlan::by_bands(1, 3, 1.0, next_up(1.0)).unwrap_err(),
            PlanError::BadBands {
                model: 1,
                reason: "band with lo > hi",
            }
        );
        // `hi / lo` overflows, so the first inner edge is infinite.
        assert_eq!(
            ShardPlan::by_bands(1, 2, 1.0e-10, 1.0e300).unwrap_err(),
            PlanError::BadBands {
                model: 1,
                reason: "non-finite band edge",
            }
        );
    }

    /// Shards and clients compare this stamp, so it must not move
    /// between builds: these are the digests of the canonical encoding.
    #[test]
    fn digests_are_pinned() {
        let by_model = ShardPlan::by_model(&[10, 11, 12], 2).unwrap();
        assert_eq!(by_model.digest(), 0x11a6_5ba2_423d_d1f0);
        let by_bands = ShardPlan::by_bands(7, 4, 50.0, 4.0e3).unwrap();
        assert_eq!(by_bands.digest(), 0x4ed9_d4ad_d664_fd68);
    }
}
