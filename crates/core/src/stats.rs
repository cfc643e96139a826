//! Internal statistics — the counters behind the paper's Table 2.

/// Fission counters.
///
/// * `Ratio` = `sep_funcs / ori_funcs` (can exceed 100%: several regions
///   per function).
/// * `#BB`   = average basic-block count of the `sepFunc`s.
/// * `RR`    = average fraction of an original function's blocks that were
///   moved out ("reduced ratio").
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FissionStats {
    /// Functions considered by fission.
    pub ori_funcs: usize,
    /// Functions actually split (became a `remFunc`).
    pub fissioned_funcs: usize,
    /// `sepFunc`s created.
    pub sep_funcs: usize,
    /// Total basic blocks across all `sepFunc`s.
    pub sep_blocks: usize,
    /// Sum over fissioned functions of `blocks_moved / blocks_before`.
    pub reduced_ratio_sum: f64,
    /// Pointer/value parameters avoided by the data-flow reduction
    /// (lazy allocation, §3.2.2).
    pub params_reduced: usize,
}

impl FissionStats {
    /// `#sepFuncs / #oriFuncs` (the paper's "Fission Ratio").
    pub fn ratio(&self) -> f64 {
        if self.ori_funcs == 0 {
            0.0
        } else {
            self.sep_funcs as f64 / self.ori_funcs as f64
        }
    }

    /// Average `#BB` per `sepFunc`.
    pub fn avg_blocks(&self) -> f64 {
        if self.sep_funcs == 0 {
            0.0
        } else {
            self.sep_blocks as f64 / self.sep_funcs as f64
        }
    }

    /// Average reduced ratio (`RR`) over fissioned functions.
    pub fn reduced_ratio(&self) -> f64 {
        if self.fissioned_funcs == 0 {
            0.0
        } else {
            self.reduced_ratio_sum / self.fissioned_funcs as f64
        }
    }

    /// Merges another module's counters into this one (suite-level rows).
    pub fn merge(&mut self, other: &FissionStats) {
        self.ori_funcs += other.ori_funcs;
        self.fissioned_funcs += other.fissioned_funcs;
        self.sep_funcs += other.sep_funcs;
        self.sep_blocks += other.sep_blocks;
        self.reduced_ratio_sum += other.reduced_ratio_sum;
        self.params_reduced += other.params_reduced;
    }
}

/// Fusion counters.
///
/// * `Fusion Ratio` = fraction of eligible functions successfully paired.
/// * `#RP`  = average parameters removed per pair by list compression.
/// * `#HBB` = average innocuous ("harmless") basic blocks found per
///   fused function.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FusionStats {
    /// Functions eligible for fusion.
    pub eligible_funcs: usize,
    /// Functions that ended up inside some `fusFunc`.
    pub fused_funcs: usize,
    /// `fusFunc`s created.
    pub fus_funcs: usize,
    /// Total parameters removed by compression.
    pub params_removed: usize,
    /// Total innocuous blocks identified.
    pub innocuous_blocks: usize,
    /// Innocuous block pairs actually merged by deep fusion.
    pub deep_fused_pairs: usize,
    /// Trampolines generated for exported/escaping functions.
    pub trampolines: usize,
    /// Indirect call sites rewritten with the tag-decode sequence.
    pub indirect_sites_rewritten: usize,
}

impl FusionStats {
    /// Fraction of eligible functions aggregated (the paper's 97–99%).
    pub fn ratio(&self) -> f64 {
        if self.eligible_funcs == 0 {
            0.0
        } else {
            self.fused_funcs as f64 / self.eligible_funcs as f64
        }
    }

    /// Average `#RP` per created `fusFunc`.
    pub fn avg_reduced_params(&self) -> f64 {
        if self.fus_funcs == 0 {
            0.0
        } else {
            self.params_removed as f64 / self.fus_funcs as f64
        }
    }

    /// Average `#HBB` per created `fusFunc`.
    pub fn avg_innocuous(&self) -> f64 {
        if self.fus_funcs == 0 {
            0.0
        } else {
            self.innocuous_blocks as f64 / self.fus_funcs as f64
        }
    }

    /// Merges another module's counters into this one.
    pub fn merge(&mut self, other: &FusionStats) {
        self.eligible_funcs += other.eligible_funcs;
        self.fused_funcs += other.fused_funcs;
        self.fus_funcs += other.fus_funcs;
        self.params_removed += other.params_removed;
        self.innocuous_blocks += other.innocuous_blocks;
        self.deep_fused_pairs += other.deep_fused_pairs;
        self.trampolines += other.trampolines;
        self.indirect_sites_rewritten += other.indirect_sites_rewritten;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fission_ratios() {
        let s = FissionStats {
            ori_funcs: 10,
            fissioned_funcs: 6,
            sep_funcs: 12,
            sep_blocks: 60,
            reduced_ratio_sum: 2.4,
            params_reduced: 5,
        };
        assert!((s.ratio() - 1.2).abs() < 1e-9);
        assert!((s.avg_blocks() - 5.0).abs() < 1e-9);
        assert!((s.reduced_ratio() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn fusion_ratios() {
        let s = FusionStats {
            eligible_funcs: 100,
            fused_funcs: 98,
            fus_funcs: 49,
            params_removed: 70,
            innocuous_blocks: 60,
            ..FusionStats::default()
        };
        assert!((s.ratio() - 0.98).abs() < 1e-9);
        assert!((s.avg_reduced_params() - 70.0 / 49.0).abs() < 1e-9);
        assert!((s.avg_innocuous() - 60.0 / 49.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_do_not_divide_by_zero() {
        let s = FissionStats::default();
        assert_eq!(s.ratio(), 0.0);
        assert_eq!(s.avg_blocks(), 0.0);
        let f = FusionStats::default();
        assert_eq!(f.ratio(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = FissionStats {
            ori_funcs: 1,
            sep_funcs: 2,
            ..Default::default()
        };
        let b = FissionStats {
            ori_funcs: 3,
            sep_funcs: 4,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.ori_funcs, 4);
        assert_eq!(a.sep_funcs, 6);
    }
}
