//! Statistical error of the JE estimate, with the paper's cost
//! normalization.

use crate::pmf::{grid, Estimator};
use spice_smd::WorkTrajectory;
use spice_stats::rng::seed_stream;

/// Bootstrap standard error of the PMF at each grid point, resampling
/// whole *trajectories* (realizations are the independent unit, not
/// individual work samples).
///
/// Returns `(guide_disp, sigma)` per grid point. Deterministic under
/// `seed`.
///
/// Each replicate is what [`PmfCurve::estimate`] would compute for the
/// resampled ensemble, down to the bit: the estimator sees the same works
/// in the same order and the gauge subtracts the same first point. The
/// work is cheaper, though — every trajectory is interpolated at every
/// grid point once, up front, and a replicate only indexes that table.
///
/// [`PmfCurve::estimate`]: crate::pmf::PmfCurve::estimate
pub fn pmf_bootstrap_sigma(
    trajectories: &[WorkTrajectory],
    span: f64,
    npoints: usize,
    kt: f64,
    estimator: Estimator,
    resamples: usize,
    seed: u64,
) -> Vec<(f64, f64)> {
    assert!(
        trajectories.len() >= 2,
        "need ≥2 realizations for error bars"
    );
    let n = trajectories.len();
    // A replicate's grid follows the pull direction of its first
    // trajectory, as in `PmfCurve::estimate`; an ensemble normally has
    // one direction, so this is one table in practice.
    let mut directions: Vec<u64> = trajectories
        .iter()
        .map(|t| t.v_a_per_ns.signum().to_bits())
        .collect();
    directions.sort_unstable();
    directions.dedup();
    let tables: Vec<(Vec<f64>, Vec<Option<f64>>)> = directions
        .iter()
        .map(|&bits| {
            let s: Vec<f64> = grid(f64::from_bits(bits), span, npoints).collect();
            let works = trajectories
                .iter()
                .flat_map(|t| s.iter().map(|&s| t.work_at(s)))
                .collect();
            (s, works)
        })
        .collect();

    // Bootstrap Φ replicates: per replicate, the Φ of each grid point
    // some resampled trajectory reaches, gauge-shifted to the first.
    let mut replicate_phis: Vec<Vec<f64>> = Vec::with_capacity(resamples);
    let mut grid_disp: Option<Vec<f64>> = None;
    let mut resample = Vec::with_capacity(n);
    let mut works = Vec::with_capacity(n);
    for r in 0..resamples {
        resample.clear();
        resample
            .extend((0..n).map(|k| (seed_stream(seed, (r * n + k) as u64) % n as u64) as usize));
        let first_dir = trajectories[resample[0]].v_a_per_ns.signum().to_bits();
        let (s, table) = &tables[directions
            .binary_search(&first_dir)
            .expect("direction tabled")];
        let mut phis = Vec::with_capacity(npoints);
        let mut disp = Vec::with_capacity(npoints);
        for (k, &s_k) in s.iter().enumerate() {
            works.clear();
            works.extend(resample.iter().filter_map(|&t| table[t * npoints + k]));
            if works.is_empty() {
                continue;
            }
            phis.push(estimator.point_phi(&works, kt));
            disp.push(s_k);
        }
        if let Some(&phi0) = phis.first() {
            for phi in &mut phis {
                *phi -= phi0;
            }
        }
        grid_disp.get_or_insert(disp);
        replicate_phis.push(phis);
    }
    let grid_disp = grid_disp.expect("at least one replicate");
    let mut out = Vec::with_capacity(grid_disp.len());
    let mut column = Vec::with_capacity(resamples);
    for (j, &s) in grid_disp.iter().enumerate() {
        column.clear();
        column.extend(replicate_phis.iter().filter_map(|rep| rep.get(j).copied()));
        out.push((s, spice_stats::std_dev(&column)));
    }
    out
}

/// Scalar statistical error of a curve: RMS of the per-point bootstrap
/// sigmas (excluding the pinned Φ(0) = 0 point).
pub fn pmf_sigma_scalar(sigmas: &[(f64, f64)]) -> f64 {
    let vals: Vec<f64> = sigmas.iter().skip(1).map(|&(_, s)| s * s).collect();
    if vals.is_empty() {
        return f64::NAN;
    }
    (vals.iter().sum::<f64>() / vals.len() as f64).sqrt()
}

/// The paper's §IV-C computational-cost normalization.
///
/// At fixed compute budget, the number of affordable samples scales with
/// pulling velocity: `n_affordable(v) = n_ref · v / v_ref`. A σ measured
/// from `n_used` samples is rescaled to the affordable count assuming
/// `σ ∝ 1/√n`:
///
/// `σ_norm = σ_measured · √(n_used / n_affordable)`
///
/// With `v_ref = 100 Å/ns` this reproduces the paper's "the statistical
/// error of the v = 12.5 set should be set to √8 of the v = 100 set".
pub fn cost_normalized_sigma(
    sigma_measured: f64,
    n_used: usize,
    v_a_per_ns: f64,
    v_ref_a_per_ns: f64,
    n_ref_budget: usize,
) -> f64 {
    assert!(
        v_a_per_ns > 0.0 && v_ref_a_per_ns > 0.0,
        "velocities must be positive"
    );
    assert!(n_used > 0 && n_ref_budget > 0);
    let n_affordable = n_ref_budget as f64 * v_a_per_ns / v_ref_a_per_ns;
    sigma_measured * (n_used as f64 / n_affordable).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pmf::PmfCurve;
    use proptest::prelude::*;
    use spice_md::units::KT_300;
    use spice_smd::WorkSample;

    /// The original algorithm, kept as the oracle: clone each resampled
    /// trajectory and run `PmfCurve::estimate` on the clones.
    fn clone_and_estimate_oracle(
        trajectories: &[WorkTrajectory],
        span: f64,
        npoints: usize,
        kt: f64,
        estimator: Estimator,
        resamples: usize,
        seed: u64,
    ) -> Vec<(f64, f64)> {
        let n = trajectories.len();
        let mut replicate_phis: Vec<Vec<f64>> = Vec::with_capacity(resamples);
        let mut grid: Option<Vec<f64>> = None;
        let mut resample = Vec::with_capacity(n);
        for r in 0..resamples {
            resample.clear();
            for k in 0..n {
                let idx = (seed_stream(seed, (r * n + k) as u64) % n as u64) as usize;
                resample.push(trajectories[idx].clone());
            }
            let pmf = PmfCurve::estimate(&resample, span, npoints, kt, estimator);
            if grid.is_none() {
                grid = Some(pmf.points.iter().map(|p| p.guide_disp).collect());
            }
            replicate_phis.push(pmf.points.iter().map(|p| p.phi).collect());
        }
        let grid = grid.expect("at least one replicate");
        let mut out = Vec::with_capacity(grid.len());
        let mut column = Vec::with_capacity(resamples);
        for j in 0..grid.len() {
            column.clear();
            for rep in &replicate_phis {
                if j < rep.len() {
                    column.push(rep[j]);
                }
            }
            out.push((grid[j], spice_stats::std_dev(&column)));
        }
        out
    }

    /// Ensemble whose trajectories stop at different displacements, so
    /// later grid points drop off the end of some of them (and, with
    /// `reversed`, every third one pulls the other way).
    fn ragged_ensemble(n: usize, sigma: f64, seed: u64, reversed: bool) -> Vec<WorkTrajectory> {
        let g = spice_md::rng::GaussianStream::new(seed);
        (0..n)
            .map(|r| {
                let sign = if reversed && r % 3 == 2 { -1.0 } else { 1.0 };
                let last = 50 - (r as u64 * 13 + seed) % 35;
                let mut acc = 0.0;
                WorkTrajectory {
                    kappa_pn_per_a: 100.0,
                    v_a_per_ns: 12.5 * sign,
                    seed: r as u64,
                    samples: (0..=last)
                        .map(|i| {
                            let s = i as f64 * 0.2;
                            acc += sigma * g.sample(r as u64, i) * 0.2;
                            WorkSample {
                                t_ps: s,
                                guide_disp: sign * s,
                                com_disp: sign * s,
                                work: 1.5 * s + acc,
                                force: 1.5,
                            }
                        })
                        .collect(),
                }
            })
            .collect()
    }

    fn bits(v: &[(f64, f64)]) -> Vec<(u64, u64)> {
        v.iter().map(|&(s, e)| (s.to_bits(), e.to_bits())).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// The table bootstrap reproduces the clone-and-estimate oracle
        /// bit for bit: every estimator, the smallest and the Bench-size
        /// ensemble, ragged and mixed-direction trajectories.
        #[test]
        fn table_bootstrap_matches_clone_oracle_bitwise(
            seed in 0u64..1 << 40,
            sigma in 0.05f64..3.0,
            flags in 0u8..4,
        ) {
            let (ragged, reversed) = (flags & 1 == 1, flags & 2 == 2);
            for n in [2usize, 24] {
                let ens = if ragged {
                    ragged_ensemble(n, sigma, seed, reversed)
                } else {
                    ensemble(n, sigma, seed)
                };
                for est in [Estimator::Jarzynski, Estimator::Cumulant, Estimator::MeanWork] {
                    let fast = pmf_bootstrap_sigma(&ens, 10.0, 21, KT_300, est, 30, seed);
                    let oracle = clone_and_estimate_oracle(&ens, 10.0, 21, KT_300, est, 30, seed);
                    prop_assert_eq!(bits(&fast), bits(&oracle), "n={} {:?} flags={}", n, est, flags);
                }
            }
        }
    }

    fn ensemble(n: usize, sigma: f64, seed: u64) -> Vec<WorkTrajectory> {
        let g = spice_md::rng::GaussianStream::new(seed);
        (0..n)
            .map(|r| {
                let mut acc = 0.0;
                WorkTrajectory {
                    kappa_pn_per_a: 100.0,
                    v_a_per_ns: 12.5,
                    seed: r as u64,
                    samples: (0..=50)
                        .map(|i| {
                            let s = i as f64 * 0.2;
                            acc += sigma * g.sample(r as u64, i) * 0.2;
                            WorkSample {
                                t_ps: s,
                                guide_disp: s,
                                com_disp: s,
                                work: 1.5 * s + acc,
                                force: 1.5,
                            }
                        })
                        .collect(),
                }
            })
            .collect()
    }

    #[test]
    fn bootstrap_sigma_grows_with_noise() {
        let quiet = pmf_bootstrap_sigma(
            &ensemble(24, 0.2, 1),
            10.0,
            11,
            KT_300,
            Estimator::Jarzynski,
            100,
            5,
        );
        let noisy = pmf_bootstrap_sigma(
            &ensemble(24, 2.0, 1),
            10.0,
            11,
            KT_300,
            Estimator::Jarzynski,
            100,
            5,
        );
        let sq = pmf_sigma_scalar(&quiet);
        let sn = pmf_sigma_scalar(&noisy);
        assert!(sn > 2.0 * sq, "noisy σ {sn} should dwarf quiet σ {sq}");
    }

    #[test]
    fn bootstrap_sigma_shrinks_with_ensemble_size() {
        let small = pmf_sigma_scalar(&pmf_bootstrap_sigma(
            &ensemble(8, 1.0, 2),
            10.0,
            11,
            KT_300,
            Estimator::Jarzynski,
            150,
            5,
        ));
        let large = pmf_sigma_scalar(&pmf_bootstrap_sigma(
            &ensemble(128, 1.0, 2),
            10.0,
            11,
            KT_300,
            Estimator::Jarzynski,
            150,
            5,
        ));
        assert!(
            large < small,
            "σ must shrink with more realizations: {small} → {large}"
        );
    }

    #[test]
    fn bootstrap_deterministic_under_seed() {
        let e = ensemble(12, 1.0, 3);
        let a = pmf_bootstrap_sigma(&e, 10.0, 6, KT_300, Estimator::Jarzynski, 50, 9);
        let b = pmf_bootstrap_sigma(&e, 10.0, 6, KT_300, Estimator::Jarzynski, 50, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn cost_normalization_reproduces_sqrt8() {
        // Same measured σ and same n_used: v = 12.5 penalized √8 relative
        // to v = 100 (§IV-C).
        let s_slow = cost_normalized_sigma(1.0, 32, 12.5, 100.0, 32);
        let s_fast = cost_normalized_sigma(1.0, 32, 100.0, 100.0, 32);
        assert!(((s_slow / s_fast) - 8f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn normalization_is_identity_at_reference() {
        assert!((cost_normalized_sigma(0.7, 64, 100.0, 100.0, 64) - 0.7).abs() < 1e-15);
    }

    #[test]
    fn sigma_scalar_skips_pinned_origin() {
        let sigmas = vec![(0.0, 0.0), (1.0, 2.0), (2.0, 2.0)];
        assert!((pmf_sigma_scalar(&sigmas) - 2.0).abs() < 1e-12);
    }
}
