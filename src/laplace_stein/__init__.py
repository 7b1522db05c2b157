"""Stein-equation toolkit for Laplace approximation of geometric random sums."""

from .laplace import LaplaceParams, cdf, char_fn, moment, pdf, quantile, sample
from .metrics import (DistanceEstimate, EmpiricalSample, bl_lower_bound,
                      dkw_band, kolmogorov_empirical, kolmogorov_from_bl,
                      wasserstein_empirical, within_four_se)
from .random_sums import (BoundReport, FixedIndex, GeometricIndex,
                          MDistribution, RandomSumSpec, Summands,
                          convergence_sweep, expected_sqrt_index_gap,
                          general_sum_bound, geometric_sum_bound,
                          iid_sum_bound, m_distribution, random_sum_sample,
                          recompute_bound)
from .stein import (BoundCertificate, SteinSolution, TestFunction,
                    certify_bounds, dense_bl_family, residual, solve,
                    standard_grid, stein_family, target_expectation)
from .transforms import (SourceDistribution, TransformSample, builtin_sources,
                         equilibrium_cf, equilibrium_moment, laplace_source,
                         rademacher, sgn_bias_sample, sym_equilibrium_sample,
                         uniform_symmetric, verify_zero_bias_relation,
                         zero_bias_sample)

__version__ = "0.1.0"
