"""Mahler measure of the dense bivariate family sum_{i+j<=d} x^i y^j.

The package computes m(P_d) two independent ways: a closed finite sum of
Clausen (Bloch-Wigner) dilogarithm values at roots of unity, and a
quadrature oracle built on Jensen's formula, then reproduces the convergence
of m(P_d) to 9 zeta(3) / (2 pi^2).
"""

from .limits import (LimitRow, PartitionReport, error_E, integral_reference,
                     limit_report, limit_value, partition_report,
                     riemann_sum, triangular_partition)
from .mahler_closed import (METHOD_AGGREGATED, METHOD_ORACLE,
                            METHOD_POINTWISE, METHOD_VOLSUM, MahlerEstimate,
                            grid_weight_sum, m_closed, m_closed_aggregated,
                            m_closed_pointwise, m_closed_volsum)
from .mahler_oracle import (ContinuationError, CurveArc, OracleError,
                            OracleResult, QuadratureConfig, default_config,
                            eta_path_integral, m_oracle, primitive_check,
                            vol_integral_quadrature)
from .polynomials import (PdSpec, RootFindingError, SingularPointError,
                          aberth_roots_batch, eval_pd, eval_pd_array,
                          eval_pd_rational, eval_partials, gauss_map, roots,
                          y_slice)
from .specfun import CL2_ERROR_BOUND, bloch_wigner, cl2, cl2_array, zeta3
from .toric import (RegularityError, RegularityReport, check_regularity,
                    diagonal_sign, enumerate_toric, toric_gamma, toric_indices)
from .volume import (Hessian2, in_triangle, vol, vol_array, vol_gradient,
                     vol_hessian, volume_v)

__version__ = "0.1.0"
