"""weakkam: a numerical weak-KAM toolkit on the torus and sampled boxes.

Critical values, Mane semidistances, Lax-Oleinik semigroups on exact dyadic
ladders, Aubry masks from semigroup fixed points, strict critical
subsolutions, and two-sided (gradient-Lipschitz) regularization, for
periodic and sampled stationary-random Hamiltonians.

Everything is certified rather than trusted: levels carry brackets or
negative-cycle witnesses, subsolutions carry worst-edge violations, masks
carry residual fields at three thresholds, builders carry sup-norm budgets.
"""

__version__ = "0.1.0"

from .errors import (CertificateFailure, ConfigError, EmptyAubryMaskError,
                     LadderError, NotASubsolutionError, NotTonelliError,
                     SubcriticalLevelError, WeakKamError)
from .grid import BoxSpec, GridFn, GridSpec, save_gridfn_csv
from .env import (EnvRealization, EnvSpec, ky_fan_distance,
                  ky_fan_from_distances, metric_d, sample_realization)
from .hamiltonian import (HamiltonianModel, eikonal_model, kappa,
                          lipschitz_radius, mechanical_model, nonstrict_model,
                          reversed_model, tilted_mechanical_model)
from .metric import (build_cost_graph, check_subsolution, critical_value_free,
                     critical_value_stationary, semidistance, support_sigma)
from .semigroup import (ActionKernel, build_kernel, check_corrector,
                        check_monotone_semigroup, discrete_critical_value,
                        lax_minus, lax_plus, refold_kernel, semigroup_orbit)
from .aubry import (AubryMask, SubsolutionLibrary, build_library, build_w,
                    classical_aubry, detect_aubry, lax_extension, verify_member)
from .subsol import (build_strict_convex, build_strict_strictly_convex,
                     check_strict, density_mix, sup_convolution_time)
from .tonelli import (FlowState, bernard_regularize, contraction_check,
                      estimate_semiconcavity, flow_integrate,
                      kernel_semiconcavity, regular_window)

__all__ = [name for name in dir() if not name.startswith("_")]
