"""Leading-digit (significand) laws of Haar-random matrix components.

Analytic Benford-type laws for components of random matrices drawn from
invariant (Haar) measures on classical matrix groups and for coordinates of
uniform points on spheres, together with seeded Monte Carlo samplers and
goodness-of-fit machinery to verify each law empirically.
"""

from .errors import ConsistencyError, ConvergenceError, DomainError
from .laws import (
    Benford,
    DigitLaw,
    FlatWindowSignificand,
    PowerLaw,
    ProductLaw,
    UniformSignificand,
    windowed_power_cdf,
)
from .lie import (
    ConeProblem,
    MCVolume,
    adjoint_det_on_l,
    adjoint_det_on_u,
    adjoint_product,
    hyperbolic_cone_area,
    hyperbolic_cone_area_mc,
    sl2_cone_induced_cdf,
    sl2_cone_membership,
    sl2_cone_volume,
    sl2_cone_volume_mc,
)
from .rng import RngStream
from .samplers import (
    GlnSample,
    SlnSample,
    WindowSpec,
    apply_even_permutations,
    nilpotent_exp,
    permutation_parity,
    random_even_permutation,
    sample_diagonal_entry,
    sample_diagonal_window,
    sample_gln_det,
    sample_gln_pos_window,
    sample_log_uniform,
    sample_orthogonal_haar,
    sample_power_density,
    sample_sln_dfactor_entry,
    sample_sln_lud_window,
    sample_sphere,
    sample_sphere_coords,
    sample_triangular_entry,
    sample_unitary_haar,
    sample_upper_triangular_window,
    triangular_component_law,
)
from .significand import (
    SignificandDecomposition,
    first_digits,
    significand,
    significand_parts,
    significand_values,
)
from .specfun import (
    betainc,
    erf,
    erfc,
    gamma_half_ratio,
    integrate,
    integrate_arcsine_weight,
    log_gamma,
    normal_cdf,
)
from .sphere import (
    SphereErf,
    SphereExact,
    SphereLimit,
    sphere_band_prob,
    sphere_joint_band_prob,
    sphere_joint_sig_approx,
    sphere_limit_cdf,
    sphere_sig_cdf_erf,
    sphere_sig_cdf_exact,
)
from .stats import (
    EmpiricalDigitDistribution,
    GOFReport,
    build_empirical,
    chi_square_first_digit,
    chi_square_independence,
    digit_contingency,
    digit_tv,
    ks_p_approx,
    ks_statistic,
    ks_test,
    tv_distance,
)

__version__ = "0.1.0"
