"""symkit: a numerical laboratory for symmetric decreasing rearrangement.

Grid fields and sets, symmetrization operators, the integral functionals the
classical rearrangement inequalities compare, sharp-constant evaluators, and
tolerance-controlled experiment suites that verify every in-scope inequality.
"""

from .field import (
    FieldFormatError,
    Grid,
    GridSet,
    ScalarField,
    load,
    measure,
    save,
)
from .functionals import (
    BLLSpec,
    JExpansionF,
    MCEstimate,
    PowerProfile,
    UnboundedRegionError,
    bll_integral,
    convolve,
    expansion_gaps,
    fractional_perimeter,
    fractional_seminorm,
    gradient_pnorm,
    hanner_sum,
    heat_pairing,
    lp_norm,
    minkowski_content,
    pairing,
    riesz_energy,
    riesz_triple,
    supermodular_pairing,
)
from .kernels import (
    BallIndicator,
    FracKernel,
    HeatGaussian,
    PowerLaw,
    displacement_grid,
    sample_kernel,
)
from .rearrange import (
    bathtub_fill,
    cell_order,
    increasing_rearrangement,
    rearrange,
    set_symmetrize,
)
from .sharp import (
    hls_constant,
    hls_exponent,
    hls_optimizer,
    hls_quotient,
    unit_ball_volume,
    young_constant,
    young_gaussian_triple,
    young_quotient,
)
from .spectral import dirichlet_eigenvalues, dirichlet_spectrum, heat_perimeter_estimate
from .stability import (
    DeficitReport,
    ResidualDistribution,
    asymmetry,
    asymmetry_bruteforce,
    ball_kernel_deficit,
    continuity_probe,
    fractional_isoperimetric_deficit,
    layered_riesz_reconstruction,
    residual_distribution,
    riesz_deficit,
)

__version__ = "0.1.0"
