"""Spectral data of higher-order boundary value problems whose
differential expressions carry distributional coefficients.

The pipeline: piecewise-polynomial coefficients -> associated matrix
regularization -> fundamental systems (direct integration for moderate
|lambda|, exponentially factored integral equations for large |rho|) ->
characteristic determinants, eigenvalues and weight numbers -> the
closed-form asymptotic model and the paired-problem difference fits.
"""

from .errors import (  # noqa: F401
    QuasispecError, ValidationError, ConsistencyError, IntegrationError,
    NonContractionError, ContourError, RootSearchError, ConfigurationError,
)
from .piecewise import PiecewisePoly  # noqa: F401
from .regularization import (  # noqa: F401
    chi_matrix, ExpressionSpec, AssociatedMatrix, build_associated_matrix,
    diagonal_split, ConjugatedSystem, conjugate_system, s_coefficient,
    diag_correction,
)
from .sectors import SectorFrame, sector_frame  # noqa: F401
from .solutions import (  # noqa: F401
    FundamentalMatrix, closed_form_zero_coeff, integrate_fundamental,
)
from .birkhoff import (  # noqa: F401
    BirkhoffSolution, birkhoff_fss, upsilon, upsilon_d,
)
from .spectrum import (  # noqa: F401
    BoundaryForm, BoundarySpec, ProblemSpec, SpectralDatum, SpectrumResult,
    boundary_form, delta_derivative, count_zeros, disk_contour, rect_contour,
    locate_eigenvalues, weight_numbers,
)
from .asymptotics import (  # noqa: F401
    AsymptoticModel, asymptotic_model, extract_remainders, chi1_fit,
    compute_d, PairComparison, pair_difference, weight_asymptotics,
    weight_pair_difference, check_boundary_match,
)
