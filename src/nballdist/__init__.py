"""Pair-distance probability densities for random points in n-dimensional
balls: closed forms for uniform, radial, Gaussian, multi-shell, and arbitrary
densities, plus a seeded Monte Carlo engine that validates every analytic
result."""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    BallGeometry,
    CartesianMonomial,
    DensityModel,
    DivergentMomentError,
    DomainError,
    EfficiencyError,
    Gaussian,
    GeneralCartesian,
    GeoProbError,
    InsufficientDataError,
    InvalidDensityError,
    InvalidRepresentationError,
    MultiShell,
    ParabolicRadial,
    PrecisionError,
    RadialPolynomial,
    Uniform,
    UnsupportedError,
    beta,
    hyp2f1_halfint,
    inc_beta,
    inc_gamma_upper,
    log_gamma,
    reg_inc_beta,
)
from .uniform import (  # noqa: F401
    Representation,
    cumulative_c,
    endpoint_properties,
    generating_series,
    overlap_kernels,
    pdf_uniform,
    pdf_uniform_repr,
    recursion_residuals,
)
from .symmetric import (  # noqa: F401
    GaussianBall,
    PiecewisePolynomial,
    equal_thickness_shells,
    gaussian_mode,
    multishell_polynomial,
    pdf_gaussian,
    pdf_multishell,
    pdf_radial_numeric,
    pdf_radial_parabolic,
    pdf_radial_r2,
)
from .arbitrary import (  # noqa: F401
    AngleSet,
    MasterEstimate,
    pdf_example_2d,
    pdf_example_3d,
    pdf_example_4d,
    pdf_master,
    rotation_matrix,
    spherical_to_cartesian,
)
from .montecarlo import (  # noqa: F401
    ComparisonReport,
    DistanceHistogram,
    SamplerConfig,
    compare,
    empirical_pair_pdf,
    merge_histograms,
    sample_density,
    sample_uniform_ball,
)
from .applications import (  # noqa: F401
    SelfEnergySpec,
    coulomb_gaussian_pair_energy,
    coulomb_gaussian_self_energy,
    coulomb_pair_energy,
    coulomb_self_energy,
    dot_constant,
    moment_gaussian,
    moment_hardcore,
    moment_uniform,
    neutrino_self_energy_gaussian,
    neutrino_self_energy_uniform,
)
