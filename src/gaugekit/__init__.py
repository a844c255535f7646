"""Gauge classification toolkit for long-range magnetic potentials.

Decomposes transversal vector potentials into vortex flux plus gradient
parts, recovers potentials from line-integral data on an exterior region,
assembles and gauge-transforms the associated scattering kernels, and
decides gauge equivalence directly from kernel pairs.
"""

from .angular import AngularFunction, SphereFunction, SphereGrid, sphere_grid
from .errors import (
    BranchAmbiguous,
    CircleInsideObstacle,
    DimensionMismatch,
    EnvelopeViolation,
    GaugekitError,
    GridMismatch,
    InsufficientCoverage,
    LineHitsObstacle,
    NonConvergent,
    NotCurlFree,
    NotTransversal,
    PlaneHitsObstacle,
    RegionTouchesObstacle,
    RemainderBoundViolated,
    ResidualFlux,
    SingularPartMissing,
    TailNotBounded,
)
from .fields import (
    DecayEnvelope,
    FluxDecomposition,
    GaugeElement,
    PotentialConfig,
    ScalarPotential,
    ShortRangeField,
    TransversalField,
    apply_gauge_to_potential,
    curl,
    decompose_transversal,
    extract_leading_order,
    flux,
    gradient_of_direction_function,
    sample_on_spheres,
)
from .tomography import (
    GaugeScalar,
    Line,
    Plane,
    PolarGridField,
    Sinogram,
    XRayData,
    antipodal_defect,
    find_gauge_scalar,
    forward_sinogram,
    line_integral_scalar,
    line_integral_vector,
    line_integrals_scalar,
    parallel_geometry,
    plane_restrict,
    radon_invert_scalar,
    recover_field_2d,
    resolve_winding,
)
from .scattering import (
    ChannelSpectrum,
    ScatteringKernel,
    SolverResult,
    SphereScatteringKernel,
    ab_kernel_channels,
    apply_gauge_to_kernel,
    assemble_kernel,
    gauge_equivalence_solver,
    kernel_distance,
    near_diagonal_growth,
)
from .pipeline import (
    Report,
    Scenario,
    emit_report,
    run_classify,
    run_kernel_lab,
    run_reconstruct,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
