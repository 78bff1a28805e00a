"""Squeezing and entanglement of condensate-coupled atomic beams.

Simulation and analysis toolkit for atom pairs produced by spin-exchange
collisions in a trapped condensate: closed-form and numerical two-mode
squeezing spectra, Bogoliubov input-output coefficients, time-dependent
beam dynamics, and post-selected pair entanglement.
"""

__version__ = "0.1.0"

from .analytic import SqueezingValue, r_closed_form, wavenumber_phase
from .dynamics import (
    AbsorberSpec,
    CouplingRamp,
    GridSpec,
    ModeLabel,
    ModeState,
    OutputWindow,
    PlaneWaveSource,
    evolve,
    extract_output_correlators,
    gaussian_packet,
    steady_state_beta_squared,
    symplectic_norm,
)
from .pairs import (
    PairAmplitude,
    QuadrantDecomposition,
    bell_metrics,
    internal_reduced_state,
    pair_amplitude,
    quadrant_decompose,
)
from .params import (
    DimensionlessParams,
    PhysicalParams,
    ValidityReport,
    to_dimensionless,
    transit_time,
    validity,
)
from .scattering import (
    BogoliubovCoefficients,
    r_from_coefficients,
    solve_scattering,
)
from .spectrum import (
    CompareResult,
    ThresholdResult,
    compare_methods,
    find_threshold,
    flux_estimate,
    spectrum_grid,
)
