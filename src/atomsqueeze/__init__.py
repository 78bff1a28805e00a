"""Squeezing and entanglement of condensate-coupled atomic beams.

Simulation and analysis toolkit for atom pairs produced by spin-exchange
collisions in a trapped condensate: closed-form and numerical two-mode
squeezing spectra, Bogoliubov input-output coefficients, time-dependent
beam dynamics, and post-selected pair entanglement.

Each public name is imported from its submodule on first access (PEP 562),
so ``import atomsqueeze`` loads no submodule, and a CLI mode compiles only
the modules it runs.
"""

import importlib

__version__ = "0.1.0"

#: Each public name with the submodule that defines it.
_MODULE_OF = {
    **dict.fromkeys(("SqueezingValue", "r_closed_form", "wavenumber_phase"),
                    "analytic"),
    **dict.fromkeys(("CouplingRamp", "GridSpec", "ModeLabel", "ModeState",
                     "OutputWindow", "evolve", "extract_output_correlators",
                     "gaussian_packet", "steady_state_beta_squared",
                     "symplectic_norm"), "dynamics"),
    **dict.fromkeys(("PairAmplitude", "QuadrantDecomposition", "bell_metrics",
                     "internal_reduced_state", "pair_amplitude",
                     "quadrant_decompose"), "pairs"),
    **dict.fromkeys(("DimensionlessParams", "PhysicalParams", "ValidityReport",
                     "to_dimensionless", "transit_time", "validity"), "params"),
    **dict.fromkeys(("BogoliubovCoefficients", "r_from_coefficients",
                     "solve_scattering"), "scattering"),
    **dict.fromkeys(("CompareResult", "ThresholdResult", "compare_methods",
                     "find_threshold", "flux_estimate", "spectrum_grid"),
                    "spectrum"),
}

#: The submodules that ``atomsqueeze.<module>`` imports on first access.
_SUBMODULES = ("analytic", "dynamics", "errors", "pairs", "params",
               "scattering", "spectrum")

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__getattr__(_MODULE_OF[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
