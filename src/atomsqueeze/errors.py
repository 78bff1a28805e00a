"""Exception and warning types shared across the solvers."""


class AtomsqueezeError(Exception):
    """Base class for all package errors."""


class ParameterDomainError(AtomsqueezeError, ValueError):
    """A physical or dimensionless parameter is outside its valid domain;
    ``name`` is that parameter, when the check names one."""

    def __init__(self, message: str, name=None):
        super().__init__(message)
        self.name = name


class ClosedChannelError(AtomsqueezeError):
    """The lower interior branch is evanescent (mu/g0 < sqrt(1 + d^2));
    the closed-form spectrum does not apply there."""


class ClosedExteriorChannelError(AtomsqueezeError):
    """An exterior channel carries no propagating wave (mu - |delta| <= 0)."""


class InconsistentChannelsError(AtomsqueezeError):
    """The two channel ratios |beta|/|alpha| disagree beyond tolerance."""


class ResolutionError(AtomsqueezeError):
    """Grid spacing or step size cannot resolve the requested dynamics."""


class InstabilityDetectedError(AtomsqueezeError):
    """Mode norm grew faster than the analytic bound during evolution."""


class WindowTooShortError(AtomsqueezeError):
    """The analysis window holds fewer than the 8 grid points a windowed
    projection needs."""


class PerturbationInvalidError(AtomsqueezeError):
    """First-order pair production is invalid: created norm too large."""


class EmptyPostSelectionError(AtomsqueezeError):
    """Post-selection has zero weight (no one-atom-each-side component)."""


class AboveThresholdError(AtomsqueezeError):
    """A spectrum contains above-threshold points where a below-threshold
    quantity was requested."""


class ConfigError(AtomsqueezeError):
    """Run configuration is missing, malformed, or inconsistent."""


class SolverError(AtomsqueezeError):
    """A numerical solve failed (singular system, no bracketing, ...)."""


class IllConditionedWarning(UserWarning):
    """The boundary-matching system is close to singular; coefficients may
    carry amplified round-off. Emitted near threshold divergences."""
