"""Exception hierarchy for pblayers.

Configuration problems raise ConfigError subclasses; numerical failures
raise SolverError subclasses.  The CLI maps ConfigError to exit code 2 and
SolverError to exit code 3.
"""


class PBLayersError(Exception):
    """Base class for all package errors."""


class ConfigError(PBLayersError, ValueError):
    """Invalid inputs or configuration."""


class SolverError(PBLayersError, RuntimeError):
    """A numerical procedure failed to converge or lost an invariant."""


# --- nonlinearity -----------------------------------------------------------

class AllSameSignValences(ConfigError):
    """All ion valences share one sign; the charge density has no zero."""


class NeutralityViolated(ConfigError):
    """A mass-based species set does not satisfy sum(m_i * z_i) = 0."""


class MismatchedReference(ConfigError):
    """Combined nonlinearities carry different reference potentials."""


class UnsupportedProvenance(ConfigError):
    """Operation not defined for this nonlinearity provenance."""


class NoSignChange(SolverError):
    """Bracket expansion found no sign change for the reference potential."""


class NonDecreasingDetected(SolverError):
    """f' >= 0 was sampled where a strictly decreasing f was required."""


# --- profiles ---------------------------------------------------------------

class RootBracketFailure(SolverError):
    """The boundary-value compatibility equation could not be bracketed."""


class DegenerateTimeMap(SolverError):
    """The time map of u is not finite and strictly increasing (|u'| vanished)."""


class DenominatorNearZero(SolverError):
    """u'(0) + gamma*f(u(0)) vanished; impossible for valid inputs."""


class NegativeTime(ConfigError):
    """Profiles are defined on t >= 0 only."""


class GridTooCoarse(ConfigError):
    """Too few nodes for the requested finite-difference operation."""


# --- geometry ---------------------------------------------------------------

class BadRadii(ConfigError):
    """Domain radii must satisfy 0 < a < R."""


class InconsistentParams(ConfigError):
    """Region parameters do not order the bands (requires T*sqrt(eps) < eps**beta)."""


# --- ccpb -------------------------------------------------------------------

class AllBoundaryPotentialsEqual(ConfigError):
    """The conserved-charge constants need not-all-equal boundary potentials."""


class BracketFailure(SolverError):
    """The bulk-potential scan found no sign change."""


class DegenerateDenominator(SolverError):
    """The denominator of the drift-constant quotient vanished."""


# --- asymptotics ------------------------------------------------------------

class ModelProfileMismatch(ConfigError):
    """Expansion query model does not match the supplied profiles."""


class RegionEmpty(ConfigError):
    """No oracle grid points fall inside the requested region."""


# --- artifacts --------------------------------------------------------------

class NonFiniteOutput(SolverError):
    """A CSV artifact would carry NaN or inf; nothing is written."""


# --- radial oracle ----------------------------------------------------------

class NewtonDivergence(SolverError):
    """Damped Newton failed to reduce the residual."""

    def __init__(self, message, damping_history=None):
        super().__init__(message)
        self.damping_history = list(damping_history or [])


class FixedPointStall(SolverError):
    """The nonlocal fixed-point iteration stopped contracting."""
