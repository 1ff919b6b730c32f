"""Exception hierarchy for the toolkit."""


class CqnlsError(Exception):
    """Base class for all toolkit errors."""


class FrequencyOutOfWindow(CqnlsError):
    """Frequency outside (0, 3/16), where no ground state exists."""


class BracketFailure(CqnlsError):
    """Shooting bracket does not separate the two trajectory classes."""


class DomainTooSmall(CqnlsError):
    """Solution has not decayed below the tail threshold at max_radius."""


class NonFiniteIntegrand(CqnlsError):
    """Profile contains NaN or infinite samples."""


class KindMismatch(CqnlsError):
    """Operation applied to a profile of the wrong kind."""


class AlphaOutOfRange(CqnlsError):
    """Requested quotient exponent outside the scanned beta range."""


class EmptyGrid(CqnlsError):
    """Frequency scan called with no grid nodes."""


class InsufficientPoints(CqnlsError):
    """Curve has too few points for finite differencing."""


class TargetNotBracketed(CqnlsError):
    """Curve does not bracket the requested beta target."""


class ToleranceNotMet(CqnlsError):
    """Root search ended without reaching the requested tolerance."""


class InsufficientCoverage(CqnlsError):
    """Curve lacks the endpoint nodes needed for asymptotic checks."""


class MassBeyondScan(CqnlsError):
    """Prescribed mass exceeds the largest scanned branch mass."""


class FlowDiverged(CqnlsError):
    """Gradient flow energy decreases without bound (grid too small)."""


class ConservationBreach(CqnlsError):
    """Time evolution drifted beyond the configured conservation tolerance."""


class InnerSolveDiverged(CqnlsError):
    """Implicit time step fixed-point iteration failed to converge."""


class EigSolverStalled(CqnlsError):
    """Eigenvalue computation did not converge."""
