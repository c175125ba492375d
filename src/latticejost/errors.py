"""Exception hierarchy for the lattice Jost toolkit."""


class LatticeJostError(Exception):
    """Base class for all toolkit errors."""


class TrailingZeroError(LatticeJostError):
    """Last potential entry is zero; the support length is overstated."""


class ZeroArgumentError(LatticeJostError):
    """An operation was evaluated at z = 0 where 1/z is required."""


class DegenerateDegreeError(LatticeJostError):
    """Leading Jost coefficient vanished; inconsistent with a valid potential."""


class CountMismatchError(LatticeJostError):
    """Root multiplicities do not add up to the polynomial degree."""


class UnitCircleViolationError(LatticeJostError):
    """A nonreal root landed inside the unit circle: numerical failure."""


class NotABoundStateError(LatticeJostError):
    """Norming constant requested at a zero that is not a bound state."""


class InconsistentRootsError(LatticeJostError):
    """Root set is not realizable by a real compactly-supported potential."""


class NoConvergenceError(LatticeJostError):
    """An iterative solver exhausted its budget without meeting tolerance."""


class SingularJacobianError(LatticeJostError):
    """Newton step hit a (numerically) singular Jacobian."""


class FloatOverflowError(LatticeJostError):
    """A quantity overflowed or underflowed double precision."""
