"""Exception hierarchy for the lattice Jost toolkit."""


class LatticeJostError(Exception):
    """Base class for all toolkit errors."""


class TrailingZeroError(LatticeJostError):
    """Last potential entry is zero; the support length is overstated."""


class ZeroArgumentError(LatticeJostError):
    """An operation was evaluated at z = 0 where 1/z is required."""


class CountMismatchError(LatticeJostError):
    """Root multiplicities do not add up to the polynomial degree."""


class UnitCircleViolationError(LatticeJostError):
    """A nonreal root landed inside the unit circle: numerical failure."""


class InconsistentRootsError(LatticeJostError):
    """Root set is not realizable by a real compactly-supported potential."""


class NoConvergenceError(LatticeJostError):
    """An iterative solver exhausted its budget without meeting tolerance."""


class FloatOverflowError(LatticeJostError):
    """A quantity overflowed or underflowed double precision."""
