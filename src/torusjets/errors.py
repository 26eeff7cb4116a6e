"""Exception types shared across the package.

Plain ValueError is used for malformed arguments (bad shapes, out-of-range
parameters, mixed grids).  The classes below separate failures that the CLI
maps to dedicated exit codes.
"""


class GeodesicDomainError(Exception):
    """A mathematical precondition on the boundary data fails."""


class NumericError(Exception):
    """A computation left the floating-point range or could not finish.

    An iterative solver did not converge or hit a degeneracy, a propagated
    order's K1 or solution is not finite, or the Fischer weights (2n)! of an
    order past 170 overflow a float.
    """


class ConsistencyError(RuntimeError):
    """An internal identity that must hold numerically was violated."""
