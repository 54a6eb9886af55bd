"""Exception types shared across the package."""


class ZeroflowError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveLambda(ZeroflowError):
    """An off-diagonal recurrence coefficient lambda_n <= 0 was produced.

    Positive-definiteness of the underlying moment functional requires
    lambda_n > 0 for every n >= 1; a zero or negative value means the input
    does not define an orthogonal polynomial sequence of the supported class.
    """

    def __init__(self, index, value=None):
        self.index = int(index)
        self.value = value
        msg = f"lambda_{self.index} must be > 0"
        if value is not None:
            msg += f" (got {value!r})"
        super().__init__(msg)


class NonlinearCoefficient(ZeroflowError):
    """A diagonal coefficient a_n(x) is not affine in the energy variable."""


class KappaZero(ZeroflowError):
    """The coupling kappa must be strictly positive for this operation."""


class ParseError(ZeroflowError):
    """A model or spectrum file could not be parsed or failed validation."""


class MissingRoots(ZeroflowError):
    """Classification reached a branch that needs the characteristic roots
    t1, t2, but they were not supplied."""


class PoleHit(ZeroflowError):
    """A continued-fraction evaluation hit a zero denominator exactly."""


class Divergent(ZeroflowError):
    """Partial sums grew without bound: the queried point is not spectral."""


class NotMinimal(ZeroflowError):
    """The reconstructed solution is not a physical (minimal, Bargmann
    normalizable, two-term compatible) eigenvector at the queried energy."""


class NonMonotoneFlow(ZeroflowError):
    """A zero flow increased beyond bisection tolerance.

    Strict decrease of x_{n,l} in n is a theorem for valid recurrences, so
    this always signals a numerical fault, never physics.
    """


class ZeroCoagulation(ZeroflowError):
    """Two adjacent zeros of one polynomial are closer than the bisection
    resolution can certify.  Zeros are provably simple; this means the
    working precision is exhausted at the requested degree."""


class PrecisionExhausted(ZeroflowError):
    """The quantity asked for is not resolvable in double precision at this
    input: a finite-degree weight that underflows or varies across one node
    ulp, a spectral mass below the double range, or a zeros-below count that
    does not freeze past the model's dominance index.  A larger budget does
    not help."""


class TooFewLevels(ZeroflowError):
    """Not enough spectrum levels supplied for the requested lattice fit."""


class DegenerateFit(ZeroflowError):
    """The lattice-fit design matrix is numerically rank-deficient."""
