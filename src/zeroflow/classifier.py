"""Membership test for the supported recurrence class.

The raw coefficients must grow like a_n ~ a n^alpha, b_n ~ b n^beta.  The
Perron-Kreuser alternatives guarantee a minimal solution (hence a possible
discrete spectrum) in exactly four regimes:

    (a) alpha > -1/2 and beta < alpha - 1/2
    (b) alpha > -1/2 and beta = alpha - 1/2 and |b| < |a|
    (c) alpha = -1/2 and |a| >= 1 and beta < -1
    (d) alpha = -1/2 and beta = -1 and |t1| >= 1 > |t2|

with t1, t2 the roots of t^2 + a t + b = 0 ordered |t2| <= |t1|.  Dominant
solutions fail to normalize when

    (a'') 2 alpha > beta and (alpha > -1/2, or alpha = -1/2 and |a| >= 1)
    (b'') 2 alpha = beta and (alpha > -1/2, or alpha = -1/2 and |t1| >= 1).

Exponents are exact rationals, so every equality test here is combinatorial.
The verdict is the paper's statement about class R, and nothing else reads
it: the conditions are sufficient for a discrete spectrum, not necessary,
and the solver never consults them, since the frozen Sturm count certifies
each level (or refuses a model it cannot certify) whatever the verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import MissingRoots
from .recurrence import RecurrenceAsymptotics

__all__ = ["ClassReport", "classify", "characteristic_roots"]

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class ClassReport:
    in_class: bool
    case_label: str  # 'a', 'b', 'c', 'd' or 'none'
    dominant_excluded: bool
    detail: str

    def __post_init__(self):
        if self.case_label not in ("a", "b", "c", "d", "none"):
            raise ValueError(f"bad case label {self.case_label!r}")
        if (self.case_label != "none") != self.in_class:
            raise ValueError("case_label and in_class are inconsistent")


def characteristic_roots(a: float, b: float) -> tuple[float, float]:
    """Real roots of t**2 + a*t + b = 0 ordered |t2| <= |t1|.

    Raises ValueError for a complex pair; those have |t1| = |t2| = sqrt(b),
    which can never satisfy |t1| >= 1 > |t2|, so supply magnitudes by hand if
    the dominant-exclusion test is still wanted there.
    """
    disc = a * a - 4.0 * b
    if disc < 0.0:
        raise ValueError(
            f"t^2 + {a!r} t + {b!r} has a complex root pair "
            f"(common magnitude {math.sqrt(b):.17g})"
        )
    s = math.sqrt(disc)
    r1 = (-a - s) / 2.0
    r2 = (-a + s) / 2.0
    if abs(r1) < abs(r2):
        r1, r2 = r2, r1
    return r1, r2


def classify(asym: RecurrenceAsymptotics) -> ClassReport:
    """Decide which alternative (a)-(d) the asymptotics satisfy, if any, and
    whether dominant solutions are excluded from the state space."""
    alpha, beta = asym.alpha, asym.beta
    a, b = asym.a, asym.b
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("prefactors a, b must be finite")

    needs_roots = alpha == -_HALF and beta == Fraction(-1)
    if needs_roots and asym.t1 is None:
        raise MissingRoots(
            "alpha = -1/2, beta = -1 requires the characteristic roots t1, t2 "
            "(see characteristic_roots)"
        )

    label = "none"
    if alpha > -_HALF:
        if beta < alpha - _HALF:
            label = "a"
        elif beta == alpha - _HALF:
            _require_prefactors(a, b, "case (b) compares |b| with |a|")
            if abs(b) < abs(a):
                label = "b"
    elif alpha == -_HALF:
        if beta < Fraction(-1):
            _require_prefactors(a, None, "case (c) needs |a|")
            if abs(a) >= 1.0:
                label = "c"
        elif beta == Fraction(-1):
            if abs(asym.t1) >= 1.0 and abs(asym.t2) < 1.0:
                label = "d"

    two_alpha = 2 * alpha
    if two_alpha > beta:
        dominant_excluded = alpha > -_HALF or (alpha == -_HALF and abs(a) >= 1.0)
    elif two_alpha == beta:
        if alpha > -_HALF:
            dominant_excluded = True
        elif alpha == -_HALF:
            # same (t1, t2) branch as case (d); presence checked above
            dominant_excluded = abs(asym.t1) >= 1.0
        else:
            dominant_excluded = False
    else:
        dominant_excluded = False

    detail = (
        f"alpha={alpha}, beta={beta}, |a|={abs(a):g}, |b|={abs(b):g}"
        + (f", |t1|={abs(asym.t1):g}, |t2|={abs(asym.t2):g}" if asym.t1 is not None else "")
        + f" -> case {label}, dominant_excluded={dominant_excluded}"
    )
    return ClassReport(
        in_class=label != "none",
        case_label=label,
        dominant_excluded=dominant_excluded,
        detail=detail,
    )


def _require_prefactors(a: float, b, why: str) -> None:
    if a == 0.0 or (b is not None and b == 0.0):
        raise ValueError(f"nonzero prefactors required: {why}")
