"""Exception types shared across the package.

Validation errors carry a witness (the offending triple or pair) so the CLI
can print something actionable on stderr.
"""
from __future__ import annotations


class SchemeError(Exception):
    """Base class for everything raised on bad scheme input."""


class NotAPartition(SchemeError):
    pass


class NotClosedUnderTranspose(SchemeError):
    pass


class NonConstantIntersection(SchemeError):
    def __init__(self, i, j, k, ref, bad):
        self.i, self.j, self.k = i, j, k
        self.ref = ref    # ((a, b), count) reference pair of class k
        self.bad = bad    # ((a, b), count) conflicting pair
        super().__init__(
            f"p[{i},{j}]^{k} not constant: pair {ref[0]} counts {ref[1]}, "
            f"pair {bad[0]} counts {bad[1]}"
        )


class NotCommutative(SchemeError):
    def __init__(self, i, j, k, pij, pji):
        self.i, self.j, self.k = i, j, k
        super().__init__(f"p[{i},{j}]^{k} = {pij} but p[{j},{i}]^{k} = {pji}")


class NotSymmetric(SchemeError):
    pass


class IdentityClassRequested(SchemeError):
    pass


class SizeCap(SchemeError):
    pass


class ParseError(SchemeError):
    pass


class NotAGroup(SchemeError):
    pass


class NotDistanceRegular(SchemeError):
    pass


class Disconnected(SchemeError):
    pass


class HypothesisViolation(SchemeError):
    """An audit's hypothesis fails; the audit is reported as skipped."""

    def __init__(self, reason):
        self.reason = reason
        super().__init__(reason)


class CapExceeded(SchemeError):
    pass


class RefinementFailed(SchemeError):
    pass


class DetectorDisagreement(SchemeError):
    pass


class HypothesisNotMet(SchemeError):
    """A conditional audit does not apply to this input (skipped, recorded)."""
