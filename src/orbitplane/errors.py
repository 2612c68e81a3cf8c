"""Exception types shared across the package."""


class OrbitPlaneError(Exception):
    """Base class for all orbitplane errors."""


class ExprSyntaxError(OrbitPlaneError):
    """Malformed expression source.

    Carries the character position of the offending token and a short
    description of what was expected there.
    """

    def __init__(self, message: str, position: int, expected: str = ""):
        self.position = position
        self.expected = expected
        detail = f"{message} at position {position}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)


class NonEntireError(OrbitPlaneError):
    """Expression is syntactically fine but not provably entire.

    Raised for variable denominators, zero denominators, and exponents
    that are not literal non-negative integers.
    """

    def __init__(self, message: str, position: int = -1):
        self.position = position
        if position >= 0:
            message = f"{message} at position {position}"
        super().__init__(message)


class InvalidRadius(OrbitPlaneError):
    """Radius argument is non-positive or non-finite, or a spider's-web
    probe radius is at or below half the pixel diagonal."""


class DegenerateDomain(OrbitPlaneError):
    """Domain violates its construction invariants (unordered bounds,
    non-positive radius, disconnected or non-simply-connected union)."""


class CurveTooClose(OrbitPlaneError):
    """A winding-number probe point lies within the clearance distance
    of a curve sample.

    The winding numbers of the probes before it, in probe order, are
    attached as ``partial``.
    """

    def __init__(self, message: str, partial=None):
        self.partial = partial
        super().__init__(message)


class AliasingUnresolved(OrbitPlaneError):
    """Local refinement could not bring every segment under an angle of
    at most pi/2 from the probe within the point budget."""


class RadiusOutsideWindow(OrbitPlaneError):
    """A probe radius does not fit inside the raster window."""
