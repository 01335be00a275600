"""Exception hierarchy shared by all modules."""


class LrbError(Exception):
    """Base class for all library errors; ``line`` locates a manifest line."""

    def __init__(self, reason="", line=None):
        super().__init__(reason if line is None
                         else "line %d: %s" % (line, reason))
        self.reason = reason
        self.line = line


class ShapeMismatch(LrbError):
    """Tensor or matrix dimensions are inconsistent."""


class ContainmentViolated(LrbError):
    """Coboundary space is not contained in the cocycle space."""


class OracleDisagreement(LrbError):
    """Two independent computation routes returned different results.

    This signals an internal bug, never a user error.
    """


class InvalidInput(LrbError):
    """A structure failed its validation precondition."""


class InvalidOperator(InvalidInput):
    """An operator failed the weighted Rota-Baxter identity."""


class InvalidDeformation(InvalidInput):
    """A deformation failed the deformation equations."""


class BaseMismatch(LrbError):
    """Deformation coefficient list does not start with the base operator."""


class NotInvertible(LrbError):
    """A linear map required to be invertible is singular."""


class NotAdjointContext(LrbError):
    """Operation requires a non-relative (adjoint) operator context."""


class WrongField(LrbError):
    """Operation requires a different scalar field (e.g. enumeration over GF(p))."""


class WrongWeight(LrbError):
    """Operation is only defined for a specific weight."""


class ResourceLimit(LrbError):
    """A configured enumeration or dimension cap would be exceeded."""


class ManifestError(LrbError):
    """Manifest text failed to parse or resolve."""
