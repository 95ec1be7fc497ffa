"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


# ---------- ring construction and element parsing ----------

class NonPrimeModulus(ToolkitError):
    pass


class GroebnerBudgetExceeded(ToolkitError):
    pass


class ZeroRing(ToolkitError):
    """The ideal is the whole polynomial ring, so the quotient is zero."""


class EmptyVariableList(ToolkitError):
    pass


class UnknownVariable(ToolkitError):
    pass


class ElementSyntaxError(ToolkitError):
    """Bad element text; carries the offending position when known."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class FormatError(ToolkitError):
    """Malformed serialized object (file-level, not element-level)."""


# ---------- matrices and linear algebra ----------

class DimensionMismatch(ToolkitError):
    pass


class MixedRings(ToolkitError):
    pass


class CapabilityMissing(ToolkitError):
    pass


# ---------- complexes ----------

class NotAComplex(ToolkitError):
    """d(n) . d(n+1) != 0; `degree` is the first offending n."""

    def __init__(self, degree, message=None):
        super().__init__(message or f"not a complex: d({degree}) . d({degree + 1}) != 0")
        self.degree = degree


class NotAHomomorphism(ToolkitError):
    pass


class NotLocal(ToolkitError):
    pass


class NotMinimal(ToolkitError):
    pass


class BudgetExceeded(ToolkitError):
    pass


# ---------- descent systems ----------

class ShapeMismatch(ToolkitError):
    pass


class RankMismatch(ToolkitError):
    pass


class UnverifiedDGModule(ToolkitError):
    pass


class IncompleteAssignment(ToolkitError):
    pass


class VerificationFailed(ToolkitError):
    """Independent re-checks disagree with equation verification."""


class WindowViolated(ToolkitError):
    """Homology found inside a window that the input data claims is clean."""

    def __init__(self, degree, message=None):
        super().__init__(message or f"nonzero homology in forbidden window at degree {degree}")
        self.degree = degree


# ---------- duality checks ----------

class NotRegular(ToolkitError):
    pass
