"""Exception hierarchy shared across the workbench."""


class WorkbenchError(Exception):
    """Base class for every error raised by filterbench."""


# --- finite topology ---------------------------------------------------------

class IndexOutOfRange(WorkbenchError):
    pass


class MissingEmptyOrFull(WorkbenchError):
    pass


class NotClosedUnderUnion(WorkbenchError):
    def __init__(self, a, b):
        self.a, self.b = a, b
        super().__init__(f"union of {sorted(a)} and {sorted(b)} is not in the family")


class NotClosedUnderIntersection(WorkbenchError):
    def __init__(self, a, b):
        self.a, self.b = a, b
        super().__init__(f"intersection of {sorted(a)} and {sorted(b)} is not in the family")


class SizeLimitExceeded(WorkbenchError):
    pass


# --- filter algebra ----------------------------------------------------------

class FilterAxiomViolation(WorkbenchError):
    """One of the three filter axioms failed; carries the offending opens."""

    def __init__(self, axiom, witness, message):
        self.axiom = axiom          # "A", "B", "C" or "proper"
        self.witness = witness      # None, mask, or (mask, mask)
        super().__init__(message)


class TopologyMismatch(WorkbenchError):
    pass


class NotContinuous(WorkbenchError):
    def __init__(self, open_set):
        self.open_set = open_set
        super().__init__(f"preimage of open {sorted(open_set)} is not open")


# --- metric engine -----------------------------------------------------------

class NonUnitDirection(WorkbenchError):
    pass


class DegenerateTerm(WorkbenchError):
    pass


class CurveNotBiLipschitz(WorkbenchError):
    pass


class InvalidWitness(WorkbenchError):
    pass


class DegenerateGenerator(WorkbenchError):
    pass


class ConstraintViolation(WorkbenchError):
    pass


class NotLipschitz(WorkbenchError):
    pass


class TrivialDevelopment(WorkbenchError):
    pass


class SingularJacobian(WorkbenchError):
    pass


class NoDirectionLimit(WorkbenchError):
    pass


# --- flows -------------------------------------------------------------------

class DomainViolation(WorkbenchError):
    pass


class RecipeUnsatisfiable(WorkbenchError):
    pass


class InverseResidualTooLarge(WorkbenchError):
    pass


class UndeclaredBounds(WorkbenchError):
    pass


# --- cli / io ----------------------------------------------------------------

class UnknownSuite(WorkbenchError):
    pass


class ConfigInvalid(WorkbenchError):
    pass


class ParseError(WorkbenchError):
    pass


class SchemaViolation(WorkbenchError):
    pass
