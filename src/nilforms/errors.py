"""Exception types shared across the engine."""


class NilformsError(Exception):
    """Base class for all engine errors."""


class FormatError(NilformsError):
    """Malformed input file or scalar string."""


class IntegrabilityError(NilformsError):
    """A structure equation d gamma^i is not a (2,0)- plus a (1,1)-form
    (``StructureEquations.require_flat``), or a Beltrami differential
    fails the integrability equation where one is required."""


class FlatnessError(NilformsError):
    """d squared is not zero on the coframe generators of the given
    structure equations (``StructureEquations.require_flat``), so they
    define no complex, and the brackets dual to d break Jacobi."""


class NotPerturbative(NilformsError):
    """Neumann inversion was asked for an operator with a constant term."""


class NonInvertibleCoframe(NilformsError):
    """The deformed coframe map 1 + phi + conj(phi) is singular at the
    requested evaluation point."""


class PreconditionFailed(NilformsError):
    """A stated hypothesis of an operation does not hold; the message
    names the hypothesis that broke."""


class ObstructionNonvanishing(NilformsError):
    """The order-by-order extension hit an unsolvable equation.

    Attributes record which order and which component (left/right) failed.
    """

    def __init__(self, order, component, message=None):
        self.order = order
        self.component = component
        super().__init__(
            message or f"obstruction at order {order}, component {component!r}"
        )


class UnknownEntry(NilformsError):
    """Requested catalog entry or scenario does not exist."""
