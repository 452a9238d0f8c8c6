"""Exception types shared across the package."""


class StoneworkError(Exception):
    """Base class for all package errors."""


class IdentityViolation(StoneworkError):
    def __init__(self, element):
        self.element = element
        super().__init__(f"element {element} is not fixed by the claimed identity")


class AssociativityViolation(StoneworkError):
    def __init__(self, x, y, z):
        self.triple = (x, y, z)
        super().__init__(f"(x*y)*z != x*(y*z) at (x, y, z) = ({x}, {y}, {z})")


class ResourceLimit(StoneworkError):
    """Requested enumeration exceeds the configured size bound."""


class DimensionMismatch(StoneworkError):
    pass


class CarrierMismatch(StoneworkError):
    pass


class ChainNotMonotone(StoneworkError):
    def __init__(self, level):
        self.level = level
        super().__init__(f"chain level {level} does not refine level {level - 1}")


class NotLipschitz(StoneworkError):
    def __init__(self, x, y):
        self.pair = (x, y)
        super().__init__(f"map increases the distance between points {x} and {y}")


class NoWitness(StoneworkError):
    pass


class ConfigError(StoneworkError):
    pass
