"""Exception types shared across the toolkit."""


class GfmSwingError(Exception):
    """Base class for all toolkit errors."""


class DegenerateCircuit(GfmSwingError):
    """Total series impedance is numerically zero; the loop cannot be solved."""


class NoConvergence(GfmSwingError):
    """An iterative solve exhausted its budget without meeting tolerance."""


class ParseError(GfmSwingError):
    """Scenario file is not valid JSON or is structurally unreadable."""


class ValidationError(GfmSwingError):
    """Scenario content violates an invariant; message lists the violations."""
