"""Exception types shared across the package.

Everything derives from ValueError so generic callers can catch misuse with
one clause; the CLI maps ConfigError to exit code 2 and the rest to 3.
"""


class LowIndistinguishabilityError(ValueError):
    """sin(2*beta) is too small for the correlation to carry phase information."""


class DegeneratePhasesError(ValueError):
    """cos(phi1) equals cos(phi2); the mixing weight drops out of the signal."""


class AmbiguousFitError(ValueError):
    """The noise-fit objective is flat; the data do not constrain the model."""


class ExtractionError(ValueError):
    """The reconstructed matrix has no usable one-per-region sector."""


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


class TallyRowError(ValueError):
    """A row of a tally stack holds no usable counts; ``row`` is its index in the stack."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row
