"""Exception hierarchy.

PvError subclasses are domain failures: structurally fine input whose
mathematics rejects it (bad adjunction, pole hit, invalid center...).
InputError subclasses are malformed input: unreadable files, schema
violations, unparseable expressions.  The CLI maps PvError to exit
code 1 and InputError to exit code 2.
"""


class PvError(Exception):
    """Domain-level failure."""


class ContextError(PvError):
    """Mixed ring contexts (different d) in one operation."""


class ExponentError(PvError):
    """Exponent a with a*d not an integer."""


class LogPoleError(PvError):
    """A logarithmic pole was reached (some alpha = 0 where forbidden)."""


class ChiDomainError(PvError):
    """Element has no Euler specialization (representative outside the
    chi-domain subring)."""


class ConfigError(PvError):
    """Structurally inconsistent configuration data."""


class ValidationError(PvError):
    """A validation report with errors blocked an operation."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class CenterError(PvError):
    """Blow-up center does not exist in the configuration."""


class ContractionError(PvError):
    """Curve cannot be blown down."""


class GenericityError(PvError):
    """Numerical data produced alpha = 0 (non-generic zeta datum)."""


class DataError(PvError):
    """Resolution datum is numerically inconsistent."""


class GeneratorError(PvError):
    """Random generation failed to produce a configuration."""


class InputError(Exception):
    """Malformed input (text or file)."""


class ParseError(InputError):
    """Unparseable ring-element text."""


class SchemaError(InputError):
    """JSON document that is malformed or does not match the expected
    schema."""
