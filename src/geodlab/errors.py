"""Typed errors with stable machine-readable codes."""


class GeodlabError(Exception):
    """Base error.  ``code`` is a stable short identifier for the CLI."""

    code = "error"

    def __init__(self, message="", **context):
        super().__init__(message or self.code)
        self.context = context


class PrecisionCapError(GeodlabError):
    code = "precision-cap"


class NotSplitError(GeodlabError):
    code = "not-split"


class CharTwoError(GeodlabError):
    code = "char-2-unsupported"


class NotIrrationalError(GeodlabError):
    code = "not-irrational"


class BudgetError(GeodlabError):
    code = "budget"


class TooLargeError(GeodlabError):
    code = "too-large"


class GraphFormatError(GeodlabError):
    """Graph document violations; ``code`` is set per instance."""

    def __init__(self, code, message="", **context):
        self.code = code
        super().__init__(message, **context)


class DegenerateError(GeodlabError):
    code = "degenerate"


class ReducibleError(GeodlabError):
    code = "reducible"


class NoConvergenceError(GeodlabError):
    code = "no-convergence"


class UnsupportedError(GeodlabError):
    code = "unsupported-configuration"


class NotTransientError(GeodlabError):
    code = "not-transient"


class UsageError(GeodlabError):
    code = "usage"


class IOFailure(GeodlabError):
    code = "io"


class NotSimpleCycleError(GeodlabError):
    code = "not-a-simple-cycle"


class FixesInfinityError(GeodlabError):
    code = "fixes-infinity"


class DetNotUnitError(GeodlabError):
    code = "det-not-unit"
