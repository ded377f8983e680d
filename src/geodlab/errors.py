"""Typed errors with stable machine-readable codes, and the work budget.

Every verb runs a finite horizon, and the work it counts is charged against
one budget: GEODLAB_BUDGET when it is set and not empty, else the default
of the check, 10^7 for the F_q[Y] and Bruhat-Tits work and 10^8 for the
counting, shift and walk work.  The budget is read where the work is
counted, by ``charge`` (or ``budget``, where a check needs the cap itself),
so no caller passes it on.
"""

import os


class GeodlabError(Exception):
    """Base error.  ``code`` is a stable short identifier for the CLI."""

    code = "error"

    def __init__(self, message=""):
        super().__init__(message or self.code)


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

    def __init__(self, code, message=""):
        self.code = code
        super().__init__(message)


class DegenerateError(GeodlabError):
    code = "degenerate"


class ReducibleError(GeodlabError):
    code = "reducible"


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


def budget(default):
    """The work cap: GEODLAB_BUDGET if it is set and not empty, else
    ``default``.  A value that is not a positive integer is a UsageError."""
    env = os.environ.get("GEODLAB_BUDGET")
    if not env:
        return default
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise UsageError(
            f"GEODLAB_BUDGET must be a positive integer, got {env!r}")
    return cap


def charge(what, work, default):
    """BudgetError when ``work``, in the unit that ``what`` names, is over
    the budget, ``budget(default)``.  The message names the unit and the
    cap, never the work, which may have more digits than Python prints."""
    cap = budget(default)
    if work > cap:
        raise BudgetError(f"{what} exceed the budget {cap}")
