"""Exception taxonomy shared by every module.

Each validation failure raises a subclass of SplitboundError carrying a
stable machine-readable `kind` used by the CLI for structured error output.
"""

from __future__ import annotations

from math import log10

# The most decimal digits an integer read or printed may have (CPython's default
# int-to-str limit); cli.run holds the interpreter's limit to it for each call.
MAX_INT_DIGITS = 4300


class SplitboundError(Exception):
    """Base class for all domain errors."""

    kind = "error"


class InvalidInvariantError(SplitboundError):
    """A group invariant factor was < 2 or otherwise malformed."""

    kind = "invalid-invariant"


class PairingMismatchError(SplitboundError):
    """Character and group element do not belong to dual groups."""

    kind = "pairing-mismatch"


class AmbientMismatchError(SplitboundError):
    """Subgroup or element used with a group it does not belong to."""

    kind = "ambient-mismatch"


class EnumerationBoundError(SplitboundError):
    """Requested exhaustive enumeration above its fixed bound on the group
    order (qzforms.MAX_ENUMERATED_ORDER, for a non-split radical)."""

    kind = "enumeration-bound"

    def __init__(self, order: int, bound: int):
        super().__init__(
            f"group order {_int_text(order)} exceeds the enumeration bound {bound}"
        )
        self.order = order
        self.bound = bound


def _int_text(n: int) -> str:
    """n in decimal for a message, or "<d digits>" when its d digits are
    above the int-to-str limit (MAX_INT_DIGITS inside cli.run)."""
    try:
        return str(n)
    except ValueError:
        k = max(0, int((n.bit_length() - 1) * log10(2)) - 1)  # 10^k <= n
        while 10 ** (k + 1) <= n:
            k += 1
        return f"<{k + 1} digits>"


def _over_digit_bound(text: str) -> bool:
    """Whether text has more than MAX_INT_DIGITS decimal digits, counted as
    int() counts them against the int-to-str limit."""
    return len(text) > MAX_INT_DIGITS and sum(map(str.isdigit, text)) > MAX_INT_DIGITS


class OutputBoundError(SplitboundError):
    """A result would have more than MAX_INT_DIGITS decimal digits."""

    kind = "output-bound"


class PreconditionError(SplitboundError):
    """An operation's stated hypothesis does not hold for the input."""

    kind = "precondition"


class DegenerateFormError(SplitboundError):
    """Operation requires a nondegenerate alternating form."""

    kind = "degenerate-form"


class InvalidFormError(SplitboundError):
    """Gram data is not alternating or not compatible with the group."""

    kind = "invalid-form"


class NotScalarError(SplitboundError):
    """Monomial matrix expected to be scalar is not."""

    kind = "not-scalar"


class NotAbelianInPglError(SplitboundError):
    """Lifted commutators are not all scalar."""

    kind = "not-abelian-in-pgl"


class NotPGroupError(SplitboundError):
    """Subgroup order is not a prime power."""

    kind = "not-p-group"


class HypothesisViolationError(SplitboundError):
    """Numeric hypothesis of a bound formula violated (e.g. e > r - 1)."""

    kind = "hypothesis-violation"


class UnsupportedTypeError(SplitboundError):
    """Group descriptor outside the shipped tables; never guessed."""

    kind = "unsupported-type"


class InputError(SplitboundError):
    """Unparseable CLI input literal."""

    kind = "input"
