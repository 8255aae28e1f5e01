"""Exception taxonomy shared by every module.

Each validation failure raises a subclass of SplitboundError carrying a
stable machine-readable `kind` used by the CLI for structured error output.
"""

from __future__ import annotations


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
    """Requested exhaustive enumeration above the configured bound."""

    kind = "enumeration-bound"

    def __init__(self, order: int, bound: int):
        super().__init__(
            f"group order {order} exceeds the enumeration bound {bound}"
        )
        self.order = order
        self.bound = bound


class OutputBoundError(SplitboundError):
    """A result would have more decimal digits than the interpreter's
    int-to-str limit (sys.get_int_max_str_digits()) lets it print."""

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
