"""Exception types shared across the package.

The command line maps these onto distinct exit codes, so keep the split:
syntax problems, degree problems, truncation problems and resource caps
are different failures.  Every number a refusal echoes is written by
_number, so that a number with more digits than Python converts to text
is named by its digit count instead of failing the message.
"""


class SymfError(Exception):
    """Base class for all errors raised by symf."""


class DegreeError(SymfError):
    """An operand has the wrong degree, or is not homogeneous where it must be."""


class TruncationError(SymfError):
    """A graded series was queried beyond its truncation degree."""


class ResourceLimitError(SymfError):
    """A computation exceeds a documented size cap."""


class ExprError(SymfError):
    """A command line expression failed to parse or to evaluate."""

    def __init__(self, message, position=None):
        if position is not None:
            message = "column %d: %s" % (position + 1, message)
        super().__init__(message)
        self.position = position


def _number(n):
    # the int n as a message shows it: its digits, or, beyond
    # sys.get_int_max_str_digits(), how many there are; a list of ints
    # as str shows it, each int shown so
    if isinstance(n, list):
        return "[%s]" % ", ".join(map(_number, n))
    try:
        return str(n)
    except ValueError:
        from decimal import Decimal  # reads an int of any length exactly
        return "(a number of %d digits)" % (Decimal(n).adjusted() + 1)
