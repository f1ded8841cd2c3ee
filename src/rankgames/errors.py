"""Shared exception types and the one bound on the work of a call."""

# Upper bound on the work of one call: the bases of a vertex walk, the
# support pairs of enumerate_by_supports, the cells of a grid axis and of a
# whole grid, and the strategies a side of bound_report's dimension d.
MAX_WORK = 4096


class CapExceededError(RuntimeError):
    """A run exceeded MAX_WORK, the bound on grid cells, vertex-walk bases,
    support pairs and bound_report's dimension meant to stop runaway runs."""


class GameFormatError(ValueError):
    """A game, decomposition, or profile text could not be parsed."""


def check_work(count, what):
    """Raise CapExceededError when count, a number of `what`, passes
    MAX_WORK; the message reads "<count> <what>, above the bound <MAX_WORK>".
    This is the one place a work bound is enforced."""
    if count > MAX_WORK:
        raise CapExceededError(f"{count} {what}, above the bound {MAX_WORK}")
