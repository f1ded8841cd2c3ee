"""Shared exception types."""


class CapExceededError(RuntimeError):
    """A run exceeded a work bound (grid cells, vertex-walk bases, support
    pairs) meant to stop runaway runs."""


class GameFormatError(ValueError):
    """A game, decomposition, or profile text could not be parsed."""
