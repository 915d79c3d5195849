"""Shared exception types and the one int check."""

import numpy as np


class RejectedInput(ValueError):
    """Raised when an operation's preconditions are violated."""


def check_int(what: str, value, low: int):
    """``value`` if it is an int >= ``low``; RejectedInput otherwise. A
    numpy integer counts as an int; a bool or a float does not."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < low):
        raise RejectedInput(f"{what} must be an int >= {low}, got {value!r}")
    return value


class StageFailureError(RuntimeError):
    """A pipeline stage failed; carries the stage name and a short reason."""

    def __init__(self, stage: str, reason: str):
        super().__init__(f"{stage}: {reason}")
        self.stage = stage
        self.reason = reason
