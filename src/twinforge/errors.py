"""Shared exception types."""


class RejectedInput(ValueError):
    """Raised when an operation's preconditions are violated."""


class StageFailureError(RuntimeError):
    """A pipeline stage failed; carries the stage name and a short reason."""

    def __init__(self, stage: str, reason: str):
        super().__init__(f"{stage}: {reason}")
        self.stage = stage
        self.reason = reason
