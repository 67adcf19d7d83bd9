"""Exception types shared across the package."""


class ResourceLimitError(Exception):
    """A requested computation exceeds a fixed size cap."""


class ObjectiveEvaluationError(Exception):
    """The black-box objective failed during an optimization loop.

    Carries the ``localopt.OptTrace`` of the evaluations before the failure
    in ``history`` so callers can inspect what was evaluated.
    """

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history
