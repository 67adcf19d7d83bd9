"""Exception types shared across the package."""


class ResourceLimitError(Exception):
    """A requested computation exceeds a fixed size cap."""


class ObjectiveEvaluationError(Exception):
    """The black-box objective failed during an optimization loop; the message
    says after how many evaluations."""
