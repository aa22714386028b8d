"""The one exception the package raises for input it refuses, and why it refuses it."""

# The closed set of reasons a FlowReconError carries:
REASONS = (
    "shape",  # a row of another shape or of no numbers, a slot off the grid, misfit coefficients
    "non-finite",  # a NaN or infinite value, given or from an overflow
    "zero-total",  # a daily total that is not positive, so a day has no shares
    "not-normalized",  # shares that do not sum to one (heavy cancellation in the total)
    "constant",  # a constant row, whose correlation is undefined
    "level",  # a level that is no int on its ladder, or an aggregate of another level
    "no-header",  # a CSV that holds no header row at all
    "missing-column",  # a CSV header without a required column
    "mixed-sensors",  # a record of another sensor than the one given
    "empty",  # nothing to work on: no typical day, no donor day or no result
    "bad-params",  # any other argument off its rules: a month, day, id, seed, scenario or range
)


class FlowReconError(ValueError):
    """Every domain error of flowrecon: ``reason`` is one of ``REASONS``, and
    ``str(exc)`` is the message.

    >>> exc = FlowReconError("empty", "no day results to summarize")
    >>> exc.reason, str(exc)
    ('empty', 'no day results to summarize')
    """

    def __init__(self, reason: str, message: str):
        super().__init__(reason, message)  # both args, so a pickle round-trips both
        self.reason = reason

    def __str__(self) -> str:
        return self.args[1]
