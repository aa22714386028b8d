"""Exception types shared across the package."""


class FlowReconError(ValueError):
    """Base class for every domain error raised by flowrecon."""


class LengthMismatch(FlowReconError):
    """Paired vectors (coefficients or signals) have incompatible lengths."""


class NotDyadicallyDivisible(FlowReconError):
    """2**levels does not divide the signal length."""


class LevelOutOfRange(FlowReconError):
    """A decomposition/aggregation level that is no int on the supported ladder (2.0, True)."""


class LevelMismatch(FlowReconError):
    """An aggregated signal's level differs from the level asked for."""


class WrongShape(FlowReconError):
    """A signal is no float row of the slot or window count its type requires: another shape,
    no numbers, or bool, text, bytes, date, time-span or complex values (``ingest.finite_row``);
    or a length given to ``haar.max_levels`` is no int >= 1."""


class NonFiniteValues(FlowReconError):
    """A signal holds NaN or infinite values."""


class SlotOutOfRange(FlowReconError):
    """A slot index lies outside the 288-slot day grid."""


class UnknownScenario(FlowReconError):
    """A donor profile names a scenario other than 1 or 2."""


class NotBlockConstant(FlowReconError):
    """A Scenario-2 profile is not constant on each 20-minute block."""


class SharesNotNormalized(FlowReconError):
    """Percent-of-daily-total shares do not sum to one."""


class MissingColumn(FlowReconError):
    """A required CSV column is absent from the header."""


class EmptyInput(FlowReconError):
    """The input stream holds no CSV header at all."""


class MixedSensors(FlowReconError):
    """Records from more than one sensor where a single sensor is required."""


class NoTypicalDays(FlowReconError):
    """No fault-free day matched the selection criteria."""


class EmptyDayList(FlowReconError):
    """A profile cannot be built from zero days."""


class ZeroDailyTotal(FlowReconError):
    """Percent normalization needs a positive daily total."""


class ConstantInput(FlowReconError):
    """Correlation is undefined for a constant vector."""


class EmptyResults(FlowReconError):
    """No day results to summarize."""


class InvalidParams(FlowReconError):
    """Arguments violate their type's invariants.

    Raised for synthetic profile parameters or jitter (a seed must be an
    int), a day-selection, gap-report or synthetic-corpus year and month
    that is no calendar month (``ingest.check_month``), a day or span end
    that is no date or is a ``datetime`` (``ingest.check_day``), a day,
    assembly or gap-report sensor id that is no str, a date span ending
    before it starts, a record off the day grid or one with a flow the
    parser rejects (records writer), a gap-report month that is no
    ``MonthGap`` (gap writer), a negative export vehicle total and a
    day result whose correlation, error, share difference or excluded-slot
    count (an int) lies outside its range (an error must be finite and
    non-negative, so a day whose error overflows is refused).
    """
