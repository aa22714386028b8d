"""Rebuild 5-minute loop-detector flow from counts aggregated to 10-160 minutes.

A target day's level-k counts replace the approximation of a typical-day
donor profile's Haar decomposition; the result is scored against the
original day and a staircase baseline on percent-of-daily-total signals.
The package imports nothing here, so each module below is imported on its
own. Its public API, module by module:

``flowrecon.ingest``
    Detector CSVs in one record layout (header ``RECORD_COLUMNS``, sensor
    ``UNKNOWN_SENSOR`` where none is given) onto the 288-slot day grid:
    ``parse_sensor_csv`` (to a ``ParseResult`` of ``SensorRecord`` rows),
    ``assemble_day`` (one given sensor's day, to a ``DaySignal``),
    ``day_to_records``, ``write_records_csv``; ``aggregate`` (to an
    ``AggregatedSignal``, whose window follows from its level) and
    ``check_level`` for the dyadic levels 1 to ``MAX_AGGREGATION_LEVEL``;
    the field rules ``finite_row`` (signal arrays: no bool, text, date or
    complex values), ``is_int``, ``check_month`` (an int year and month),
    ``check_day`` (a date that is no datetime) and ``check_sensor_id`` (a str);
    ``gap_report`` (one given sensor's ``GapReport`` of ``MonthGap`` rows,
    each with its severity from ``SEVERITY_LADDER``, and one CSV writer).
    The day grid: ``BASE_WINDOW_MINUTES``, ``SLOTS_PER_DAY``, ``SLOT_TIMES``
    (each slot's naive start), ``SLOT_OF`` (start to slot; a naive stamp
    whose time is a key is on the grid) and ``SLOT_CLOCKS`` (each slot's
    ``"THH:MM"`` text).
``flowrecon.matrix``
    Donor profiles: ``DaySelectionCriteria`` (a year and month) and
    ``select_typical_days`` (its fault-free Tuesdays to Thursdays,
    ``TYPICAL_WEEKDAYS``), ``build_matrix_scenario1`` (slot means) and
    ``build_matrix_scenario2`` (20-minute block rates), both giving a
    ``MatrixProfile`` that builds its detail residual of every level once.
``flowrecon.reconstruct``
    ``reconstruct_day`` (closed-form detail transplantation),
    ``staircase_baseline``, ``share_row`` (the percent-share rule), and
    the per-day exports ``write_reconstruction_csv`` and
    ``write_reconstruction_json``.
``flowrecon.metrics``
    ``evaluate_day`` (correlation, MAPE and mean share difference of a
    reconstruction and its baseline, as a ``DayResult``) and
    ``summarize`` (per-level ``LevelSummary`` rows, lower median).
``flowrecon.haar``
    The paper's orthonormal Haar transform (``haar_forward``,
    ``haar_inverse``, ``WaveletDecomposition`` and ``max_levels``): the
    reference for the closed-form reconstruction, which no other module
    imports.
``flowrecon.synth``
    Seeded synthetic commuter days: ``ProfileParams``, ``PeakSpec``,
    ``DEFAULT_PARAMS``, ``base_profile``, ``generate_day``,
    ``generate_corpus``.
``flowrecon.errors``
    ``FlowReconError`` (a ValueError) and one subclass per validation
    failure.
"""
