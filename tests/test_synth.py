import hashlib
from datetime import date

import numpy as np
import pytest

from flowrecon.errors import InvalidParams
from flowrecon.ingest import (
    SLOTS_PER_DAY,
    assemble_day,
    day_to_records,
    parse_sensor_csv,
    write_records_csv,
)
from flowrecon.synth import (
    DEFAULT_PARAMS,
    PeakSpec,
    ProfileParams,
    base_profile,
    generate_corpus,
    generate_day,
)

DAY = date(2012, 3, 6)


def params_with(**overrides):
    base = dict(
        daily_total=20000.0,
        peaks=(PeakSpec(90.0, 10.0, 0.4), PeakSpec(210.0, 14.0, 0.3)),
        noise_std=0.05,
        seed=7,
    )
    base.update(overrides)
    return ProfileParams(**base)


def test_same_inputs_same_day():
    a = generate_day(DEFAULT_PARAMS, DAY)
    b = generate_day(DEFAULT_PARAMS, DAY)
    assert np.array_equal(a.values, b.values)
    assert a.date == b.date


def test_different_dates_differ():
    a = generate_day(DEFAULT_PARAMS, DAY)
    b = generate_day(DEFAULT_PARAMS, date(2012, 3, 7))
    assert not np.array_equal(a.values, b.values)


def test_noiseless_single_peak_hits_total():
    params = params_with(peaks=(PeakSpec(96.0, 12.0, 0.5),), noise_std=0.0)
    day = generate_day(params, DAY)
    assert abs(day.daily_total - params.daily_total) <= 1e-6 * params.daily_total
    # smooth unimodal: the argmax sits at the peak center
    assert abs(int(np.argmax(day.values)) - 96) <= 1


def test_bimodal_peaks_land_in_their_windows():
    params = params_with(noise_std=0.0)
    values = generate_day(params, DAY).values
    morning = slice(90 - 30, 90 + 30)
    evening = slice(210 - 42, 210 + 42)
    assert abs(int(np.argmax(values[morning])) + morning.start - 90) <= 1
    assert abs(int(np.argmax(values[evening])) + evening.start - 210) <= 1


def test_base_profile_matches_mixture_closed_form():
    params = params_with(noise_std=0.0)
    profile = base_profile(params)
    slots = np.arange(SLOTS_PER_DAY, dtype=float)
    floor = (1 - 0.4 - 0.3) / SLOTS_PER_DAY
    bump1 = np.exp(-0.5 * ((slots - 90) / 10) ** 2)
    bump2 = np.exp(-0.5 * ((slots - 210) / 14) ** 2)
    expected = params.daily_total * (
        floor + 0.4 * bump1 / bump1.sum() + 0.3 * bump2 / bump2.sum()
    )
    np.testing.assert_allclose(profile, expected, rtol=1e-12)


def test_generated_days_are_non_negative():
    params = params_with(noise_std=1.5)  # absurd noise still clamps at zero
    for dom in range(1, 8):
        day = generate_day(params, date(2012, 3, dom))
        assert np.all(day.values >= 0)


def test_invalid_params_rejected():
    with pytest.raises(InvalidParams):
        params_with(daily_total=0.0)
    with pytest.raises(InvalidParams):
        params_with(peaks=(PeakSpec(90.0, 10.0, 0.6), PeakSpec(200.0, 10.0, 0.6)))
    with pytest.raises(InvalidParams):
        params_with(peaks=(PeakSpec(300.0, 10.0, 0.5),))
    with pytest.raises(InvalidParams):
        params_with(peaks=(PeakSpec(90.0, -1.0, 0.5),))
    with pytest.raises(InvalidParams):
        params_with(noise_std=-0.1)
    nan, inf = float("nan"), float("inf")
    for overrides in (
        dict(noise_std=nan),
        dict(noise_std=inf),
        dict(daily_total=nan),
        dict(daily_total=inf),
        dict(peaks=(PeakSpec(90.0, nan, 0.5),)),
        dict(peaks=(PeakSpec(90.0, inf, 0.5),)),
        dict(peaks=(PeakSpec(90.0, 10.0, nan),)),
        dict(seed=-1),
        dict(seed=1.5),
    ):
        with pytest.raises(InvalidParams):
            params_with(**overrides)
    for jitter in (-0.1, nan, inf):
        with pytest.raises(InvalidParams):
            generate_corpus(DEFAULT_PARAMS, 2012, 3, jitter=jitter)


def test_march_2012_typical_corpus_has_13_days():
    corpus = generate_corpus(DEFAULT_PARAMS, 2012, 3)
    assert len(corpus) == 13
    assert all(d.date.weekday() in {1, 2, 3} for d in corpus)
    assert [d.date for d in corpus] == sorted(d.date for d in corpus)


@pytest.mark.parametrize(
    ("year", "month", "days", "digest"),
    [
        (2012, 2, 29, "3766d20e6be79c4310b967b232f696ed3123499e8120fa0d870107fb063efabc"),
        (2019, 2, 28, "c82f4b84061b83215bf3c653b94b0b9ca656e6474e42c1a823b79fb19a729e0f"),
        (2019, 4, 30, "e02ae7664187caa6d5a0ebb5b5160f22b1c20c2a6535cd3cebab3e044241b2a1"),
    ],
)
def test_corpus_walks_every_date_of_the_month(year, month, days, digest):
    """Every date of a leap February, a common February and a 30-day month, in order,
    with values pinned by the sha256 of their bytes (jitter 0.2, every weekday)."""
    corpus = generate_corpus(DEFAULT_PARAMS, year, month, frozenset(range(7)), jitter=0.2)
    assert [d.date for d in corpus] == [date(year, month, dom) for dom in range(1, days + 1)]
    assert hashlib.sha256(b"".join(d.values.tobytes() for d in corpus)).hexdigest() == digest


def test_zero_jitter_zero_noise_days_identical():
    params = params_with(noise_std=0.0)
    corpus = generate_corpus(params, 2012, 3, jitter=0.0)
    for day in corpus[1:]:
        assert np.array_equal(day.values, corpus[0].values)


def test_jitter_varies_days_deterministically():
    params = params_with(noise_std=0.0)
    corpus1 = generate_corpus(params, 2012, 3, jitter=0.05)
    corpus2 = generate_corpus(params, 2012, 3, jitter=0.05)
    assert not np.array_equal(corpus1[0].values, corpus1[1].values)
    for a, b in zip(corpus1, corpus2):
        assert np.array_equal(a.values, b.values)


def test_jitter_preserves_daily_total_without_noise():
    params = params_with(noise_std=0.0)
    for day in generate_corpus(params, 2012, 3, jitter=0.1):
        assert abs(day.daily_total - params.daily_total) <= 1e-6 * params.daily_total


def test_day_stream_independent_of_corpus_slicing():
    params = params_with()
    direct = generate_day(params, date(2012, 3, 13))
    from_corpus = {d.date: d for d in generate_corpus(params, 2012, 3)}[date(2012, 3, 13)]
    # jitter=0 consumes no draws, so the corpus day equals the direct day
    assert np.array_equal(direct.values, from_corpus.values)


def test_corpus_exports_to_ingest_schema(tmp_path):
    corpus = generate_corpus(params_with(), 2012, 3)
    path = tmp_path / "corpus.csv"
    records = [rec for day in corpus for rec in day_to_records(day)]
    write_records_csv(records, path)
    parsed = parse_sensor_csv(path)
    assert parsed.rejected_rows == 0 and parsed.duplicate_rows == 0
    rebuilt = assemble_day(
        [r for r in parsed.records if r.timestamp.date() == corpus[0].date],
        corpus[0].date,
        corpus[0].sensor_id,
    )
    assert np.array_equal(rebuilt.values, corpus[0].values)
    assert rebuilt.filled_slots == frozenset()
