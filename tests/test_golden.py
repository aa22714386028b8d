"""Golden identity pass: every output of one seeded synthetic calendar, pinned.

Two months of jittered synthetic days; each month's fault-free Tuesdays to
Thursdays donate a Scenario-1 and a Scenario-2 profile, and every day of the
month is aggregated, reconstructed at levels 1 to 5 in both modes, given its
staircase and scored. Reconstructions, staircases and the profiles' detail
residuals are hashed by their bytes, each MAPE and share MAD by ``float.hex``,
so a change of one ulp in any of them fails. Correlations go through BLAS dot
products, whose rounding may differ between builds, so their sums per
scenario, mode and level (and of the baseline's per level) are compared with
checked-in values at 1e-12.

The digests were taken before a refactor that must leave every output bitwise
equal; a change that alters an output on purpose takes new ones.
"""

import hashlib

import pytest

from flowrecon.ingest import aggregate
from flowrecon.matrix import (
    DaySelectionCriteria,
    build_matrix_scenario1,
    build_matrix_scenario2,
    select_typical_days,
)
from flowrecon.metrics import evaluate_day
from flowrecon.reconstruct import reconstruct_day, staircase_baseline
from flowrecon.synth import DEFAULT_PARAMS, generate_corpus

YEAR, MONTHS, LEVELS, JITTER = 2019, (3, 4), range(1, 6), 0.3
BUILDS = {"S1": build_matrix_scenario1, "S2": build_matrix_scenario2}
MODES = {"raw": False, "rescaled": True}

DIGESTS = {
    "residuals": "8353db868a4f13151061221a044cdf0337e6e7d539ab5ab22b0898c687d01fc0",
    "staircases": "8bdf935e44e1b5ca5edbeead22b6719aa7f9e5aa6410cd1784216715f4467776",
    "reconstructions": "b0bde57c99d6537635fec05c59b37f0a2aa9ac3014023f866e7fe01be1cacaf7",
    "errors": "b5413eefd2ffcca9479bf32a1c366949139dc42cd99c6d2c3cdc059ded13d798",
}
# over the pass's evaluations: the sum of each (scenario, mode, level)'s correlations,
# and of each level's baseline correlations
CORRELATION_SUMS = {
    "S1-raw-L1": 60.920284259294746,
    "S1-raw-L2": 60.82852711239245,
    "S1-raw-L3": 60.499530954945875,
    "S1-raw-L4": 59.11660418356613,
    "S1-raw-L5": 52.606539504200065,
    "S1-rescaled-L1": 60.920252191699134,
    "S1-rescaled-L2": 60.85752339009037,
    "S1-rescaled-L3": 60.72447262926087,
    "S1-rescaled-L4": 60.361072760892306,
    "S1-rescaled-L5": 59.46337365466378,
    "S2-raw-L1": 60.89162167759456,
    "S2-raw-L2": 60.71946933439654,
    "S2-raw-L3": 60.41346177231129,
    "S2-raw-L4": 59.04942571089055,
    "S2-raw-L5": 52.54789154366433,
    "S2-rescaled-L1": 60.89162167759456,
    "S2-rescaled-L2": 60.71946933439654,
    "S2-rescaled-L3": 60.586069282962285,
    "S2-rescaled-L4": 60.221681370041416,
    "S2-rescaled-L5": 59.32145181214276,
    "baseline-L1": 243.56648671037803,
    "baseline-L2": 242.8778773375861,
    "baseline-L3": 240.63565590338806,
    "baseline-L4": 232.34762101723612,
    "baseline-L5": 195.55730157338678,
}


def golden_pass():
    """The pass's digests and its correlation sums."""
    hashes = {name: hashlib.sha256() for name in DIGESTS}
    sums = {}
    for month in MONTHS:
        calendar = generate_corpus(DEFAULT_PARAMS, YEAR, month, frozenset(range(7)), JITTER)
        chosen = set(select_typical_days(calendar, DaySelectionCriteria(YEAR, month)))
        donors = [day for day in calendar if day.date in chosen]
        profiles = {name: build(donors) for name, build in BUILDS.items()}
        for level in LEVELS:
            for profile in profiles.values():
                hashes["residuals"].update(profile.residual(level).tobytes())
            for day in calendar:
                agg = aggregate(day, level)
                baseline = staircase_baseline(agg)
                hashes["staircases"].update(baseline.values.tobytes())
                for name, profile in profiles.items():
                    for mode, rescale in MODES.items():
                        recon = reconstruct_day(profile, agg, level, rescale)
                        hashes["reconstructions"].update(recon.values.tobytes())
                        res = evaluate_day(day, recon, baseline, level)
                        for value in (res.error_pct, res.baseline_error_pct,
                                      res.share_mad, res.baseline_share_mad):
                            hashes["errors"].update(value.hex().encode())
                        for key, value in ((f"{name}-{mode}-L{level}", res.correlation),
                                           (f"baseline-L{level}", res.baseline_correlation)):
                            sums[key] = sums.get(key, 0.0) + value
    return {name: h.hexdigest() for name, h in hashes.items()}, sums


@pytest.fixture(scope="module")
def outputs():
    return golden_pass()


def test_every_output_is_bitwise_the_golden_one(outputs):
    assert outputs[0] == DIGESTS


def test_correlations_match_the_golden_ones(outputs):
    assert outputs[1] == pytest.approx(CORRELATION_SUMS, rel=0, abs=1e-12)
