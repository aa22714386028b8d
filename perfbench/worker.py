"""The measured process: one fresh interpreter runs one workload's passes.

``run.py`` starts it with the generated inputs in ``--work``. It loads
the inputs and runs timed passes until their wall times add up to
``--seconds``. The first pass also keeps a seeded sample of its outputs,
which are checked after the last pass. With ``--trace 1`` half of the
time goes to untraced passes and half to traced ones, whose spans give
the per-layer metrics and whose speed against the untraced passes gives
the tracing overhead. Every pass also records its speed (see ``speed.py``).
The result is written to ``<work>/result.json``.
``--import-only`` prints the import time, scaled by the host's speed, and exits.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUP_SAMPLES = 9


def _timed_import() -> float:
    t0 = time.perf_counter()
    import flowrecon.haar  # noqa: F401
    import flowrecon.ingest  # noqa: F401
    import flowrecon.matrix  # noqa: F401
    import flowrecon.metrics  # noqa: F401
    import flowrecon.reconstruct  # noqa: F401

    return time.perf_counter() - t0


def _probe_import() -> float:
    """Import time of the library in a fresh interpreter, scaled by that interpreter's speed."""
    cmd = [sys.executable, __file__, "--import-only"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, timeout=60).stdout
    return json.loads(out)["import_s"]


def _pass_record(res) -> dict:
    import speed

    return {
        "wall_s": res.wall_s,
        "prep_s": res.prep_s,
        "days": res.days,
        "skipped": res.skipped,
        "attempted": res.attempted,
        "failed": res.failed,
        "day_ms": [s * 1e3 for s in res.day_s],
        "day_speed": speed.day_factors(res.after_day_s),
        "speed": speed.factor(res.ref_s),
        "ref_s": sum(res.ref_s),
    }


def _run_for(seconds: float, api, tracer, inp, reference, failures: list, probe: bool, passes: list) -> None:
    """Append timed passes to ``passes`` until their times, speed samples included, add up to ``seconds``.

    Each pass must repeat the checked pass's results. With ``probe``, a fresh
    interpreter's import time is measured after each of the first
    SETUP_SAMPLES passes, outside any pass's clock.
    """
    import workloads

    while not passes or sum(p["wall_s"] + p["ref_s"] for p in passes) < seconds:
        tracer.pass_id = len(passes)
        res = workloads.run_pass(api, tracer, inp)
        if (res.summaries, res.attempted, res.failed) != reference:
            failures.append(f"pass {len(passes)} did not repeat the checked pass's results")
        passes.append(_pass_record(res))
        del res
        if probe and len(passes) <= SETUP_SAMPLES:
            passes[-1]["import_s"] = _probe_import()


def day_times(passes) -> list[float]:
    """Each target day's median time (ms) over the passes, each scaled by the speed around it."""
    scaled = [[ms * s for ms, s in zip(p["day_ms"], p["day_speed"])] for p in passes]
    return [statistics.median(times) for times in zip(*scaled)]


def days_per_s(passes) -> float:
    """Target days per second of the median pass, each pass's wall time scaled by its speed."""
    return passes[0]["days"] / statistics.median(p["wall_s"] * p["speed"] for p in passes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--work", type=Path)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = _timed_import()
    if args.import_only:
        import speed

        speed.sample(0.0, [])  # a fresh interpreter's first kernel run pays for cold caches
        ref_s = []
        speed.sample(import_s, ref_s)
        print(json.dumps({"import_s": import_s * speed.factor(ref_s)}))
        return 0

    import numpy
    import checks
    import tracing
    import workloads

    inp = workloads.load(args.workload, args.work)
    sample = checks.sample_keys(args.seed, inp)
    null = workloads.NullTracer()
    plain = tracing.Api()
    # the first pass keeps samples for the checks and counts as a timed pass
    checked = workloads.run_pass(plain, null, inp, sample)
    reference = (checked.summaries, checked.attempted, checked.failed)
    failures = []
    passes = [_pass_record(checked)]
    if not args.trace:
        passes[0]["import_s"] = _probe_import()

    budget = args.seconds / 2 if args.trace else args.seconds
    _run_for(budget, plain, null, inp, reference, failures, not args.trace, passes)
    record = {
        "passes": passes,
        "checked": {"samples": len(checked.samples), "exports": len(checked.exports)},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if args.trace:
        tracer = tracing.Tracer()
        traced = []
        _run_for(budget, tracing.Api(tracer), tracer, inp, reference, failures, False, traced)
        overhead = days_per_s(passes) / days_per_s(traced) - 1.0
        wall = statistics.fmean(p["wall_s"] for p in traced)
        reference_s = sum(p["ref_s"] for p in traced)
        record["per_layer"] = tracer.layer_metrics(len(traced), wall, overhead, reference_s)
        record["traced_passes"] = len(traced)
        tracer.write(args.work / "spans.jsonl")
    # read before the checks, which parse written files back into memory
    record["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record["failures"] = checks.check_pass(inp, checked) + failures
    (args.work / "result.json").write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
