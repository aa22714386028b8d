"""flowrecon benchmark: the paper's experiment, end to end, on seeded inputs.

    python3 perfbench/run.py --workload year-csv --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The harness generates the
workload's inputs from ``--seed`` (before any clock starts) and runs the
workload in one fresh measured process (``worker.py``) on one thread,
with BLAS pools pinned to 1. It prints the
seed, the sha256 of every input, the versions and the metrics; the last
line of standard output is the result JSON. With ``--trace 0`` its
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.

Exit codes: 0 when every correctness check passed, 1 when one failed, 2
when the flowrecon sources are missing or an argument is invalid, 3 when
the measured process did not produce a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("year-csv", "recon-sweep", "export")
WORKER_TIMEOUT_S = 150
PINNED_THREADS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END_UNITS = {
    "setup_s": "s",
    "days_per_s": "1/s",
    "day_p50_ms": "ms",
    "day_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--months", type=int, default=12, help="input size: the first N months of the year")
    args = parser.parse_args(argv)
    if args.seconds < 1 or not 1 <= args.months <= 12 or args.seed < 0:
        parser.error("--seconds must be >= 1, --months in 1..12 and --seed >= 0")
    return args


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    env.update({name: "1" for name in PINNED_THREADS})
    return env


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "flowrecon").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _counts(passes) -> tuple[int, int]:
    """Operations attempted and failed over the untraced passes."""
    return sum(p["attempted"] for p in passes), sum(p["failed"] for p in passes)


def _end_to_end(result) -> tuple[dict, dict]:
    """End-to-end metrics from the timed passes, their times scaled by the host's speed (see speed.py)."""
    passes = result["passes"]
    day_ms = worker.day_times(passes)
    attempted, failed = _counts(passes)
    values = {
        "setup_s": statistics.median(p["import_s"] + p["prep_s"] * p["speed"] for p in passes if "import_s" in p),
        "days_per_s": worker.days_per_s(passes),
        "day_p50_ms": statistics.median(day_ms),
        "day_p90_ms": statistics.quantiles(day_ms, n=10)[8],
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "ok_share": (attempted - failed) / attempted,
    }
    # the same figures unscaled, for the record: on an idle host they read close to the scaled ones
    raw_day_ms = [statistics.median(times) for times in zip(*(p["day_ms"] for p in passes))]
    samples = {
        "passes": len(passes),
        "days_per_pass": passes[0]["days"],
        "skipped_per_pass": passes[0]["skipped"],
        "median_pass_wall_s": statistics.median(p["wall_s"] for p in passes),
        "median_speed": statistics.median(p["speed"] for p in passes),
        "unscaled_day_p50_ms": statistics.median(raw_day_ms),
        "unscaled_day_p90_ms": statistics.quantiles(raw_day_ms, n=10)[8],
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, samples


def _per_layer(result) -> dict:
    import tracing

    return {name: {"value": result["per_layer"][name], "unit": unit} for name, unit, _ in tracing.per_layer_specs()}


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "flowrecon" / "__init__.py").is_file():
        print(f"perfbench: no flowrecon sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import inputs

    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    digests = inputs.generate(args.workload, args.seed, work, args.months)

    try:
        cmd = [sys.executable, str(HERE / "worker.py"), "--work", str(work), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        subprocess.run(cmd, cwd=ROOT, env=_env(), timeout=WORKER_TIMEOUT_S, check=True)
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"perfbench: the measured process failed: {exc}", file=sys.stderr)
        return 3

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": digests,
        "python": result["python"],
        "numpy": result["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "checked": result["checked"],
        "failures": result["failures"],
    }
    if args.trace:
        metrics = _per_layer(result)
        record["traced_passes"] = result["traced_passes"]
        record["spans"] = str((work / "spans.jsonl").relative_to(ROOT))
    else:
        metrics, samples = _end_to_end(result)
        record.update(samples)
    attempted, failed = _counts(result["passes"])
    correct = not result["failures"]
    record["metrics"] = metrics

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    for key in ("workload", "seed", "inputs_sha256", "python", "numpy", "nproc", "git_commit", "source_sha256", "checked"):
        print(f"# {key}: {record[key]}")
    for failure in result["failures"]:
        print(f"# CHECK FAILED: {failure}")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    for key in ("passes", "median_speed", "unscaled_day_p50_ms", "unscaled_day_p90_ms"):
        if key in record:
            print(f"# {key}: {record[key]:.6g}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
