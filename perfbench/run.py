"""Benchmark of the ehpolicy evaluators: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src/``.
It repeats the workload's ops in whole rounds until ``--seconds`` have
passed, checks every value they return, and prints each metric by name and
unit, then one JSON line: the end-to-end metrics with ``--trace 0``, the
per-layer metrics from a span-traced run with ``--trace 1``.  The full record
of a run, with the machine's facts and any failed op with its cause, goes to
``.perfbench_out/``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("series_bernoulli", "vi_uniform", "mc_long", "mc_wide")
SETUP_SAMPLES = 5
# Seconds the calibration kernel takes at the nominal host speed: its median
# on a 2-core Xeon VM (Python 3.11, numpy 2.4).  Timed metrics are reported
# at this speed; see calibrated().
CAL_NOMINAL_S = 0.0075
CAL_WINDOW = 3  # kernel runs on each side of an op that calibrate it
_CAL_ARRAY = np.linspace(0.0, 1.0, 600 * 600).reshape(600, 600)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _limit_threads(env: dict) -> dict:
    """Cap native thread pools at the cores this process may run on."""
    for var in THREAD_VARS:
        env[var] = str(_nproc())
    return env


def _caches() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            out[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ehpolicy").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_facts(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": _nproc(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "thread_limit": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def calibration_kernel() -> float:
    """Fixed work of the kinds the workloads do: a Python float loop, numpy
    calls on a vector that stays in cache, and numpy reductions over a
    600 x 600 array that does not."""
    total = 0.0
    for i in range(20_000):
        total += math.sqrt(i + 1.0)
    v = _CAL_ARRAY[0]
    for _ in range(200):
        v = np.minimum(v * 1.0001 + 0.1, 2.0)
    x = _CAL_ARRAY[0]
    for _ in range(8):
        x = np.max(_CAL_ARRAY + x[None, :], axis=1) * 0.5
    return total + float(v[0]) + float(x[0])


def _time_calibration() -> float:
    began = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - began


def calibrated(seconds: float, cal_s: list[float]) -> float:
    """`seconds` rescaled to the nominal host speed.

    The host's speed drifts by a fifth over tens of seconds, and the work
    timed drifts with it.  The calibration kernel, timed around the work,
    measures the drift: the rescaled time is what the work would have taken
    had the kernel taken CAL_NOMINAL_S.  `cal_s` holds the kernel times
    nearest the work; their median ignores a kernel run that was preempted.
    """
    return seconds * CAL_NOMINAL_S / statistics.median(cal_s)


def measure_setup(workload: str, size: str, samples: int) -> tuple[list[float], list[float]]:
    """Set-up seconds, each from a fresh interpreter so the import is cold:
    (as measured, calibrated)."""
    env = _limit_threads(dict(os.environ))
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    raw, cal = [], [_time_calibration()]
    for _ in range(samples):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, size],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        raw.append(float(out.stdout.strip().splitlines()[-1]))
        cal.append(_time_calibration())
    return raw, [calibrated(t, cal) for t in raw]


def _execute(op):
    try:
        return op.run()
    except Exception as exc:  # a failed op is counted, and the run goes on
        return exc


def _round(plan, calibrate: bool = False) -> tuple[float, list, list[float], list[float]]:
    """One pass over the ops: (wall seconds, outputs, seconds per op, seconds
    of the calibration kernel before each op and after the last).  The
    kernel runs only when `calibrate` is set; the wall time includes it."""
    outputs, op_s, cal_s = [], [], []
    start = time.perf_counter()
    for op in plan.ops:
        if calibrate:
            cal_s.append(_time_calibration())
        began = time.perf_counter()
        outputs.append(_execute(op))
        op_s.append(time.perf_counter() - began)
    if calibrate:
        cal_s.append(_time_calibration())
    return time.perf_counter() - start, outputs, op_s, cal_s


def _typical_round_s(rounds: list, calibrate: bool = False) -> float:
    """Sum over ops of each op's median time across rounds, calibrated or not.

    The machine's speed drifts over seconds; a per-op median drops the
    rounds in which one op met a slow spell.
    """
    kernel = [t for r in rounds for t in r[3]]  # in the order they ran
    per_round = []
    for index, (_, _, op_s, _) in enumerate(rounds):
        if calibrate:
            first = index * (len(op_s) + 1)  # kernel run just before op 0
            op_s = [
                calibrated(t, kernel[max(0, first + i - CAL_WINDOW + 1):first + i + CAL_WINDOW + 1])
                for i, t in enumerate(op_s)
            ]
        per_round.append(op_s)
    return sum(statistics.median(times) for times in zip(*per_round))


def _rounds(plan, seconds: float, spent: float = 0.0, calibrate: bool = False) -> list:
    """Whole rounds until `seconds` have passed (counting `spent`); at least one."""
    done = []
    start = time.perf_counter()
    while True:
        done.append(_round(plan, calibrate))
        if spent + time.perf_counter() - start >= seconds:
            return done


def check_rounds(plan, rounds: list) -> tuple[int, int, list[dict]]:
    """Check every cell of every round: (attempted, failed, failures)."""
    from workloads import cell_values

    plan.prepare_checks()
    attempted = failed = 0
    failures: dict[tuple, dict] = {}
    first = rounds[0][1]
    for index, (_, outputs, *_) in enumerate(rounds):
        for op, out, out0 in zip(plan.ops, outputs, first):
            attempted += op.cells
            if isinstance(out, Exception):
                causes = [[f"raised {''.join(traceback.format_exception_only(out)).strip()}"]] * op.cells
            else:
                causes = plan.check(op, out)
                if index and not isinstance(out0, Exception):
                    if cell_values(out) != cell_values(out0):
                        causes = [c + ["differs from the first round"] for c in causes]
            for cell, why in enumerate(causes):
                if not why:
                    continue
                failed += 1
                key = (op.label, cell, tuple(why))
                entry = failures.setdefault(
                    key, {"op": op.label, "cell": cell, "causes": why, "rounds": 0}
                )
                entry["rounds"] += 1
    return attempted, failed, list(failures.values())


def run_workload(workload: str, seed: int, seconds: float, trace: int, size: str = "full",
                 setup_samples: int = SETUP_SAMPLES) -> dict:
    """Run one workload and return its full record (metrics, checks, facts)."""
    setup_raw, setup_times = ([], []) if trace else measure_setup(workload, size, setup_samples)
    import spans
    import workloads

    plan = workloads.build(workload, seed, size)
    record: dict = {"facts": machine_facts(workload, seed, seconds, trace), "size": size}
    if trace:
        untraced = _round(plan)
        rec = spans.Recorder()
        rec.install()
        try:
            rec.start()
            traced = _rounds(plan, seconds, spent=untraced[0])
            rec.stop()
        finally:
            rec.uninstall()
        overhead = statistics.median(r[0] for r in traced) - untraced[0]
        values = spans.layer_values(rec, len(traced), overhead)
        units = dict(spans.LAYER_METRICS)
        record["trace"] = rec.as_dict()
        record["round_s"] = {"untraced": untraced[0], "traced": [r[0] for r in traced]}
        rounds = [untraced] + traced
    else:
        rounds = _rounds(plan, seconds, calibrate=True)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        round_s = _typical_round_s(rounds, calibrate=True)
        cells = sum(op.cells for op in plan.ops)
        slot_paths = sum(op.slot_paths for op in plan.ops)
        values = {
            "setup_s": statistics.median(setup_times),
            "cells_per_s": cells / round_s,
            "peak_rss_mb": peak_mb,
        }
        units = {"setup_s": "s", "cells_per_s": "1/s", "peak_rss_mb": "MB"}
        record["setup_s_samples"] = setup_times
        record["setup_s_raw_samples"] = setup_raw
        record["round_s"] = [r[0] for r in rounds]
        record["op_s"] = [r[2] for r in rounds]
        record["cal_s"] = [r[3] for r in rounds]
        record["as_measured"] = {
            "setup_s": statistics.median(setup_raw),
            "cells_per_s": cells / _typical_round_s(rounds),
        }
        if slot_paths:
            record["slot_paths_per_s"] = slot_paths / round_s
    attempted, failed, failures = check_rounds(plan, rounds)
    record.update(
        rounds=len(rounds),
        attempted=attempted,
        failed=failed,
        failed_frac=failed / attempted,
        failures=failures,
        notes=sorted(plan.notes),
        metrics={name: {"value": v, "unit": units[name]} for name, v in values.items()},
    )
    return record


def report(record: dict) -> None:
    facts = record["facts"]
    print(
        f"perfbench {facts['workload']} seed={facts['seed']} seconds={facts['seconds']} "
        f"trace={facts['trace']} rounds={record['rounds']}"
    )
    print("machine " + json.dumps(facts, sort_keys=True))
    for name, item in record["metrics"].items():
        print(f"  {name:<40} {item['value']:>16.6g} {item['unit']}")
    if "slot_paths_per_s" in record:
        print(f"  {'slot_paths_per_s':<40} {record['slot_paths_per_s']:>16.6g} 1/s")
    for name, value in record.get("as_measured", {}).items():
        print(f"  {name + ' (as measured)':<40} {value:>16.6g} {record['metrics'][name]['unit']}")
    print(
        f"ops attempted={record['attempted']} failed={record['failed']} "
        f"failed_frac={record['failed_frac']:.6g}"
    )
    for item in record["failures"]:
        print(f"FAILED {item['op']} cell {item['cell']} in {item['rounds']} round(s): "
              + "; ".join(item["causes"]))
    for note in record["notes"]:
        print(f"NOTE {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ehpolicy" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'ehpolicy'}", file=sys.stderr)
        return 2
    _limit_threads(os.environ)
    sys.path[:0] = [str(SRC), str(HERE)]

    record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / name, "w") as fh:
        json.dump(record, fh, indent=1)
    report(record)
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
