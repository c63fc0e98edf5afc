"""Write a BENCH_<n>.json record: benchmark runs, machine and suite timings.

    python3 tools/bench_record.py --number 10 --parent ../parent-checkout \
        [--claim basis-stress] --seed 7301

Run from the repository root. The change side is a fresh local clone
of this checkout's HEAD, made in a temporary directory and removed
afterwards, so uncommitted files and the working tree's state do not
enter the comparison; the parent side runs in the checkout given. For
every workload in ``BENCHMARK.json`` the record keeps the last JSON line
of ``perfbench/run.py`` (end-to-end, ``--trace 0``, the file's
``run_seconds``) from both sides, in pairs that alternate which side runs
first, with the run's wall seconds and the CPU seconds (user plus system)
that it and the processes it waited for used. The claim workload runs
ten pairs and the others three; without ``--claim`` every workload runs
ten and the record's claim is null. Each
workload gets, per metric, the medians, each side's minimum and maximum,
the parent's interquartile range, the pairs the change won and a verdict
by the file's bound (see :func:`verdict`), and each side's median CPU
seconds per wall second over its runs; the claim workload's metrics
also get ``claim_met`` (see :func:`claim_met`). The record also holds
each side's tier-1 wall time and every acceptance criterion's call time
from ``pytest --durations``, and whether the seeded numbers moved: both
sides write ``tests/seeded_numbers.py --out`` with one BLAS thread, and
the record keeps whether the two files are byte-identical and how many
of their numbers differ (see :func:`compare_numbers`).

A run that exits non-zero, times out, prints no result line, reports
``correct: false`` or counts failed operations does not stop the record:
the run keeps its exit code and the tail of its standard error, its
metrics (if any) stay in the summary, and once the record is written the
script names every such run (workload, side, pair) and exits 1.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CLAIM_PAIRS = 10
OTHER_PAIRS = 3
# Pairs of the claim workload the change must win for a claimed gain.
CLAIM_WINS = 9
# A 14 s run with its set-up and last round ends within a minute; one
# that is still going after ten has hung.
RUN_TIMEOUT_S = 600
STDERR_TAIL_LINES = 40
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=0"]
SEEDED = ["tests/seeded_numbers.py", "--out"]
CRITERION = re.compile(
    r"^([\d.]+)s call\s+tests/test_acceptance\.py::TestCriterion(\d+)\w*::", re.M)


def _tail(text) -> str:
    # A timed-out run's output arrives as bytes even in text mode.
    if isinstance(text, bytes):
        text = text.decode(errors="replace")
    return "\n".join((text or "").splitlines()[-STDERR_TAIL_LINES:])


def _children_cpu_s() -> float:
    """User plus system seconds of every child process waited for so far,
    each with the descendants it waited for."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One end-to-end benchmark run in ``checkout``: its exit code, result
    line, wall seconds and CPU seconds, plus the tail of its standard
    error if it went wrong."""
    cpu_s, started = _children_cpu_s(), time.perf_counter()
    try:
        run = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        run, stderr = None, err.stderr
    times = {"cpu_s": round(_children_cpu_s() - cpu_s, 3),
             "wall_s": round(time.perf_counter() - started, 3)}
    if run is None:
        return {"exit_code": None, "timed_out": True, **times,
                "stderr_tail": _tail(stderr)}
    record = {"exit_code": run.returncode, **times}
    try:
        record["result"] = json.loads(run.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        pass
    if problem(record):
        record["stderr_tail"] = _tail(run.stderr)
    return record


def problem(run: dict) -> str | None:
    """Why a run cannot count as a clean measurement, or None."""
    if run.get("timed_out"):
        return f"timed out after {RUN_TIMEOUT_S} s"
    if run["exit_code"] != 0:
        return f"exit code {run['exit_code']}"
    result = run.get("result")
    if not isinstance(result, dict) or "metrics" not in result:
        return "no result line"
    if not result.get("correct", False):
        return "correct: false"
    if result.get("failed", 0):
        return f"{result['failed']} of {result.get('attempted')} operations failed"
    return None


def flagged(end_to_end: dict) -> list[str]:
    """'<workload> <side> pair <n>: <problem>' for every run with a problem."""
    return [f"{workload} {run['side']} pair {run['pair']}: {problem(run)}"
            for workload, runs in end_to_end.items() for run in runs if problem(run)]


def tier1(checkout: Path) -> dict:
    """Wall time, pytest's summary line and each criterion's call seconds."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    started = time.perf_counter()
    run = subprocess.run([sys.executable, *TIER1], cwd=checkout, env=env,
                         capture_output=True, text=True)
    wall_s = time.perf_counter() - started
    criteria: dict[str, float] = {}
    for seconds, n in CRITERION.findall(run.stdout):
        criteria[f"criterion {n}"] = round(criteria.get(f"criterion {n}", 0.0)
                                           + float(seconds), 2)
    return {"summary": run.stdout.strip().splitlines()[-1].strip("= "),
            "wall_s": round(wall_s, 1), "criterion_call_s": criteria}


def seeded_numbers(checkout: Path, dest: Path) -> dict:
    """Write ``checkout``'s seeded numbers to ``dest`` with one BLAS thread:
    the run's exit code, and the tail of its standard error if it failed."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS="1")
    try:
        run = subprocess.run([sys.executable, *SEEDED, str(dest)], cwd=checkout,
                             env=env, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        return {"exit_code": None, "stderr_tail": _tail(str(err))}
    if run.returncode != 0:
        return {"exit_code": run.returncode, "stderr_tail": _tail(run.stderr)}
    return {"exit_code": 0}


def _numbers(tree, path=()):
    """(path, value) of every number in a JSON tree; booleans and nulls
    are not numbers."""
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from _numbers(value, path + (key,))
    elif isinstance(tree, list):
        for index, value in enumerate(tree):
            yield from _numbers(value, path + (index,))
    elif isinstance(tree, (int, float)) and not isinstance(tree, bool):
        yield path, float(tree)


def compare_numbers(parent: Path, change: Path) -> dict:
    """Whether two seeded-number files are byte-identical, how many numbers
    they hold, how many differ (a number on one side only counts, nan
    equals nan) and the largest absolute difference among those on both
    sides, or None when none differs there."""
    parent_bytes, change_bytes = parent.read_bytes(), change.read_bytes()
    sides = [dict(_numbers(json.loads(data))) for data in (parent_bytes, change_bytes)]
    differing, largest = 0, None
    for path in sides[0].keys() | sides[1].keys():
        a, b = (side.get(path) for side in sides)
        if a is None or b is None:
            differing += 1
        elif a != b and not (np.isnan(a) and np.isnan(b)):
            differing += 1
            if not np.isnan(a - b):
                largest = max(largest or 0.0, abs(a - b))
    return {"byte_identical": parent_bytes == change_bytes,
            "numbers": len(sides[0].keys() | sides[1].keys()),
            "numbers_differing": differing, "largest_difference": largest}


def seeded_record(checkouts: dict[str, Path]) -> dict:
    """Both sides' seeded-number runs and, when both wrote their file,
    :func:`compare_numbers` of parent and change."""
    record = {"command": "OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python "
                         + " ".join(SEEDED) + " FILE"}
    with tempfile.TemporaryDirectory(prefix="seeded-numbers-") as scratch:
        files = {side: Path(scratch) / f"{side}.json" for side in checkouts}
        for side, checkout in checkouts.items():
            record[side] = seeded_numbers(checkout, files[side])
        if all(record[side]["exit_code"] == 0 for side in checkouts):
            record.update(compare_numbers(files["parent"], files["change"]))
    return record


def _gain(direction: str, parent: float, change: float) -> float:
    """How much better the change is than the parent, in the metric's unit."""
    return parent - change if direction == "lower" else change - parent


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def verdict(parent: list[float], change: list[float], direction: str,
            bound: float) -> str:
    """One metric of one workload, judged by its relative ``bound``:

    * ``unresolved``: the parent's runs spread wider than the bound (their
      interquartile range above ``bound`` times their median) and not
      every change run beats every parent run, so the runs cannot tell;
      also when either side has no run;
    * ``within_bound``: otherwise, the change's median is no worse than
      the parent's by more than ``bound`` times the parent's median;
    * ``beyond_bound``: otherwise.
    """
    if not parent or not change:
        return "unresolved"
    parent_median = statistics.median(parent)
    allowed = bound * abs(parent_median)
    every_run_better = all(_gain(direction, p, c) > 0 for p in parent for c in change)
    if _iqr(parent) > allowed and not every_run_better:
        return "unresolved"
    if _gain(direction, parent_median, statistics.median(change)) >= -allowed:
        return "within_bound"
    return "beyond_bound"


def claim_met(parent: list[float], change: list[float], direction: str,
              won: int) -> bool:
    """Whether a claimed gain shows: the change won at least ``CLAIM_WINS``
    complete pairs, and its median beats the parent's by more than the
    parent's interquartile range."""
    if won < CLAIM_WINS or not parent or not change:
        return False
    gain = _gain(direction, statistics.median(parent), statistics.median(change))
    return gain > _iqr(parent)


def summarize(runs: list[dict], end_to_end: list[dict], claim: bool = False) -> dict:
    """Each run's outcome, then per metric of ``end_to_end`` (the
    ``BENCHMARK.json`` entries, with ``name``, ``better`` and ``bound``):
    medians, each side's range, the parent's quartile spread, the pairs the
    change won, the :func:`verdict` and, for the claim workload,
    :func:`claim_met`. The ranges show a bimodal metric without reading
    every run. A run without metrics is left out of them, and a pair
    missing a side is not counted as won or lost, so
    ``change_better_pairs`` counts complete pairs only. ``cpu_per_wall``
    holds each side's median of CPU over wall seconds, for runs that
    recorded both."""
    out = {"runs": []}
    sides = {"parent": {}, "change": {}}
    for run in runs:
        result = run.get("result") or {}
        out["runs"].append({"side": run["side"], "pair": run["pair"],
                            **{key: result.get(key) for key in
                               ("correct", "attempted", "failed")},
                            "problem": problem(run)})
        if "metrics" in result:
            sides[run["side"]][run["pair"]] = result["metrics"]
    for metric in end_to_end:
        name, direction = metric["name"], metric["better"]
        values = {side: [m[name]["value"] for m in by_pair.values()]
                  for side, by_pair in sides.items()}
        pairs = sides["parent"].keys() & sides["change"].keys()
        won = sum(_gain(direction, sides["parent"][p][name]["value"],
                        sides["change"][p][name]["value"]) > 0 for p in pairs)
        summary = {}
        for side, side_values in values.items():
            if side_values:
                summary[f"{side}_median"] = round(statistics.median(side_values), 4)
                summary[f"{side}_min"] = round(min(side_values), 4)
                summary[f"{side}_max"] = round(max(side_values), 4)
        if len(values["parent"]) > 1:
            summary["parent_iqr"] = round(_iqr(values["parent"]), 4)
        summary["change_better_pairs"] = f"{won}/{len(pairs)}"
        summary["verdict"] = verdict(values["parent"], values["change"], direction,
                                     metric["bound"])
        if claim:
            summary["claim_met"] = claim_met(values["parent"], values["change"],
                                             direction, won)
        out[name] = summary
    ratios = {side: [run["cpu_s"] / run["wall_s"] for run in runs
                     if run["side"] == side and run.get("wall_s")]
              for side in sides}
    out["cpu_per_wall"] = {side: round(statistics.median(values), 3)
                           for side, values in ratios.items() if values}
    return out


def revision(checkout: Path) -> str:
    run = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout,
                         capture_output=True, text=True)
    return run.stdout.strip() or "unknown"


@contextlib.contextmanager
def clean_clone(checkout: Path):
    """Yield a fresh clone of ``checkout``'s HEAD commit, made from the
    local repository alone in a temporary directory that is removed on
    exit."""
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, check=True,
                          capture_output=True, text=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="bench-record-") as scratch:
        clone = Path(scratch) / "change"
        subprocess.run(["git", "clone", "--quiet", "--no-checkout", str(checkout),
                        str(clone)], check=True)
        subprocess.run(["git", "checkout", "--quiet", "--detach", head], cwd=clone,
                       check=True)
        yield clone


def measure(checkouts: dict[str, Path], spec: dict, claim: str | None,
            seed: int) -> dict:
    """The record of both sides' benchmark runs and tier-1 timings."""
    record = {
        "what": f"perfbench/run.py --seconds {spec['run_seconds']} --trace 0, last "
                "JSON lines; pairs alternate which side runs first",
        "revisions": {side: revision(path) for side, path in checkouts.items()},
        "machine": {"cores": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(), "numpy": np.__version__},
        "seed": seed,
        "claim": claim,
        "end_to_end": {},
        "summary": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        pairs = CLAIM_PAIRS if claim in (None, workload) else OTHER_PAIRS
        runs = []
        for pair in range(1, pairs + 1):
            order = list(checkouts) if pair % 2 else list(reversed(checkouts))
            for side in order:
                run = {"side": side, "pair": pair,
                       **run_once(checkouts[side], workload, seed,
                                  spec["run_seconds"])}
                runs.append(run)
                print(f"{workload} pair {pair} {side}: "
                      f"{problem(run) or json.dumps(run['result']['metrics'])}",
                      file=sys.stderr)
        record["end_to_end"][workload] = runs
        record["summary"][workload] = summarize(runs, spec["end_to_end"],
                                                claim=claim == workload)
    record["tier1"] = {"command": "PYTHONPATH=src python " + " ".join(TIER1),
                       **{side: tier1(path) for side, path in checkouts.items()}}
    record["seeded_numbers"] = seeded_record(checkouts)
    return record


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--number", type=int, required=True, help="n of BENCH_<n>.json")
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit to pair against")
    parser.add_argument("--claim", default=None,
                        choices=[w["name"] for w in spec["workloads"]],
                        help="workload the change claims (default: none, and "
                             "every workload runs the claim's pairs)")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    if revision(ROOT).endswith("-dirty"):
        print("the working tree has uncommitted changes; the record measures HEAD",
              file=sys.stderr)
    with clean_clone(ROOT) as clone:
        record = measure({"change": clone, "parent": args.parent.resolve()}, spec,
                         args.claim, args.seed)
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.name}")
    for workload, summary in record["summary"].items():
        for metric in spec["end_to_end"]:
            result = summary[metric["name"]]
            claimed = ("" if "claim_met" not in result else
                       ", claim met" if result["claim_met"] else ", claim not met")
            print(f"{workload} {metric['name']}: {result['verdict']}{claimed}",
                  file=sys.stderr)
    seeded = record["seeded_numbers"]
    if "byte_identical" not in seeded:
        failed = [side for side in ("parent", "change") if seeded[side]["exit_code"] != 0]
        print(f"seeded numbers: not compared, {' and '.join(failed)} run failed",
              file=sys.stderr)
    elif seeded["byte_identical"]:
        print(f"seeded numbers: byte-identical ({seeded['numbers']} numbers)",
              file=sys.stderr)
    else:
        print(f"seeded numbers: {seeded['numbers_differing']} of {seeded['numbers']} "
              f"differ, largest by {seeded['largest_difference']}", file=sys.stderr)
    bad = flagged(record["end_to_end"])
    for line in bad:
        print(f"bad run: {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
