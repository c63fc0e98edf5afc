"""Write a BENCH_<n>.json record: benchmark runs, machine and suite timings.

    python3 tools/bench_record.py --number 10 --parent ../parent-checkout \
        [--claim basis-stress] --seed 7301

Run from the repository root. For every workload in ``BENCHMARK.json``
the record keeps the last JSON line of ``perfbench/run.py`` (end-to-end,
``--trace 0``, the file's ``run_seconds``), run from this checkout and
from the parent's, in pairs that alternate which side runs first. The
claim workload runs ten pairs and the others three; without ``--claim``
every workload runs ten and the record's claim is null. Each workload gets,
per metric, the medians, each side's minimum and maximum, the parent's
interquartile range and the pairs the change won. The record also holds
each side's tier-1 wall time and every acceptance criterion's call time
from ``pytest --durations``.

A run that exits non-zero, times out, prints no result line, reports
``correct: false`` or counts failed operations does not stop the record:
the run keeps its exit code and the tail of its standard error, its
metrics (if any) stay in the summary, and once the record is written the
script names every such run (workload, side, pair) and exits 1.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CLAIM_PAIRS = 10
OTHER_PAIRS = 3
# A 14 s run with its set-up and last round ends within a minute; one
# that is still going after ten has hung.
RUN_TIMEOUT_S = 600
STDERR_TAIL_LINES = 40
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=0"]
CRITERION = re.compile(
    r"^([\d.]+)s call\s+tests/test_acceptance\.py::TestCriterion(\d+)\w*::", re.M)


def _tail(text) -> str:
    # A timed-out run's output arrives as bytes even in text mode.
    if isinstance(text, bytes):
        text = text.decode(errors="replace")
    return "\n".join((text or "").splitlines()[-STDERR_TAIL_LINES:])


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One end-to-end benchmark run in ``checkout``: its exit code and
    result line, plus the tail of its standard error if it went wrong."""
    try:
        run = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        return {"exit_code": None, "timed_out": True, "stderr_tail": _tail(err.stderr)}
    record = {"exit_code": run.returncode}
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


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Each run's outcome, then per metric: medians, each side's range, the
    parent's quartile spread and the pairs the change won. The ranges show
    a bimodal metric without reading every run. A run without metrics is
    left out of them, and a pair missing a side is not counted as won or
    lost, so ``change_better_pairs`` counts complete pairs only."""
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
    for name, direction in better.items():
        values = {side: [m[name]["value"] for m in by_pair.values()]
                  for side, by_pair in sides.items()}
        pairs = sides["parent"].keys() & sides["change"].keys()
        sign = 1 if direction == "lower" else -1
        won = sum(sign * (sides["change"][p][name]["value"]
                          - sides["parent"][p][name]["value"]) < 0 for p in pairs)
        summary = {}
        for side, side_values in values.items():
            if side_values:
                summary[f"{side}_median"] = round(statistics.median(side_values), 4)
                summary[f"{side}_min"] = round(min(side_values), 4)
                summary[f"{side}_max"] = round(max(side_values), 4)
        if len(values["parent"]) > 1:
            q1, _, q3 = statistics.quantiles(values["parent"], n=4, method="inclusive")
            summary["parent_iqr"] = round(q3 - q1, 4)
        summary["change_better_pairs"] = f"{won}/{len(pairs)}"
        out[name] = summary
    return out


def revision(checkout: Path) -> str:
    run = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout,
                         capture_output=True, text=True)
    return run.stdout.strip() or "unknown"


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

    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    checkouts = {"change": ROOT, "parent": args.parent.resolve()}
    record = {
        "what": f"perfbench/run.py --seconds {spec['run_seconds']} --trace 0, last "
                "JSON lines; pairs alternate which side runs first",
        "revisions": {side: revision(path) for side, path in checkouts.items()},
        "machine": {"cores": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(), "numpy": np.__version__},
        "seed": args.seed,
        "claim": args.claim,
        "end_to_end": {},
        "summary": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        pairs = CLAIM_PAIRS if args.claim in (None, workload) else OTHER_PAIRS
        runs = []
        for pair in range(1, pairs + 1):
            order = list(checkouts) if pair % 2 else list(reversed(checkouts))
            for side in order:
                run = {"side": side, "pair": pair,
                       **run_once(checkouts[side], workload, args.seed,
                                  spec["run_seconds"])}
                runs.append(run)
                print(f"{workload} pair {pair} {side}: "
                      f"{problem(run) or json.dumps(run['result']['metrics'])}",
                      file=sys.stderr)
        record["end_to_end"][workload] = runs
        record["summary"][workload] = summarize(runs, better)
    record["tier1"] = {"command": "PYTHONPATH=src python " + " ".join(TIER1),
                       **{side: tier1(path) for side, path in checkouts.items()}}
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.name}")
    bad = flagged(record["end_to_end"])
    for line in bad:
        print(f"bad run: {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
