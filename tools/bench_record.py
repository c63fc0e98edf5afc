"""Write a BENCH_<n>.json record: benchmark runs, machine and suite timings.

    python3 tools/bench_record.py --number 10 --parent ../parent-checkout \
        --claim basis-stress --seed 7301

Run from the repository root. For every workload in ``BENCHMARK.json``
the record keeps the last JSON line of ``perfbench/run.py`` (end-to-end,
``--trace 0``, the file's ``run_seconds``), run from this checkout and
from the parent's, in pairs that alternate which side runs first. The
claim workload runs ten pairs and the others three. Each workload gets
the medians, the parent's interquartile range and the pairs the change
won per metric. The record also holds each side's tier-1 wall time and
every acceptance criterion's call time from ``pytest --durations``.
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
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=0"]
CRITERION = re.compile(
    r"^([\d.]+)s call\s+tests/test_acceptance\.py::TestCriterion(\d+)\w*::", re.M)


def last_json_line(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one end-to-end benchmark run in ``checkout``."""
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(run.stdout.strip().splitlines()[-1])


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
    """Per metric: medians, the parent's quartile spread, pairs the change won."""
    sides = {"parent": {}, "change": {}}
    for run in runs:
        sides[run["side"]][run["pair"]] = run["result"]["metrics"]
    out = {}
    for name, direction in better.items():
        change = [m[name]["value"] for m in sides["change"].values()]
        parent = [m[name]["value"] for m in sides["parent"].values()]
        q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
        sign = 1 if direction == "lower" else -1
        won = sum(sign * (sides["change"][p][name]["value"] - m[name]["value"]) < 0
                  for p, m in sides["parent"].items())
        out[name] = {"parent_median": round(statistics.median(parent), 4),
                     "parent_iqr": round(q3 - q1, 4),
                     "change_median": round(statistics.median(change), 4),
                     "change_better_pairs": f"{won}/{len(parent)}"}
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
    parser.add_argument("--claim", required=True,
                        choices=[w["name"] for w in spec["workloads"]],
                        help="workload the change claims")
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
        pairs = CLAIM_PAIRS if workload == args.claim else OTHER_PAIRS
        runs = []
        for pair in range(1, pairs + 1):
            order = list(checkouts) if pair % 2 else list(reversed(checkouts))
            for side in order:
                result = last_json_line(checkouts[side], workload, args.seed,
                                        spec["run_seconds"])
                runs.append({"side": side, "pair": pair, "result": result})
                print(f"{workload} pair {pair} {side}: "
                      f"{json.dumps(result['metrics'])}", file=sys.stderr)
        record["end_to_end"][workload] = runs
        record["summary"][workload] = summarize(runs, better)
    record["tier1"] = {"command": "PYTHONPATH=src python " + " ".join(TIER1),
                       **{side: tier1(path) for side, path in checkouts.items()}}
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
