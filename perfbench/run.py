"""Benchmark of the qlbs pricer: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload desk-quote --seed 1 --seconds 10 --trace 0

Run from the repository root. The program is imported from ``src/``; a
checkout without it is an error. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
rounds run twice on the same inputs, untraced and traced, and the metrics
are the per-layer ones from the traced pass. See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
# Cold imports per run; set-up time is their median.
COLD_IMPORTS = 3
CHILD_TIMEOUT_S = 60

# BLAS threads are capped at the cores this process may use; the cold
# imports inherit the cap.
_CORES = str(len(os.sched_getaffinity(0)))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = _CORES

from spans import PER_LAYER, Tracer, import_times  # noqa: E402
from workloads import WORKLOADS, Tally  # noqa: E402

END_TO_END = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          check=True)


def cold_import_s() -> float:
    """Median seconds of ``import qlbs`` in fresh interpreters.

    Called after the in-process import, which has written the bytecode
    cache as any user's first run does.
    """
    probe = ("import time; t = time.perf_counter(); import qlbs; "
             "print(time.perf_counter() - t); print(qlbs.__file__)")
    times = []
    for _ in range(COLD_IMPORTS):
        seconds, where = _python("-c", probe).stdout.split()
        if not Path(where).resolve().is_relative_to(SRC):
            raise SystemExit(f"cold import loaded qlbs from {where}, not {SRC}")
        times.append(float(seconds))
    return statistics.median(times)


def import_qlbs():
    if not (SRC / "qlbs" / "__init__.py").is_file():
        raise SystemExit(f"no qlbs sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qlbs
    import qlbs.cli  # noqa: F401  (the CLI is not imported by the package)

    if not Path(qlbs.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported qlbs from {qlbs.__file__}, not {SRC}")
    return qlbs


def run_rounds(workload, rng, seconds: float, tracer: Tracer | None):
    """Repeat whole rounds until ``seconds`` have passed.

    With a tracer each round runs twice on the same inputs, untraced then
    traced; returns (untraced tally, traced tally or None).
    """
    plain = Tally()
    traced = Tally() if tracer else None
    started = time.perf_counter()
    while True:
        inputs = workload.draw(rng)
        workload.run(inputs, plain)
        if tracer:
            tracer.install()
            try:
                workload.run(inputs, traced)
            finally:
                tracer.uninstall()
        if time.perf_counter() - started >= seconds:
            return plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    qlbs = import_qlbs()
    setup_s = cold_import_s()
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](qlbs, OUT)
    tracer = Tracer() if args.trace else None
    plain, traced = run_rounds(workload, random.Random(args.seed), args.seconds, tracer)

    if not plain.op_s or (traced and not traced.op_s):
        raise SystemExit(f"{args.workload}: no operation succeeded")
    op_s = statistics.median(plain.op_s)
    tallies = [plain] + ([traced] if traced else [])
    problems = [p for t in tallies for p in t.problems]
    for problem in problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)

    print(f"{args.workload} seed {args.seed}: {plain.attempted} operations, "
          f"{plain.failed} failed, {len(plain.problems)} check failures")
    print(f"  op_s {op_s:.4f} (median of {len(plain.op_s)}), setup_s {setup_s:.4f}")
    for name, value in plain.summary().items():
        print(f"  {name} {value:.4f}")

    if tracer:
        metrics = tracer.per_layer(len(traced.op_s))
        metrics.update(import_times(_python("-X", "importtime", "-c", "import qlbs").stderr))
        metrics["trace.op_s"] = statistics.median(traced.op_s)
        metrics["trace.overhead_s"] = metrics["trace.op_s"] - op_s
        spans_file = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_file)
        print(f"  {len(tracer.spans)} spans written to {spans_file.relative_to(ROOT)}; "
              f"tracing overhead {metrics['trace.overhead_s']:+.4f} s per operation")
        for error in sorted(tracer.count_errors):
            print(f"  count not taken: {error}", file=sys.stderr)
        for name in sorted(tracer.missing):
            print(f"  not traced, qlbs no longer has it: {name}", file=sys.stderr)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": setup_s,
            "op_s": op_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    result = {
        "correct": not problems,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
