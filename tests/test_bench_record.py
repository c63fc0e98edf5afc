"""tools/bench_record.py: summaries and flags from synthetic runs."""
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

BETTER = {"op_s": "lower", "peak_rss_mb": "lower"}


def run(side, pair, op_s, rss, correct=True, failed=0, exit_code=0):
    metrics = {"op_s": {"value": op_s, "unit": "s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return {"side": side, "pair": pair, "exit_code": exit_code,
            "result": {"correct": correct, "attempted": 10, "failed": failed,
                       "metrics": metrics}}


class TestSummarize:
    def test_medians_spread_and_pairs_won(self):
        runs = [run("parent", 1, 1.0, 100.0), run("change", 1, 0.8, 90.0),
                run("parent", 2, 1.2, 100.0), run("change", 2, 1.3, 91.0),
                run("parent", 3, 1.1, 102.0), run("change", 3, 0.9, 89.0)]
        summary = bench_record.summarize(runs, BETTER)
        assert summary["op_s"] == {
            "parent_median": 1.1, "parent_min": 1.0, "parent_max": 1.2,
            "change_median": 0.9, "change_min": 0.8, "change_max": 1.3,
            "parent_iqr": 0.1, "change_better_pairs": "2/3"}
        assert summary["peak_rss_mb"]["change_better_pairs"] == "3/3"
        assert summary["runs"][1] == {"side": "change", "pair": 1, "correct": True,
                                      "attempted": 10, "failed": 0, "problem": None}

    def test_a_run_without_metrics_leaves_its_pair_out(self):
        runs = [run("parent", 1, 1.0, 100.0), run("change", 1, 0.8, 90.0),
                run("parent", 2, 1.2, 100.0),
                {"side": "change", "pair": 2, "exit_code": None, "timed_out": True,
                 "stderr_tail": "..."}]
        summary = bench_record.summarize(runs, BETTER)
        assert summary["op_s"]["change_better_pairs"] == "1/1"
        assert summary["op_s"]["change_median"] == 0.8
        assert summary["op_s"]["parent_median"] == 1.1
        assert summary["runs"][3] == {
            "side": "change", "pair": 2, "correct": None, "attempted": None,
            "failed": None, "problem": f"timed out after {bench_record.RUN_TIMEOUT_S} s"}

    def test_failed_and_incorrect_runs_are_recorded(self):
        runs = [run("parent", 1, 1.0, 100.0, failed=2), run("change", 1, 0.8, 90.0,
                                                            correct=False)]
        outcomes = bench_record.summarize(runs, BETTER)["runs"]
        assert [(r["correct"], r["failed"], r["problem"]) for r in outcomes] == [
            (True, 2, "2 of 10 operations failed"), (False, 0, "correct: false")]


class TestFlags:
    def test_names_workload_side_and_pair(self):
        end_to_end = {
            "desk-quote": [run("change", 1, 0.4, 70.0), run("parent", 1, 0.4, 100.0,
                                                           exit_code=1)],
            "strike-sweep": [run("parent", 3, 2.0, 160.0, correct=False)],
        }
        assert bench_record.flagged(end_to_end) == [
            "desk-quote parent pair 1: exit code 1",
            "strike-sweep parent pair 3: correct: false"]

    def test_clean_runs_are_not_flagged(self):
        assert bench_record.flagged({"desk-quote": [run("change", 1, 0.4, 70.0)]}) == []


class TestRunOnce:
    @staticmethod
    def checkout(tmp_path, body):
        (tmp_path / "perfbench").mkdir()
        (tmp_path / "perfbench" / "run.py").write_text(body)
        return tmp_path

    def test_keeps_exit_code_and_stderr_tail(self, tmp_path):
        lines = "".join(f"print('line {i}', file=sys.stderr)\n" for i in range(100))
        checkout = self.checkout(tmp_path, f"import sys\n{lines}sys.exit(3)\n")
        got = bench_record.run_once(checkout, "desk-quote", 1, 1.0)
        assert got["exit_code"] == 3
        assert "result" not in got
        tail = got["stderr_tail"].splitlines()
        assert tail[-1] == "line 99"
        assert len(tail) == bench_record.STDERR_TAIL_LINES

    def test_incorrect_result_keeps_its_metrics(self, tmp_path):
        checkout = self.checkout(tmp_path, (
            "import json, sys\nprint('check failed', file=sys.stderr)\n"
            "print(json.dumps({'correct': False, 'attempted': 3, 'failed': 0, "
            "'metrics': {}}))\n"))
        got = bench_record.run_once(checkout, "desk-quote", 1, 1.0)
        assert got["exit_code"] == 0
        assert got["result"]["correct"] is False
        assert got["stderr_tail"] == "check failed"

    def test_clean_run_keeps_no_stderr(self, tmp_path):
        checkout = self.checkout(tmp_path, (
            "import json, sys\nprint('progress', file=sys.stderr)\n"
            "print(json.dumps({'correct': True, 'attempted': 3, 'failed': 0, "
            "'metrics': {}}))\n"))
        got = bench_record.run_once(checkout, "desk-quote", 1, 1.0)
        assert got == {"exit_code": 0, "result": {"correct": True, "attempted": 3,
                                                  "failed": 0, "metrics": {}}}

    def test_timeout(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bench_record, "RUN_TIMEOUT_S", 0.5)
        checkout = self.checkout(tmp_path, (
            "import sys, time\nprint('started', file=sys.stderr, flush=True)\n"
            "time.sleep(30)\n"))
        got = bench_record.run_once(checkout, "desk-quote", 1, 1.0)
        assert got["timed_out"] and got["exit_code"] is None
        assert bench_record.problem(got) == "timed out after 0.5 s"


class TestMain:
    @pytest.mark.parametrize("claim, pairs", [
        (None, {"a": bench_record.CLAIM_PAIRS, "b": bench_record.CLAIM_PAIRS}),
        ("b", {"a": bench_record.OTHER_PAIRS, "b": bench_record.CLAIM_PAIRS})])
    def test_pairs_per_workload_and_recorded_claim(self, tmp_path, monkeypatch,
                                                  claim, pairs):
        change = tmp_path / "change"
        change.mkdir()
        (change / "BENCHMARK.json").write_text(json.dumps({
            "run_seconds": 1, "workloads": [{"name": "a"}, {"name": "b"}],
            "end_to_end": [{"name": "op_s", "better": "lower"},
                           {"name": "peak_rss_mb", "better": "lower"}]}))
        calls = []

        def run_once(checkout, workload, seed, seconds):
            calls.append(workload)
            return {"exit_code": 0, "result": run("", 0, 1.0, 100.0)["result"]}

        monkeypatch.setattr(bench_record, "ROOT", change)
        monkeypatch.setattr(bench_record, "run_once", run_once)
        monkeypatch.setattr(bench_record, "tier1", lambda checkout: {})
        monkeypatch.setattr(bench_record, "revision", lambda checkout: "rev")
        argv = ["--number", "7", "--parent", str(tmp_path), "--seed", "3"]
        assert bench_record.main(argv + (["--claim", claim] if claim else [])) == 0
        record = json.loads((change / "BENCH_7.json").read_text())
        assert record["claim"] == claim
        for workload, n in pairs.items():
            runs = record["end_to_end"][workload]
            assert [(r["pair"], r["side"]) for r in runs] == [
                (p, side) for p in range(1, n + 1)
                for side in (("change", "parent") if p % 2 else ("parent", "change"))]
            assert record["summary"][workload]["op_s"]["change_better_pairs"] == f"0/{n}"
        assert calls == [w for w, n in pairs.items() for _ in range(2 * n)]
