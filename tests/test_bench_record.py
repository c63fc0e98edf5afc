"""tools/bench_record.py: summaries and flags from synthetic runs."""
import contextlib
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

END_TO_END = [{"name": "op_s", "better": "lower", "bound": 0.25},
              {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]


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
        summary = bench_record.summarize(runs, END_TO_END)
        assert summary["op_s"] == {
            "parent_median": 1.1, "parent_min": 1.0, "parent_max": 1.2,
            "change_median": 0.9, "change_min": 0.8, "change_max": 1.3,
            "parent_iqr": 0.1, "change_better_pairs": "2/3",
            "verdict": "within_bound"}
        assert summary["peak_rss_mb"]["change_better_pairs"] == "3/3"
        assert summary["runs"][1] == {"side": "change", "pair": 1, "correct": True,
                                      "attempted": 10, "failed": 0, "problem": None}

    def test_a_run_without_metrics_leaves_its_pair_out(self):
        runs = [run("parent", 1, 1.0, 100.0), run("change", 1, 0.8, 90.0),
                run("parent", 2, 1.2, 100.0),
                {"side": "change", "pair": 2, "exit_code": None, "timed_out": True,
                 "stderr_tail": "..."}]
        summary = bench_record.summarize(runs, END_TO_END)
        assert summary["op_s"]["change_better_pairs"] == "1/1"
        assert summary["op_s"]["change_median"] == 0.8
        assert summary["op_s"]["parent_median"] == 1.1
        assert summary["runs"][3] == {
            "side": "change", "pair": 2, "correct": None, "attempted": None,
            "failed": None, "problem": f"timed out after {bench_record.RUN_TIMEOUT_S} s"}

    def test_failed_and_incorrect_runs_are_recorded(self):
        runs = [run("parent", 1, 1.0, 100.0, failed=2), run("change", 1, 0.8, 90.0,
                                                            correct=False)]
        outcomes = bench_record.summarize(runs, END_TO_END)["runs"]
        assert [(r["correct"], r["failed"], r["problem"]) for r in outcomes] == [
            (True, 2, "2 of 10 operations failed"), (False, 0, "correct: false")]


    def test_cpu_per_wall_second_medians(self):
        runs = [{**run(side, pair, 1.0, 100.0), "cpu_s": cpu, "wall_s": 10.0}
                for side, pair, cpu in [("parent", 1, 19.0), ("parent", 2, 20.0),
                                        ("parent", 3, 16.0), ("change", 1, 10.0),
                                        ("change", 2, 11.0), ("change", 3, 10.5)]]
        runs.append(run("change", 4, 1.0, 100.0))  # recorded without seconds
        summary = bench_record.summarize(runs, END_TO_END)
        assert summary["cpu_per_wall"] == {"parent": 1.9, "change": 1.05}

    def test_claim_met_only_on_the_claim_workload(self):
        runs = [run(side, p, 1.0, 100.0 if side == "parent" else 80.0)
                for p in range(1, 11) for side in ("parent", "change")]
        assert "claim_met" not in bench_record.summarize(runs, END_TO_END)["op_s"]
        summary = bench_record.summarize(runs, END_TO_END, claim=True)
        assert summary["peak_rss_mb"]["claim_met"] is True
        assert summary["op_s"]["claim_met"] is False  # every pair a tie


def spread(median, half_width):
    """Ten runs, evenly spaced, with that median and range."""
    return [median - half_width + 2 * half_width * i / 9 for i in range(10)]


class TestVerdict:
    # Lower is better; the bound is 10% of the parent's median of 100.
    @pytest.mark.parametrize("change_median, expected", [
        (109.0, "within_bound"), (90.0, "within_bound"), (111.0, "beyond_bound")])
    def test_median_against_the_bound(self, change_median, expected):
        # The parent's IQR is 1.1, well inside the bound.
        parent, change = spread(100.0, 1.0), spread(change_median, 1.0)
        assert bench_record.verdict(parent, change, "lower", 0.1) == expected

    def test_higher_is_better(self):
        assert bench_record.verdict(spread(100.0, 1.0), spread(89.0, 1.0),
                                    "higher", 0.1) == "beyond_bound"
        assert bench_record.verdict(spread(100.0, 1.0), spread(111.0, 1.0),
                                    "higher", 0.1) == "within_bound"

    def test_parent_spread_wider_than_the_bound_is_unresolved(self):
        # IQR 16.7 against a bound of 10: overlapping runs cannot tell,
        # whichever side the change's median falls.
        parent = spread(100.0, 30.0)
        for change_median in (95.0, 100.0, 120.0):
            assert bench_record.verdict(parent, spread(change_median, 30.0),
                                        "lower", 0.1) == "unresolved"

    def test_wide_parent_spread_resolved_when_every_change_run_wins(self):
        parent = spread(100.0, 30.0)
        assert bench_record.verdict(parent, spread(60.0, 5.0), "lower",
                                    0.1) == "within_bound"
        # One change run level with the parent's best leaves it unresolved.
        assert bench_record.verdict(parent, spread(60.0, 5.0) + [70.0], "lower",
                                    0.1) == "unresolved"

    def test_a_side_without_runs_is_unresolved(self):
        assert bench_record.verdict([100.0], [], "lower", 0.1) == "unresolved"


class TestClaimMet:
    def test_nine_wins_and_a_median_gap_wider_than_the_iqr(self):
        parent = spread(100.0, 1.0)  # IQR 1.1
        assert bench_record.claim_met(parent, spread(98.0, 1.0), "lower", 9)
        assert not bench_record.claim_met(parent, spread(98.0, 1.0), "lower", 8)

    def test_median_gap_within_the_iqr(self):
        parent = spread(100.0, 1.0)
        assert not bench_record.claim_met(parent, spread(99.0, 1.0), "lower", 10)
        assert not bench_record.claim_met(parent, spread(102.0, 1.0), "lower", 10)

    def test_higher_is_better(self):
        parent = spread(100.0, 1.0)
        assert bench_record.claim_met(parent, spread(102.0, 1.0), "higher", 9)
        assert not bench_record.claim_met(parent, spread(98.0, 1.0), "higher", 10)


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
        assert got == {"exit_code": 0, "cpu_s": got["cpu_s"], "wall_s": got["wall_s"],
                       "result": {"correct": True, "attempted": 3, "failed": 0,
                                  "metrics": {}}}

    def test_cpu_and_wall_seconds(self, tmp_path):
        # 0.3 s of computing, then 0.4 s of sleep.
        checkout = self.checkout(tmp_path, (
            "import json, time\n"
            "while time.process_time() < 0.3:\n    pass\n"
            "time.sleep(0.4)\n"
            "print(json.dumps({'correct': True, 'attempted': 1, 'failed': 0, "
            "'metrics': {}}))\n"))
        got = bench_record.run_once(checkout, "desk-quote", 1, 1.0)
        assert 0.3 <= got["cpu_s"] < got["wall_s"] - 0.3

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
        change, clone = tmp_path / "change", tmp_path / "clone"
        change.mkdir()
        (change / "BENCHMARK.json").write_text(json.dumps({
            "run_seconds": 1, "workloads": [{"name": "a"}, {"name": "b"}],
            "end_to_end": END_TO_END}))
        calls = []

        def run_once(checkout, workload, seed, seconds):
            calls.append((checkout, workload))
            return {"exit_code": 0, "result": run("", 0, 1.0, 100.0)["result"]}

        @contextlib.contextmanager
        def clean_clone(checkout):
            assert checkout == change
            yield clone

        monkeypatch.setattr(bench_record, "ROOT", change)
        monkeypatch.setattr(bench_record, "run_once", run_once)
        monkeypatch.setattr(bench_record, "clean_clone", clean_clone)
        monkeypatch.setattr(bench_record, "tier1", lambda checkout: {})
        monkeypatch.setattr(bench_record, "revision", lambda checkout: checkout.name)
        argv = ["--number", "7", "--parent", str(tmp_path), "--seed", "3"]
        assert bench_record.main(argv + (["--claim", claim] if claim else [])) == 0
        record = json.loads((change / "BENCH_7.json").read_text())
        assert record["claim"] == claim
        assert record["revisions"] == {"change": "clone", "parent": tmp_path.name}
        for workload, n in pairs.items():
            runs = record["end_to_end"][workload]
            assert [(r["pair"], r["side"]) for r in runs] == [
                (p, side) for p in range(1, n + 1)
                for side in (("change", "parent") if p % 2 else ("parent", "change"))]
            op_s = record["summary"][workload]["op_s"]
            assert op_s["change_better_pairs"] == f"0/{n}"
            assert op_s["verdict"] == "within_bound"
            assert ("claim_met" in op_s) == (workload == claim)
        assert [w for _, w in calls] == [w for w, n in pairs.items() for _ in range(2 * n)]
        assert [c for c, _ in calls[:2]] == [clone, tmp_path]


class TestColdImports:
    @staticmethod
    def checkouts(tmp_path, delays):
        """Fake checkouts whose ``import qlbs`` sleeps for the given seconds
        and appends the side's name to one log."""
        log = tmp_path / "order.log"
        checkouts = {}
        for side, delay in delays.items():
            package = tmp_path / side / "src" / "qlbs"
            package.mkdir(parents=True)
            (package / "__init__.py").write_text(
                f"import time\ntime.sleep({delay})\nopen({str(log)!r}, 'a').write('{side} ')\n")
            checkouts[side] = tmp_path / side
        return checkouts, log

    def test_alternating_readings_with_median_and_spread(self, tmp_path):
        checkouts, log = self.checkouts(tmp_path, {"change": 0.0, "parent": 0.05})
        got = bench_record.cold_imports(checkouts, runs=3)
        assert log.read_text().split() == ["change", "parent", "parent", "change",
                                           "change", "parent"]
        assert got["runs"] == 3
        for side in ("change", "parent"):
            readings = got[side]["readings_s"]
            assert len(readings) == 3
            assert got[side]["median_s"] == round(sorted(readings)[1], 4)
            assert got[side]["iqr_s"] >= 0.0
        assert got["change"]["median_s"] < 0.05 <= got["parent"]["median_s"]

    def test_a_failing_side_keeps_its_error_and_stops(self, tmp_path):
        checkouts, log = self.checkouts(tmp_path, {"change": 0.0})
        checkouts["parent"] = tmp_path / "no-checkout"
        got = bench_record.cold_imports(checkouts, runs=3)
        assert len(got["change"]["readings_s"]) == 3
        assert "No module named 'qlbs'" in got["parent"]["error"]
        assert log.read_text().split() == ["change"] * 3


class TestCleanClone:
    def test_clones_head_without_the_working_tree_and_removes_it(self, tmp_path):
        repo = tmp_path / "repo"
        repo.mkdir()

        def git(*args):
            return subprocess.run(["git", "-c", "user.name=bench", "-c",
                                   "user.email=bench@example.com", *args], cwd=repo,
                                  check=True, capture_output=True, text=True).stdout
        git("init", "--quiet")
        (repo / "file.txt").write_text("committed\n")
        git("add", "file.txt")
        git("commit", "--quiet", "-m", "one")
        (repo / "file.txt").write_text("edited\n")
        (repo / "untracked.txt").write_text("new\n")
        with bench_record.clean_clone(repo) as clone:
            assert (clone / "file.txt").read_text() == "committed\n"
            assert not (clone / "untracked.txt").exists()
            assert bench_record.revision(clone) == git("rev-parse", "--short",
                                                       "HEAD").strip()
            assert bench_record.revision(repo).endswith("-dirty")
        assert not clone.exists()


class TestSeededNumbers:
    PARENT = {"scenarios": {"single": [{"price": 4.49, "hedge": -0.41, "error": "",
                                        "tw_mean": None}]},
              "golden": {"price": 5.0, "phi": [[1.0, 2.0], [3.0, float("nan")]]}}

    @staticmethod
    def write(path, tree, indent=1):
        path.write_text(json.dumps(tree, indent=indent) + "\n")
        return path

    def test_byte_identical_files(self, tmp_path):
        parent = self.write(tmp_path / "parent.json", self.PARENT)
        change = self.write(tmp_path / "change.json", self.PARENT)
        assert bench_record.compare_numbers(parent, change) == {
            "byte_identical": True, "numbers": 7, "numbers_differing": 0,
            "largest_difference": None}

    def test_moved_numbers_are_counted(self, tmp_path):
        moved = json.loads(json.dumps(self.PARENT))
        moved["scenarios"]["single"][0]["price"] = 4.49 + 1e-12
        moved["golden"]["phi"][0][1] = 2.5
        moved["golden"]["extra"] = 1.0  # on one side only
        parent = self.write(tmp_path / "parent.json", self.PARENT)
        change = self.write(tmp_path / "change.json", moved)
        got = bench_record.compare_numbers(parent, change)
        assert got == {"byte_identical": False, "numbers": 8, "numbers_differing": 3,
                       "largest_difference": 0.5}

    def test_same_numbers_in_other_bytes(self, tmp_path):
        parent = self.write(tmp_path / "parent.json", self.PARENT)
        change = self.write(tmp_path / "change.json", self.PARENT, indent=2)
        got = bench_record.compare_numbers(parent, change)
        assert not got["byte_identical"] and got["numbers_differing"] == 0

    def test_both_sides_run_with_one_blas_thread(self, tmp_path):
        # Each fake checkout writes its file only when run as the recipe says.
        script = ("import json, os, sys\n"
                  "assert os.environ['OPENBLAS_NUM_THREADS'] == '1'\n"
                  "assert sys.argv[1] == '--out'\n"
                  "open(sys.argv[2], 'w').write(json.dumps({{'price': {}}}))\n")
        checkouts = {}
        for side, price in (("change", 4.5), ("parent", 4.25)):
            (tmp_path / side / "tests").mkdir(parents=True)
            (tmp_path / side / "tests" / "seeded_numbers.py").write_text(
                script.format(price))
            checkouts[side] = tmp_path / side
        got = bench_record.seeded_record(checkouts)
        assert got["change"] == got["parent"] == {"exit_code": 0}
        assert (got["byte_identical"], got["numbers_differing"],
                got["largest_difference"]) == (False, 1, 0.25)
        assert got["command"] == ("OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python "
                                  "tests/seeded_numbers.py --out FILE")

    def test_a_failed_side_is_recorded_and_not_compared(self, tmp_path):
        (tmp_path / "change" / "tests").mkdir(parents=True)
        (tmp_path / "change" / "tests" / "seeded_numbers.py").write_text(
            "import sys\nprint('no --out here', file=sys.stderr)\nsys.exit(2)\n")
        got = bench_record.seeded_record({"change": tmp_path / "change",
                                          "parent": tmp_path / "missing"})
        assert got["change"] == {"exit_code": 2, "stderr_tail": "no --out here"}
        assert got["parent"]["exit_code"] is None
        assert "byte_identical" not in got
