"""Every seeded number stays where the committed fixture has it.

The fixture (``seeded_numbers.json``) holds the report rows of each
scenario on shrunk sweeps, the golden five-path solution and the CLI's
seed-0 quotes; ``seeded_numbers.py`` computes them all and regenerates
the fixture. Numbers agree within 1e-10 absolute.
"""
import json

import numpy as np
import pytest

import seeded_numbers

ABS_TOL = 1e-10

FIXTURE = json.loads(seeded_numbers.FIXTURE.read_text())


def assert_close(got, want, what):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, what
    assert np.all(np.abs(got - want) <= ABS_TOL), (
        f"{what}: largest move {np.max(np.abs(got - want)):.3g}")


@pytest.mark.parametrize("name", list(seeded_numbers.SWEEPS))
def test_scenario_rows(name):
    got = seeded_numbers.scenario_rows(name)
    want = FIXTURE["scenarios"][name]
    keys = seeded_numbers.KEYS + ("error",)
    assert [[row[k] for k in keys] for row in got] == \
        [[row[k] for k in keys] for row in want]
    for index, (row, expected) in enumerate(zip(got, want)):
        for column in ("price", "hedge", "tw_mean", "tw_median"):
            if expected[column] is None:
                assert row[column] is None, (index, column)
            else:
                assert_close(row[column], expected[column], f"row {index} {column}")


def test_golden_solution():
    got = seeded_numbers.golden_numbers()
    for name, expected in FIXTURE["golden"].items():
        assert_close(got[name], expected, name)


def test_cli_quotes():
    got = seeded_numbers.cli_quotes()
    assert got.keys() == FIXTURE["cli"].keys()
    for command, expected in FIXTURE["cli"].items():
        assert got[command].keys() == expected.keys()
        for key, value in expected.items():
            if isinstance(value, int):
                assert got[command][key] == value, (command, key)
            else:
                assert_close(got[command][key], value, f"{command} {key}")
