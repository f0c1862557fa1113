"""Self-test of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py -q

Runs a one-second size of every workload in both modes, and checks that
every metric of BENCHMARK.json is printed with its unit and that wrong
answers are counted. Takes about a minute.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
from check import CANARIES, Checker  # noqa: E402

from maxdenum import make_semigroup  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(argv, **kw) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run.main(argv, **kw) == 0
    return json.loads(buf.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    result = _run(["--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace)])
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_workloads_match_the_declared_ones():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS) == list(inputs.WORKLOADS)


def test_planted_wrong_canary_is_counted():
    planted = {**CANARIES, (4, 5, 6): CANARIES[(4, 5, 6)] + 1}
    result = _run(["--workload", "dense", "--seed", "5", "--seconds", "1"], canaries=planted)
    assert result["failed"] == 1 and not result["correct"]
    assert result["metrics"]["ok_frac"]["value"] < 1


@pytest.mark.parametrize(
    "rec",
    [
        {"tag": "dmax", "gens": [5, 7, 8], "argv": ["dmax"], "out": {"value": 3, "method": "ed3-ceiling"}},
        {"tag": "dmax", "gens": [6, 7, 8, 9], "argv": ["dmax"], "out": {"value": 5, "witness": 13}},
        {"tag": "table", "gens": [15, 17, 36, 38, 71], "argv": ["table", "--residue", "11"],
         "out": {"dmax_si": 4, "witness": 176}},
        {"tag": "factorizations", "gens": [10, 11, 12], "argv": ["factorizations", "--target", "60"],
         "out": {"count": 1}},
        {"tag": "apery", "gens": [3, 5], "argv": ["apery"], "out": {"elements": [0, 5, 7]}},
        {"tag": "blowup", "gens": [4, 5, 6], "argv": ["blowup"], "out": {"dset": [4, 1, 3]}},
        {"tag": "classify", "gens": [4, 5, 6], "argv": ["classify"],
         "out": {"additive": True, "arithmetic_sequence": [4, 1, 3]}},
    ],
    ids=lambda rec: rec["tag"],
)
def test_checker_counts_a_wrong_answer(rec):
    checker = Checker()
    checker.record({**rec, "code": 0, "error": None})
    assert checker.failed == 1 and "unreadable" not in checker.messages[0]


def test_checker_counts_errors_and_exit_codes():
    checker = Checker()
    checker.record({"tag": "dmax", "gens": [3, 5], "argv": ["dmax"], "code": 4, "error": None})
    checker.record({"tag": "dmax", "gens": [3, 5], "argv": ["dmax"], "code": 0, "error": "MemoryError()"})
    assert checker.failed == 2


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_streams_are_seeded_distinct_and_minimal(workload):
    first = list(itertools.islice(inputs.stream(workload, 11), 40))
    again = list(itertools.islice(inputs.stream(workload, 11), 40))
    other = list(itertools.islice(inputs.stream(workload, 12), 40))
    assert first == again and first != other
    assert len({tuple(it["gens"]) for it in first}) == len(first)
    for it in first:
        assert make_semigroup(it["gens"]).generators == tuple(it["gens"])


def test_canaries_are_the_frozen_test_values():
    spec = importlib.util.spec_from_file_location("frozen_conftest", ROOT / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    assert CANARIES == conftest.NAMED


def test_refuses_to_run_without_the_program():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0 and "{" not in proc.stdout
