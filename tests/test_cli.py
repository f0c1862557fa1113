import csv
import io
import json
import subprocess
import sys

import jsonschema
import pytest

from maxdenum.cli import main

ENVELOPE_SCHEMA = {
    "type": "object",
    "required": ["command", "inputs", "method_used", "result"],
    "additionalProperties": False,
    "properties": {
        "command": {
            "enum": ["dmax", "table", "classify", "apery", "blowup", "factorizations"]
        },
        "inputs": {"type": "object"},
        "method_used": {
            "enum": [
                "general",
                "additive",
                "symmetric-blowup",
                "ed3-ceiling",
                "ed3-bezout",
                "arithmetic",
                "oracle",
            ]
        },
        "result": {"type": "object"},
    },
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    env = json.loads(out)
    jsonschema.validate(env, ENVELOPE_SCHEMA)
    return env


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("MAXDENUM_WIDTH", raising=False)


class TestDmaxCommand:
    def test_json_default_when_not_a_tty(self, capsys):
        code, out, _ = run_cli(capsys, "dmax", "4", "5", "6")
        assert code == 0
        assert json.loads(out)["result"]["value"] == 2

    def test_auto_picks_arithmetic_for_sequence(self, capsys):
        env = run_json(capsys, "dmax", "4", "5", "6")
        assert env["method_used"] == "arithmetic"

    def test_auto_picks_three_generator_formula(self, capsys):
        env = run_json(capsys, "dmax", "6", "9", "20")
        assert env["method_used"] == "ed3-ceiling"
        assert env["result"]["value"] == 1

    def test_auto_falls_back_to_general(self, capsys):
        env = run_json(capsys, "dmax", "15", "17", "36", "38", "71")
        assert env["method_used"] == "general"
        assert env["result"]["value"] == 3
        per = env["result"]["per_residue"]
        assert per[11]["dmax_si"] == 3
        assert per[11]["witness"] == 176
        assert per[11]["adjustments"] == [
            {"value": 26, "count": 1, "longest": 13},
            {"value": 41, "count": 2, "longest": 11},
            {"value": 56, "count": 3, "longest": 8},
        ]

    def test_explicit_methods_agree(self, capsys):
        values = set()
        for method in ("general", "additive", "symmetric-blowup", "arithmetic", "oracle"):
            env = run_json(capsys, "dmax", "4", "5", "6", "--method", method)
            values.add(env["result"]["value"])
        assert values == {2}

    def test_verify_cross_checks_fast_paths(self, capsys):
        env = run_json(capsys, "dmax", "5", "6", "7", "--method", "ed3", "--verify")
        assert env["result"]["value"] == 3

    def test_method_precondition_failure_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "dmax", "6", "9", "20", "--method", "arithmetic")
        assert code == 3
        assert out == ""
        assert "arithmetic" in err

    def test_additive_method_on_non_additive_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys, "dmax", "15", "17", "36", "38", "71", "--method", "additive"
        )
        assert code == 3
        assert "additive" in err

    def test_invalid_generators_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "dmax", "2", "4")
        assert code == 2
        assert "gcd" in err

    def test_csv_projection(self, capsys):
        code, out, _ = run_cli(capsys, "dmax", "4", "5", "6", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["value", "method_used"]
        assert rows[1] == ["2", "arithmetic"]

    def test_text_output_names_method_and_value(self, capsys):
        code, out, _ = run_cli(capsys, "dmax", "4", "5", "6", "--format", "text")
        assert code == 0
        assert "S = <4, 5, 6>" in out
        assert "method = arithmetic" in out
        assert "d_max(S) = 2" in out


class TestTableCommand:
    def test_reference_rows_in_json(self, capsys):
        env = run_json(capsys, "table", "15", "17", "36", "38", "71", "--residue", "11")
        assert env["result"]["rows"][0] == [71, 1, 56]
        assert env["result"]["rows"][-1] == [221, 13, 26]
        assert env["result"]["dmax_si"] == 3
        assert env["result"]["witness"] == 176

    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "15", "17", "36", "38", "71", "--residue", "11",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["s", "ord", "adj"]
        assert rows[1] == ["71", "1", "56"]
        assert len(rows) == 12

    def test_residue_out_of_range_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "table", "4", "5", "6", "--residue", "9")
        assert code == 2
        assert "residue" in err

    def test_width_env_chunks_text_table(self, capsys, monkeypatch):
        monkeypatch.setenv("MAXDENUM_WIDTH", "30")
        code, out, _ = run_cli(
            capsys, "table", "15", "17", "36", "38", "71", "--residue", "11",
            "--format", "text",
        )
        assert code == 0
        labeled = [line for line in out.splitlines() if line.startswith("s in S_11")]
        assert len(labeled) > 1  # the eleven columns cannot fit one block

    def test_degenerate_whole_numbers(self, capsys):
        env = run_json(capsys, "table", "1", "--residue", "0")
        assert env["result"]["rows"] == [[0, 0, 0]]
        assert env["result"]["dmax_si"] == 1


class TestOtherCommands:
    def test_classify_json(self, capsys):
        env = run_json(capsys, "classify", "4", "5", "6")
        r = env["result"]
        assert r["additive"] and r["blowup_symmetric"] and r["supersymmetric"]
        assert r["arithmetic_sequence"] == [4, 1, 2]

    def test_classify_csv(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "6", "9", "20", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == [
            "additive", "blowup_symmetric", "supersymmetric", "arithmetic_sequence",
        ]

    def test_apery_default_unit(self, capsys):
        env = run_json(capsys, "apery", "4", "5", "6")
        assert env["result"]["base_element"] == 4
        assert env["result"]["elements"] == [0, 5, 6, 11]

    def test_apery_explicit_unit(self, capsys):
        env = run_json(capsys, "apery", "4", "5", "6", "--unit", "5")
        assert env["result"]["base_element"] == 5
        assert len(env["result"]["elements"]) == 5

    def test_apery_bad_unit_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "apery", "4", "5", "6", "--unit", "3")
        assert code == 2

    def test_blowup_json(self, capsys):
        env = run_json(capsys, "blowup", "15", "17", "36", "38", "71")
        assert env["result"]["dset"] == [15, 2, 21, 23, 56]
        assert env["result"]["blowup_generators"] == [2, 15]

    def test_factorizations_keeps_input_order_without_minimalizing(self, capsys):
        env = run_json(capsys, "factorizations", "4", "1", "2", "--target", "5")
        assert env["result"]["count"] == 4
        assert env["result"]["factorizations"] == [
            [1, 1, 0], [0, 1, 2], [0, 3, 1], [0, 5, 0],
        ]

    def test_factorizations_maximal_only(self, capsys):
        env = run_json(
            capsys, "factorizations", "4", "1", "2", "--target", "5", "--maximal-only"
        )
        assert env["result"]["factorizations"] == [[0, 5, 0]]
        assert env["result"]["lengths"] == [5]

    def test_factorizations_csv_has_one_column_per_position(self, capsys):
        code, out, _ = run_cli(
            capsys, "factorizations", "4", "1", "2", "--target", "5", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["c0", "c1", "c2", "length"]
        assert rows[1] == ["1", "1", "0", "2"]

    def test_factorizations_rejects_duplicates(self, capsys):
        code, _, _ = run_cli(capsys, "factorizations", "3", "3", "--target", "6")
        assert code == 2

    def test_factorizations_negative_target_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "factorizations", "3", "5", "--target", "-1")
        assert code == 2


class TestPlumbing:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate", "4"]) == 2

    def test_missing_arguments_exit_2(self, capsys):
        assert main(["table", "4", "5", "6"]) == 2

    def test_json_is_stable_key_ordered(self, capsys):
        _, out1, _ = run_cli(capsys, "dmax", "4", "5", "6")
        _, out2, _ = run_cli(capsys, "dmax", "4", "5", "6")
        assert out1 == out2
        env = json.loads(out1)
        assert list(env) == sorted(env)

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "maxdenum", "dmax", "4", "5", "6"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["value"] == 2
