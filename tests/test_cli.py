"""Tests for the command-line front-end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gcalg
from gcalg import AlgebraContext, apply_element, basis_indices, basis_state, eval_element, parse
from gcalg import cli
from gcalg.cli import MAX_N, MAX_QUDITS, main
from gcalg.cyclo import CycloScalar


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(argv, timeout=60):
    # A fresh interpreter under a timeout, for inputs that once ran without bound.
    src = str(Path(gcalg.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-m", "gcalg", *argv], capture_output=True,
                          text=True, env=env, timeout=timeout)
    return done.returncode, done.stdout, done.stderr


class TestVerify:
    def test_all_pass(self, capsys):
        code, out, _ = run(["verify", "--N", "3", "--n", "2"], capsys)
        assert code == 0
        assert "9/9 checks passed" in out

    def test_json_report(self, capsys):
        code, out, _ = run(["verify", "--N", "2", "--n", "1", "--format", "json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["N"] == 2 and data["n"] == 1
        assert all(check["passed"] for check in data["checks"])

    def test_minus_root(self, capsys):
        code, _, _ = run(["verify", "--N", "2", "--n", "1", "--zeta-sign", "-"], capsys)
        assert code == 0

    def test_unknown_check_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--N", "3", "--n", "2", "--checks", "nosuch"])
        assert info.value.code == 2

    def test_plus_root_with_odd_N_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--N", "3", "--n", "2", "--zeta-sign", "+"])
        assert info.value.code == 2

    def test_subset_of_checks(self, capsys):
        code, out, _ = run(
            ["verify", "--N", "2", "--n", "1", "--checks", "order", "commutation"], capsys
        )
        assert code == 0
        assert "2/2 checks passed" in out

    def test_dimension_over_dense_cap_exits_1(self, capsys):
        code, out, err = run(["verify", "--N", "2", "--n", "40"], capsys)
        assert code == 1
        assert out == ""
        assert err == "error: dimension 1099511627776 exceeds the dense cap 4096\n"

    def test_deterministic_output(self, capsys):
        args = ["verify", "--N", "3", "--n", "1", "--format", "json", "--seed", "5"]
        _, first, _ = run(args, capsys)
        _, second, _ = run(args, capsys)
        assert first == second


class TestEval:
    def test_element(self, capsys):
        code, out, _ = run(["eval", "--N", "3", "--n", "2", "c[2] c[1]"], capsys)
        assert code == 0
        assert out == "q^2 * c[1] c[2]\n"

    def test_state(self, capsys):
        code, out, _ = run(["eval", "--N", "3", "--n", "2", "c[1] Omega"], capsys)
        assert code == 0
        assert out == "q^2 * |1,0>\n"

    def test_scalar(self, capsys):
        code, out, _ = run(
            ["eval", "--N", "3", "--n", "2", "<0,0| c[2]' c[2] |0,0>"], capsys
        )
        assert code == 0
        assert out == "1\n"

    def test_json_payload(self, capsys):
        code, out, _ = run(
            ["eval", "--N", "3", "--n", "2", "--format", "json", "c[1] Omega"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "state"
        assert data["canonical"] == "q^2 * |1,0>"
        assert data["state"]["terms"][0]["index"] == [1, 0]

    def test_parse_error_exits_1(self, capsys):
        code, _, err = run(["eval", "--N", "3", "--n", "2", "c[1"], capsys)
        assert code == 1
        assert "syntax error at 1:4" in err

    def test_deep_nesting_exits_1(self, capsys):
        deep = "(" * 3000 + "c[1]" + ")" * 3000
        code, out, err = run(["eval", "--N", "3", "--n", "1", deep], capsys)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: syntax error at 1:")

    @pytest.mark.parametrize("postfix", ["^1", "'"])
    def test_long_postfix_chain_exits_0(self, postfix, capsys):
        code, out, _ = run(["eval", "--N", "3", "--n", "1", "c[1]" + postfix * 3000], capsys)
        assert code == 0
        assert out == "c[1]\n"

    def test_overlong_literal_exits_1(self, capsys):
        code, out, err = run(["eval", "--N", "3", "--n", "1", "c[1]^" + "9" * 5000], capsys)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: syntax error at 1:6: ")

    @pytest.mark.parametrize(
        "argv,cause",
        [
            (["eval", "--N", "2", "--format", "json", "(c[1]+c[2])^10000"], "float"),
            (["eval", "--N", "2", "(c[1]+c[2])^100000"], "digits"),
            (["eval", "--N", "3", "(2 c[1])^20000"], "digits"),
            (["eval", "--N", "2", "--format", "json", "<0|(c[1]+c[2])^10000|0>"], "float"),
            (["eval", "--N", "2", "(c[1]+c[2])^100000 |0>"], "digits"),
            (["matrix", "--N", "2", "--format", "csv", "(c[1]+c[2])^10000"], "float"),
            (["matrix", "--N", "2", "(c[1]+c[2])^100000"], "digits"),
        ],
    )
    def test_result_too_large_to_print_exits_1(self, argv, cause, capsys):
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: result too large to print: ") and cause in err

    def test_digit_limit_is_exact(self, capsys):
        widest = "1" + "0" * 4299  # 4300 digits, Python's default int/str limit
        code, out, _ = run(["eval", "--N", "2", widest], capsys)
        assert code == 0 and out == widest + "\n"
        code, out, err = run(["eval", "--N", "2", widest + " * 10"], capsys)
        assert code == 1 and out == "" and "more than 4300 digits" in err

    def test_large_result_below_the_limits_prints(self, capsys):
        # (c_1 + c_2)^2 = 2 at N = 2: 2^5000 has 1506 digits.
        code, out, _ = run(["eval", "--N", "2", "(c[1]+c[2])^10000"], capsys)
        assert code == 0
        assert out == str(2**5000) + "\n"

    @pytest.mark.parametrize("text", ["(c[1]+c[2])^99999999999999999999",
                                      "(1/3)^99999999999999999999"])
    def test_huge_power_stops_at_the_digit_limit(self, text):
        code, out, err = run_process(["eval", "--N", "2", "--n", "1", text])
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: result too large to print: ") and "digits" in err

    def test_huge_power_of_an_idempotent_prints(self):
        code, out, _ = run_process(["eval", "--N", "2", "--n", "1", "E[1]^99999999999999999999"])
        assert code == 0
        assert out == "1/2 + 1/2 * zeta * c[1] c[2]\n"

    def test_large_N_is_refused_at_once(self):
        code, out, err = run_process(["eval", "--N", "100000", "--n", "1", "c[1]"])
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1] == (
            f"gcalg: error: --N 100000 exceeds the largest supported order {MAX_N}"
        )

    def test_largest_allowed_N_evaluates(self, capsys):
        code, out, _ = run(["eval", "--N", str(MAX_N), "--n", "1", "(1 + q) c[2] c[1] - c[1] c[2]"],
                           capsys)
        assert code == 0
        assert out == f"q^{MAX_N - 1} * c[1] c[2]\n"  # the c[1] c[2] terms cancel exactly
        with pytest.raises(SystemExit) as info:
            main(["eval", "--N", str(MAX_N + 1), "--n", "1", "c[1]"])
        assert info.value.code == 2

    def test_many_qudits_are_refused_at_once(self):
        code, out, err = run_process(["eval", "--N", "2", "--n", "100000000", "c[1]"])
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1] == (
            "gcalg: error: --n 100000000 exceeds the largest supported number of qudits "
            f"{MAX_QUDITS}"
        )

    def test_largest_allowed_n_evaluates(self, capsys):
        last = f"c[{2 * MAX_QUDITS}]"
        code, out, _ = run(["eval", "--N", "2", "--n", str(MAX_QUDITS), last], capsys)
        assert code == 0
        assert out == last + "\n"
        with pytest.raises(SystemExit) as info:
            main(["eval", "--N", "2", "--n", str(MAX_QUDITS + 1), "c[1]"])
        assert info.value.code == 2

    def test_help_states_the_bounds(self, capsys):
        with pytest.raises(SystemExit):
            main(["eval", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert f"(2 to {MAX_N})" in out
        assert f"(1 to {MAX_QUDITS}, default 1)" in out

    def test_eval_error_exits_1(self, capsys):
        code, _, err = run(["eval", "--N", "3", "--n", "2", "c[9]"], capsys)
        assert code == 1
        assert "out of range" in err


class TestMatrix:
    def test_identity(self, capsys):
        code, out, _ = run(["matrix", "--N", "2", "--n", "1", "--format", "json", "1"], capsys)
        assert code == 0
        rows = json.loads(out)
        assert CycloScalar.from_json(rows[0][0]) == 1
        assert CycloScalar.from_json(rows[0][1]) == 0
        assert CycloScalar.from_json(rows[1][1]) == 1

    def test_qubit_flip(self, capsys):
        code, out, _ = run(["matrix", "--N", "2", "--n", "1", "--format", "json", "c[2]"], capsys)
        assert code == 0
        rows = json.loads(out)
        values = [[CycloScalar.from_json(cell) for cell in row] for row in rows]
        assert values[0][1] == 1 and values[1][0] == 1
        assert values[0][0] == 0 and values[1][1] == 0

    def test_csv_approximations(self, capsys):
        code, out, _ = run(["matrix", "--N", "2", "--n", "1", "--format", "csv", "c[2]"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        first = lines[0].split('","')
        assert len(first) == 2

    def test_columns_match_basis_application(self, capsys):
        code, out, _ = run(
            ["matrix", "--N", "3", "--n", "2", "--format", "json", "c[1] c[2]"], capsys
        )
        assert code == 0
        rows = json.loads(out)
        ctx = AlgebraContext(3, 2)
        element = eval_element(parse("c[1] c[2]"), ctx)
        labels = list(basis_indices(ctx))
        for j, label in enumerate(labels):
            column = apply_element(element, basis_state(ctx, label))
            for i, row_label in enumerate(labels):
                assert CycloScalar.from_json(rows[i][j]) == column.amplitude(row_label)

    def test_cap_exceeded_exits_1(self, capsys):
        code, _, err = run(
            ["matrix", "--N", "3", "--n", "8", "--dense-cap", "100", "c[1]"], capsys
        )
        assert code == 1
        assert "exceeds the dense cap" in err

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "matrix.json"
        code, out, _ = run(
            ["matrix", "--N", "2", "--n", "1", "--format", "json", "--output", str(target), "c[2]"],
            capsys,
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())


class TestGram:
    @pytest.mark.parametrize("N,n", [(2, 1), (3, 2)])
    def test_gram_is_exactly_the_identity(self, N, n, capsys):
        code, out, _ = run(
            ["gram", "--N", str(N), "--n", str(n), "--format", "json"], capsys
        )
        assert code == 0
        rows = json.loads(out)
        dim = N**n
        assert len(rows) == dim
        for i in range(dim):
            for j in range(dim):
                cell = CycloScalar.from_json(rows[i][j])
                if i == j:
                    assert cell == 1
                else:
                    assert cell == 0
                    assert rows[i][j]["coeffs"] == []  # exactly zero, not small

    def test_off_diagonal_cells_share_one_zero(self, monkeypatch, capsys):
        built = []
        original = cli._matrix_output

        def capture(args, matrix, ctx):
            built.append(matrix)
            return original(args, matrix, ctx)

        monkeypatch.setattr(cli, "_matrix_output", capture)
        code, _, _ = run(["gram", "--N", "3", "--n", "2", "--format", "csv"], capsys)
        assert code == 0
        matrix, = built
        cells = {id(cell) for i, row in enumerate(matrix) for j, cell in enumerate(row) if i != j}
        assert len(cells) == 1

    def test_text_format(self, capsys):
        code, out, _ = run(["gram", "--N", "2", "--n", "1"], capsys)
        assert code == 0
        assert out == "1\t0\n0\t1\n"

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        target = tmp_path / "missing" / "g.csv"
        code, out, err = run(
            ["gram", "--N", "2", "--n", "1", "--format", "csv", "--output", str(target)], capsys
        )
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.startswith(f"error: {target}: ")
        assert not target.parent.exists()
