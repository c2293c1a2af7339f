"""Tests for the command-line front-end."""

import contextlib
import csv
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import gcalg
from gcalg import (AlgebraContext, CycloScalar, apply_element, basis_indices, basis_state,
                   eval_element, parse)
from gcalg import axioms, cli, expr, rep
from gcalg.cli import MAX_N, MAX_QUDITS, main
from helpers import densify, ordered_basis_vector, random_element, scalar_from_json


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gcalg_process(argv, **kwargs) -> dict:
    # The arguments of subprocess.run or Popen for a fresh gcalg interpreter.
    src = str(Path(gcalg.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(args=[sys.executable, "-m", "gcalg", *argv], text=True,
                env=dict(os.environ, PYTHONPATH=path), **kwargs)


def run_process(argv, timeout=60):
    # A fresh interpreter under a timeout, for inputs that once ran without bound.
    done = subprocess.run(**gcalg_process(argv, capture_output=True, timeout=timeout))
    return done.returncode, done.stdout, done.stderr


@pytest.fixture
def written_matrices(monkeypatch):
    """The rows that reach ``cli._matrix_chunks``, in call order."""
    built = []
    original = cli._matrix_chunks

    def capture(rows, fmt, ctx):
        built.append(rows)
        return original(rows, fmt, ctx)

    monkeypatch.setattr(cli, "_matrix_chunks", capture)
    return built


def outcome(argv, capsys):
    # Exit code, stdout and stderr of one main() call, usage errors and --help included.
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    CALLS = [
        ["verify", "--N", "3", "--n", "2", "--checks", "nosuch"],
        ["verify", "--N", "3", "--n", "1", "--checks", "order", "commutation"],
        ["verify", "--help"],
        ["verify", "--N", "3", "--n", "1"],  # all checks again after a subset
        ["verify", "--N", "3", "--n", "2", "--zeta-sign", "+"],
        ["eval", "--N", "3", "--n", "2", "c[9]"],
        ["eval", "--N", "2", "--n", "2", "--zeta-sign", "+", "--format", "json", "c[1] c[3]"],
        ["eval", "--N", "3", "--n", "2", "c[1] |0,1>"],
        ["matrix", "--N", "3", "--n", "1", "--format", "csv", "c[1] + c[2]"],
        ["matrix", "--N", "3", "--n", "1", "--dense-cap", "0", "c[1]"],
        ["gram", "--N", "2", "--n", "2", "--format", "json"],
        ["gram", "--N", "2", "--n", "2"],
    ]

    def test_shared_parser_answers_as_a_fresh_one(self, monkeypatch, capsys):
        shared = [outcome(argv, capsys) for argv in self.CALLS]
        assert [code for code, _, _ in shared] == [2, 0, 0, 0, 2, 1, 0, 0, 0, 2, 0, 0]
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        for argv, got in zip(self.CALLS, shared):
            assert outcome(argv, capsys) == got, argv

    def test_help_and_errors_go_to_the_streams_of_the_call(self, capsys):
        cli.build_parser()  # built before the streams below exist
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit):
                main(["gram", "--help"])
            with pytest.raises(SystemExit):
                main(["gram", "--N", "3", "--format", "yaml"])
        assert out.getvalue().startswith("usage: gcalg gram ")
        assert "invalid choice: 'yaml'" in err.getvalue()
        assert capsys.readouterr() == ("", "")

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_import_builds_no_parser(self):
        args = gcalg_process([], capture_output=True, timeout=60)
        args["args"] = [sys.executable, "-c",
                        "import gcalg.cli as cli; print(cli.build_parser.cache_info().currsize)"]
        done = subprocess.run(**args)
        assert (done.returncode, done.stdout, done.stderr) == (0, "0\n", "")


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
        err = capsys.readouterr().err.splitlines()
        assert sum("invalid choice: 'nosuch'" in line for line in err) == 1

    def test_help_lists_every_check(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        out = capsys.readouterr().out
        assert all(name in out for name in axioms.ALL_CHECKS)

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

    def test_checks_without_names_is_usage_error(self, capsys):
        # An empty --checks would report "0/0 checks passed" and exit 0.
        with pytest.raises(SystemExit) as info:
            main(["verify", "--N", "3", "--n", "1", "--checks"])
        assert info.value.code == 2
        assert capsys.readouterr().out == ""

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

    @pytest.mark.parametrize("text", [
        "(c[1]+c[2]+c[3]+c[4]+c[5]+c[6])^20",
        " ".join(["(c[1]+c[2]+c[3]+c[4]+c[5]+c[6])"] * 20),
    ])
    def test_product_over_the_term_budget_exits_1(self, text):
        # Both once ran for minutes: the term count grows while coefficients stay small.
        code, out, err = run_process(["eval", "--N", "256", "--n", "3", text], timeout=30)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: result too large: ")
        assert f"more than the budget of {expr.MAX_PRODUCT_WORK}" in err

    @pytest.mark.parametrize("n", [128, 1024])
    def test_product_of_long_exponent_tuples_exits_1(self, n):
        # 65536 term pairs, each merging 2n exponents: once 5 s at n = 128, 31 s at 1024.
        text = "(" + "+".join(f"c[{i}]" for i in range(1, 257)) + ")^2"
        code, out, err = run_process(["eval", "--N", "2", "--n", str(n), text], timeout=30)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: result too large: ")

    def test_long_written_out_sum_is_fast(self):
        # Once 14.3 s: every child re-merged the running sum of 2n-long keys.
        text = "+".join(f"c[{i}]" for i in range(1, 1025))
        code, out, err = run_process(["eval", "--N", "2", "--n", "1024", text], timeout=30)
        assert code == 0
        assert err == ""
        assert out == " + ".join(f"c[{i}]" for i in range(1024, 0, -1)) + "\n"

    def test_term_budget_is_exact(self, monkeypatch, capsys):
        # (c_1 + c_2 + c_3)^2 at N = 3, n = 2 multiplies two elements of 3 terms
        # and 3 entries: 3 * 3 term pairs times 2n = 4, plus 3 * 3 entry pairs.
        monkeypatch.setattr(expr, "MAX_PRODUCT_WORK", 45)
        for text in ["(c[1]+c[2]+c[3])^2", "(c[1]+c[2]+c[3]) (c[1]+c[2]+c[3])"]:
            code, _, _ = run(["eval", "--N", "3", "--n", "2", text], capsys)
            assert code == 0
        monkeypatch.setattr(expr, "MAX_PRODUCT_WORK", 44)
        for text in ["(c[1]+c[2]+c[3])^2", "(c[1]+c[2]+c[3]) (c[1]+c[2]+c[3])"]:
            code, out, err = run(["eval", "--N", "3", "--n", "2", text], capsys)
            assert code == 1 and out == ""
            assert err == ("error: result too large: a product would take 45 steps (term pairs "
                           "times 2n, plus coefficient entry pairs), more than the budget of 44\n")

    def test_eval_error_exits_1(self, capsys):
        code, _, err = run(["eval", "--N", "3", "--n", "2", "c[9]"], capsys)
        assert code == 1
        assert "out of range" in err

    @pytest.mark.parametrize("text", ["(c[1] + c[2]^2) |0,0>", "<1,0| (c[1] + c[2]^2) |0,0>"])
    def test_action_budget_is_exact(self, text, monkeypatch, capsys):
        # c_1 + c_2^2 applies 1 + 2 letters to the ket.
        monkeypatch.setattr(expr, "MAX_ACTION_LETTERS", 3)
        code, _, _ = run(["eval", "--N", "3", "--n", "2", text], capsys)
        assert code == 0
        monkeypatch.setattr(expr, "MAX_ACTION_LETTERS", 2)
        monkeypatch.setattr(expr, "apply_element", None)  # refused before any letter
        code, out, err = run(["eval", "--N", "3", "--n", "2", text], capsys)
        assert code == 1 and out == ""
        assert err == ("error: result too large: acting on the ket would take 3 letters (the "
                       "sum of every term's exponents), more than the budget of 2\n")

    def test_action_over_the_letter_budget_exits_1(self):
        # 21609 terms, 3.2M letters on one ket: once 11 s, now refused in well under 1 s.
        sums = ["(" + "+".join(f"c[{i}]^{e}" for e in range(1, 148)) + ")" for i in (1, 2)]
        code, out, err = run_process(["eval", "--N", "256", "--n", "1", " ".join(sums) + " |0>"],
                                     timeout=30)
        assert code == 1
        assert out == ""
        assert err == ("error: result too large: acting on the ket would take 3198132 letters "
                       "(the sum of every term's exponents), more than the budget of "
                       f"{expr.MAX_ACTION_LETTERS}\n")

    def test_projector_budget_is_exact(self, monkeypatch, capsys):
        # Two E[k] leaves at N = 3, n = 2 form 2 * 3 monomials of 4 exponents.
        texts = ["E[1] + E[2]", "E[1] E[2]^-1 |0,0>", "<0,0| E[1]' E[2] |0,0>"]
        monkeypatch.setattr(expr, "MAX_PROJECTOR_WORK", 24)
        for text in texts:
            code, _, _ = run(["eval", "--N", "3", "--n", "2", text], capsys)
            assert code == 0
        monkeypatch.setattr(expr, "MAX_PROJECTOR_WORK", 23)
        monkeypatch.setattr(expr, "projector_element", None)  # refused before any is formed
        for text in texts:
            code, out, err = run(["eval", "--N", "3", "--n", "2", text], capsys)
            assert code == 1 and out == ""
            assert err == ("error: result too large: the projectors would form 24 exponents "
                           "(E[k] leaves times N times 2n), more than the budget of 23\n")

    def test_projectors_over_the_budget_exit_1(self):
        # 64 projectors at N = 256, n = 1024: once 9 s and 656 KB of output.
        argv = ["eval", "--N", "256", "--n", "1024"]
        text = "+".join(f"E[{k}]" for k in range(1, 65))
        code, out, err = run_process([*argv, text], timeout=30)
        assert code == 1
        assert out == ""
        assert err == ("error: result too large: the projectors would form 33554432 exponents "
                       "(E[k] leaves times N times 2n), more than the budget of "
                       f"{expr.MAX_PROJECTOR_WORK}\n")
        # One projector in the same context is inside the budget and prints its N terms.
        code, out, err = run_process([*argv, "E[1]"], timeout=30)
        assert code == 0
        assert err == ""
        assert out.startswith("1/256 + 1/256 * zeta * c[1] c[2]^255 + ")
        assert out.count("1/256") == 256


class TestMatrix:
    def test_identity(self, capsys):
        code, out, _ = run(["matrix", "--N", "2", "--n", "1", "--format", "json", "1"], capsys)
        assert code == 0
        rows = json.loads(out)
        assert scalar_from_json(rows[0][0]) == 1
        assert scalar_from_json(rows[0][1]) == 0
        assert scalar_from_json(rows[1][1]) == 1

    def test_qubit_flip(self, capsys):
        code, out, _ = run(["matrix", "--N", "2", "--n", "1", "--format", "json", "c[2]"], capsys)
        assert code == 0
        rows = json.loads(out)
        values = [[scalar_from_json(cell) for cell in row] for row in rows]
        assert values[0][1] == 1 and values[1][0] == 1
        assert values[0][0] == 0 and values[1][1] == 0

    def test_csv_approximations(self, capsys):
        code, out, _ = run(["matrix", "--N", "2", "--n", "1", "--format", "csv", "c[2]"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        first = lines[0].split('","')
        assert len(first) == 2

    @pytest.mark.parametrize("text", [
        pytest.param("c[1] - zeta c[2]", id="cancel"),  # zero on every a_1 = 0 column
        pytest.param("2 + c[1]", id="scalar"),
        pytest.param("c[1] - c[1]", id="zero"),
        pytest.param("c[1]^5 c[4]^3", id="powers"),
        pytest.param("E[1] c[2]", id="shared"),  # N terms, one permutation
        pytest.param("c[1] c[2]", id="product"),
    ])
    @pytest.mark.parametrize("N,n,zeta_exp", [(3, 2, None), (2, 3, 1), (2, 3, 3),
                                              (4, 2, 1), (4, 2, 5)])
    def test_columns_match_basis_application(self, N, n, zeta_exp, text):
        # The oracle: every letter of every term applied to each basis state.
        ctx = AlgebraContext(N, n, zeta_exp)
        element = eval_element(parse(text), ctx)
        rows = rep.dense_matrix(element)
        labels = list(basis_indices(ctx))
        for j, label in enumerate(labels):
            column = apply_element(element, basis_state(ctx, label))
            cells = {labels[i]: row[j] for i, row in enumerate(rows) if j in row}
            # Same keys and the same stored form, so the same values and the
            # same printed bytes; a cancelled cell is absent.
            assert repr(cells) == repr(dict(sorted(column.terms.items())))
        if text == "c[1] - zeta c[2]":
            assert not any(j in row for row in rows for j, a in enumerate(labels) if a[0] == 0)
        if text == "c[1] - c[1]":
            assert rows == [{}] * ctx.dim

    def test_export_budget_is_exact(self, monkeypatch, capsys):
        # c_1 + c_2 at N = 3, n = 2: 2 terms times dimension 9.
        monkeypatch.setattr(rep, "MAX_EXPORT_WORK", 18)
        code, _, _ = run(["matrix", "--N", "3", "--n", "2", "c[1] + c[2]"], capsys)
        assert code == 0
        monkeypatch.setattr(rep, "MAX_EXPORT_WORK", 17)
        code, out, err = run(["matrix", "--N", "3", "--n", "2", "c[1] + c[2]"], capsys)
        assert code == 1 and out == ""
        assert err == ("error: result too large: a matrix would take 18 steps (terms times "
                       "dimension), more than the budget of 17\n")

    def test_matrix_over_the_export_budget_exits_1(self, tmp_path):
        # 3969 terms at dimension 4096; replayed letter by letter it would run
        # for hours.  Written out, the sum is longer than one argv string may be.
        sums = ["(" + "+".join(f"c[{i}]^{e}" for e in range(1, 64)) + ")" for i in (1, 2)]
        text = " ".join(sums + ["c[3]^63", "c[4]^63"])
        target = tmp_path / "m.csv"
        code, out, err = run_process(["matrix", "--N", "64", "--n", "2", "--format", "csv",
                                      "--output", str(target), text], timeout=30)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: result too large: a matrix would take 16257024 steps")
        assert not target.exists()

    @pytest.mark.parametrize("text,what", [("|0,0>", "a state"),
                                           ("<1,0| c[1] |0,0>", "a bra-ket")])
    def test_non_element_is_named_in_the_expression_language(self, text, what, capsys):
        code, out, err = run(["matrix", "--N", "3", "--n", "2", text], capsys)
        assert code == 1 and out == ""
        assert err == f"error: expected an element expression, got {what}\n"

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_non_positive_dense_cap_is_usage_error(self, cap, capsys):
        with pytest.raises(SystemExit) as info:
            main(["matrix", "--N", "2", "--n", "1", "--dense-cap", cap, "c[1]"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == f"gcalg: error: --dense-cap {cap} must be at least 1"

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
                cell = scalar_from_json(rows[i][j])
                if i == j:
                    assert cell == 1
                else:
                    assert cell == 0
                    assert rows[i][j]["coeffs"] == []  # exactly zero, not small

    def test_each_row_holds_only_its_diagonal_entry(self, written_matrices, capsys):
        code, _, _ = run(["gram", "--N", "3", "--n", "2", "--format", "csv"], capsys)
        assert code == 0
        rows, = written_matrices
        assert [list(row) for row in rows] == [[i] for i in range(9)]

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


# -- the dense writers against the literal per-cell encoders ------------------

def oracle_output(matrix, fmt, ctx):
    """The matrix as the per-cell writers wrote it: one encoder call per cell."""
    if fmt == "json":
        return json.dumps([[cell.to_json() for cell in row] for row in matrix], indent=2) + "\n"
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        for row in matrix:
            writer.writerow([cli._approx(cell) for cell in row])
        return buffer.getvalue()
    return "".join("\t".join(expr.print_canonical(cell, ctx) for cell in row) + "\n"
                   for row in matrix)


DENSE_CONTEXTS = [(2, 3, "+"), (2, 3, "-"), (3, 2, "-"), (4, 2, "+"), (4, 2, "-"),
                  (6, 2, "+"), (6, 2, "-")]
FORMATS = ["json", "csv", "text"]


def context_flags(N, n, sign):
    return ["--N", str(N), "--n", str(n), "--zeta-sign", sign]


@pytest.mark.parametrize("N,n,sign", DENSE_CONTEXTS)
def test_matrix_output_matches_the_per_cell_writers(N, n, sign, capsys):
    ctx = AlgebraContext.from_sign(N, n, sign)
    rng = random.Random(f"{N}{n}{sign}")
    for _ in range(4):
        element = random_element(rng, ctx)
        while not element.terms:
            element = random_element(rng, ctx)
        text = expr.print_canonical(element)
        matrix = densify(rep.dense_matrix(eval_element(parse(text), ctx)), ctx)
        for fmt in FORMATS:
            code, out, _ = run(["matrix", *context_flags(N, n, sign), "--format", fmt, text],
                               capsys)
            assert code == 0
            assert out == oracle_output(matrix, fmt, ctx)


@pytest.mark.parametrize("N,n,sign", [(3, 4, "-"), (2, 7, "+")])
def test_csv_at_the_largest_benchmark_dims_matches_the_per_cell_writers(N, n, sign, capsys):
    # The dims 81 and 128 that the dense-export benchmark writes as CSV.
    ctx = AlgebraContext.from_sign(N, n, sign)
    rng = random.Random(f"csv{N}{n}")
    element = random_element(rng, ctx)
    while len(element.terms) < 2:
        element = random_element(rng, ctx)
    text = expr.print_canonical(element)
    matrix = densify(rep.dense_matrix(eval_element(parse(text), ctx)), ctx)
    code, out, _ = run(["matrix", *context_flags(N, n, sign), "--format", "csv", text], capsys)
    assert code == 0
    assert out == oracle_output(matrix, "csv", ctx)
    vectors = [ordered_basis_vector(ctx, digits) for digits in basis_indices(ctx)]
    gram = [[rep.scalar_product(vr, vc) for vc in vectors] for vr in vectors]
    code, out, _ = run(["gram", *context_flags(N, n, sign), "--format", "csv"], capsys)
    assert code == 0
    assert out == oracle_output(gram, "csv", ctx)


@pytest.mark.parametrize("N,n,sign", DENSE_CONTEXTS)
@pytest.mark.parametrize("fmt", FORMATS)
def test_gram_matches_all_pairs(N, n, sign, fmt, written_matrices, capsys):
    ctx = AlgebraContext.from_sign(N, n, sign)
    vectors = [ordered_basis_vector(ctx, digits) for digits in basis_indices(ctx)]
    expected = [[rep.scalar_product(vr, vc) for vc in vectors] for vr in vectors]
    code, out, _ = run(["gram", *context_flags(N, n, sign), "--format", fmt], capsys)
    assert code == 0
    assert out == oracle_output(expected, fmt, ctx)
    rows, = written_matrices

    def stored(matrix):  # each cell's stored map, key order included
        return [[list(cell.coeffs.items()) for cell in row] for row in matrix]

    assert stored(densify(rows, ctx)) == stored(expected)
    assert all(not expected[i][j].coeffs
               for i, row in enumerate(rows) for j in range(ctx.dim) if j not in row)


def test_gram_computes_only_the_cells_whose_supports_meet(monkeypatch, capsys):
    calls = []
    original = rep.scalar_product

    def counting(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(rep, "scalar_product", counting)
    code, _, _ = run(["gram", "--N", "3", "--n", "3", "--format", "csv"], capsys)
    assert code == 0
    assert len(calls) == 27  # one per basis vector: each meets only itself


def counting_encoder(monkeypatch, fmt):
    """Wrap the encoder of ``fmt`` and return the list of cells it is called on."""
    module, name = {"json": (cli, "_json_scalar"), "csv": (cli, "_approx"),
                    "text": (expr, "print_canonical")}[fmt]
    encoded = []
    original = getattr(module, name)

    def counting(value, *args):
        encoded.append(value)
        return original(value, *args)

    monkeypatch.setattr(module, name, counting)
    return encoded


def stored_map(cell):
    return tuple(cell.coeffs.items())


def test_each_distinct_cell_is_encoded_once(monkeypatch, capsys):
    encoded = counting_encoder(monkeypatch, "csv")
    code, out, _ = run(["gram", "--N", "2", "--n", "4", "--format", "csv"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 16
    assert [stored_map(cell) for cell in encoded] == [(), ((0, 1),)]  # the zero, then the one


@pytest.mark.parametrize("fmt", FORMATS)
def test_each_distinct_stored_map_of_a_matrix_is_encoded_once(fmt, monkeypatch,
                                                              written_matrices, capsys):
    encoded = counting_encoder(monkeypatch, fmt)
    text = "c[1] + (1/2 - q) c[2] c[3] + 3 c[4]^2 + q c[1] c[4]"
    code, _, _ = run(["matrix", *context_flags(3, 2, "-"), "--format", fmt, text], capsys)
    assert code == 0
    rows, = written_matrices
    distinct = {stored_map(cell) for row in rows for cell in row.values()}
    assert len(distinct) < sum(map(len, rows))  # some stored maps repeat
    assert len(encoded) == len(distinct) + 1  # and the zero cell
    assert {stored_map(cell) for cell in encoded[1:]} == distinct


@pytest.mark.parametrize("fmt", FORMATS)
def test_hand_built_rows_match_the_per_cell_writers(fmt, monkeypatch):
    ctx = AlgebraContext.from_sign(3, 1, None)
    m = ctx.order

    def cell(coeffs):
        return CycloScalar._raw(m, coeffs)

    # Equal keys: an int 1 and a Fraction(1) at the same exponent.  Equal
    # values in two stored orders, whose float sums differ in the last bit.
    one, one_fraction = cell({2: 1}), cell({2: Fraction(1)})
    forward, backward = cell({1: 1, 2: 1, 4: 1}), cell({4: 1, 2: 1, 1: 1})
    assert forward.to_complex() != backward.to_complex()
    rows = [{0: one, 2: forward}, {1: one_fraction}, {0: backward, 1: cell({0: Fraction(1, 3)})}]
    expected = oracle_output(densify(rows, ctx), fmt, ctx)
    encoded = counting_encoder(monkeypatch, fmt)
    assert "".join(cli._matrix_chunks(rows, fmt, ctx)) == expected
    # The zero, the root (once for both keys), both orders, the third.
    assert [stored_map(c) for c in encoded] == [
        (), stored_map(one), stored_map(forward), stored_map(backward), ((0, Fraction(1, 3)),)]


class _NegativeZero(CycloScalar):
    """A cell whose approximation is -0.0 in both parts, which no sum in to_complex gives."""

    __slots__ = ()

    def to_complex(self):
        return complex(-0.0, -0.0)


def json_cells(order):
    """Cells of every shape a JSON export writes, at one ring order."""
    near = (1 << cli.FLOAT_BITS) - 1  # the largest integral magnitude with an approximation
    rng = random.Random(order)

    def k():
        return rng.randrange(order)

    maps = [
        {},
        {0: 1},
        {k(): -1},
        {k(): 1, k(): 1},
        {k(): 123, k(): -45, k(): 6},
        {k(): Fraction(-7, 12), k(): Fraction(1234, 567)},
        {0: Fraction(1, 10**20)},  # an approximation in exponent form
        {0: near, order - 1: -near},  # exponent form with many digits
        {k(): Fraction(2 * near + 1, 2)},  # just under 2^FLOAT_BITS
    ]
    return [CycloScalar._raw(order, coeffs) for coeffs in maps] + [_NegativeZero._raw(order, {})]


def test_json_cell_matches_json_dumps():
    # Levels 1-4: an eval scalar, a matrix cell, an element's coefficient, a state's amplitude.
    orders = sorted({AlgebraContext(N, 1).order for N in range(2, MAX_N + 1)})
    assert orders[0] == 4 and orders[-1] == 2 * MAX_N
    for order in orders:
        for cell in json_cells(order):
            cli._check_printable([cell], "json")
            for level in range(1, 5):
                expected = json.dumps(cell.to_json(), indent=2).replace("\n", "\n" + "  " * level)
                assert cli._json_scalar(cell, level) == expected
    exponent, negative_zero = json_cells(4)[6], json_cells(4)[-1]
    assert "e-20" in cli._json_scalar(exponent, 2)
    assert '"re": -0.0' in cli._json_scalar(negative_zero, 2)


def eval_payload_oracle(argv) -> str:
    """``eval --format json`` output as ``json.dumps(payload, indent=2)`` writes it."""
    args = cli.build_parser().parse_args(["eval", *argv])
    ctx = AlgebraContext.from_sign(args.N, args.n, args.zeta_sign)
    ast = parse(args.expression)
    if ast.kind == "sandwich":
        kind, value = "scalar", expr.eval_scalar(ast, ctx)
    elif ast.kind == "apply":
        kind, value = "state", expr.eval_state(ast, ctx)
    else:
        kind, value = "element", eval_element(ast, ctx)
    payload = {"kind": kind, "canonical": expr.print_canonical(value, ctx)}
    if kind == "scalar":
        payload["scalar"] = value.to_json()
    elif kind == "state":
        payload["state"] = rep.state_to_json(value)
    else:
        payload["terms"] = [{"exps": list(exps), "coeff": coeff.to_json()}
                            for exps, coeff in sorted(value.terms.items())]
    return json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("argv,kind,fragment", [
    (["--N", "3", "--n", "1", "c[1] - c[1]"], "element", '"terms": []'),
    (["--N", "3", "--n", "2", "0 |0,1>"], "state", '"terms": []'),
    (["--N", "3", "--n", "1", "<0| c[1] |0>"], "scalar", '"coeffs": []'),
    (["--N", "5", "--n", "1", "-123/45 c[1] + 6789/10 q c[2]^3 - 7"], "element", '"-41/15"'),
    (["--N", "4", "--n", "3", "--zeta-sign", "-", "(1 + q - 2/3 zeta) c[1] c[6]^3 + c[4]'"],
     "element", '"-2/3"'),
    (["--N", "3", "--n", "3", "(c[2] + 2/3 q c[4] - (5 + q^2) c[6]) |0,1,2>"], "state",
     '"-5"'),
    (["--N", "2", "--n", "1", "c[2] |1>"], "state", '"index"'),
    (["--N", "6", "--n", "1", "<1| (1 + q + 2 zeta) c[2] |0>"], "scalar", '"2"'),
    (["--N", "3", "--n", "1", "<0| -12345/678 - q |0>"], "scalar", '"-4115/226"'),
    (["--N", "2", "--n", "1", "1/100000000000000000000 c[1]"], "element", "e-20"),
    (["--N", "2", "--n", "3", "(c[1] + c[3] c[5])^3"], "element", '"exps"'),
])
def test_eval_json_matches_json_dumps(argv, kind, fragment, capsys):
    # Zero values, negative and multi-digit Fractions, multi-term scalars,
    # n = 1 and n = 3, and a float in exponent form.
    code, out, err = run(["eval", "--format", "json", *argv], capsys)
    assert (code, err) == (0, "")
    assert out == eval_payload_oracle(argv)
    assert json.loads(out)["kind"] == kind
    assert fragment in out


@pytest.mark.parametrize("command", [["gram"], ["matrix", "c[1]+c[2]"]])
def test_dense_export_peaks_below_a_quarter_of_its_output(command, tmp_path):
    # Rows are written as they are encoded: no buffer grows with the output.
    target = tmp_path / "out.json"
    tracemalloc.start()
    try:
        code = main([command[0], "--N", "3", "--n", "5", "--format", "json",
                     "--output", str(target), *command[1:]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < target.stat().st_size / 4


@pytest.mark.parametrize("command", [["gram"], ["matrix", "c[1] + (1 - q) c[2] c[3]"]])
@pytest.mark.parametrize("fmt", FORMATS)
def test_output_file_equals_stdout(command, fmt, tmp_path, capsys):
    flags = [command[0], *context_flags(3, 2, "-"), "--format", fmt]
    code, out, _ = run([*flags, *command[1:]], capsys)
    assert code == 0
    target = tmp_path / "out"
    code, _, _ = run([*flags, "--output", str(target), *command[1:]], capsys)
    assert code == 0
    assert target.read_bytes() == out.encode()


class TestStdoutFailure:
    def test_full_device_exits_1(self):
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        with open("/dev/full", "w") as full:
            done = subprocess.run(**gcalg_process(["eval", "--N", "2", "--n", "1", "c[1]"],
                                                  stdout=full, stderr=subprocess.PIPE,
                                                  timeout=60))
        assert done.returncode == 1
        assert done.stderr == "error: stdout: No space left on device\n"

    def test_pipe_closed_after_one_line_exits_1(self):
        proc = subprocess.Popen(**gcalg_process(["gram", "--N", "2", "--n", "10", "--format", "csv"],
                                                stdout=subprocess.PIPE, stderr=subprocess.PIPE))
        try:
            assert proc.stdout.readline().startswith('"1,0","0,0",')
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 1
        assert err == "error: stdout: Broken pipe\n"
