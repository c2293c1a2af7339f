"""Tests for the scripts under tools/."""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab_cycle = _load("ab_cycle")
code_lines = _load("code_lines")
output_digest = _load("output_digest")


def _fake_child(base, outputs):
    # Stands in for one interpreter per tree: (seconds, per-op outputs) by tree.
    def child(src, workload, seed):
        seconds, ops = outputs["base" if src == base / "src" else "this"]
        return {"seconds": seconds, "ops": ops, "argv": [f"op-{i}" for i in range(len(ops))]}
    return child


class TestAbCycle:
    def test_same_outputs_pass_and_rounds_are_counted(self, monkeypatch, capsys, tmp_path):
        ops = [["0", "a"], ["1", "b"]]
        outputs = {"base": (2.0, ops), "this": (1.0, ops)}
        monkeypatch.setattr(ab_cycle, "child", _fake_child(tmp_path, outputs))
        assert ab_cycle.compare(3, tmp_path, "verify_suite", 1) == 0
        out = capsys.readouterr().out
        assert "won: base 0/3, this 3/3" in out
        assert "(base/this 2.000)" in out
        assert "outputs: all 2 ops give the same exit code and stdout" in out

    def test_every_mismatching_op_is_listed(self, monkeypatch, capsys, tmp_path):
        base = [["0", "a"], ["0", "b"], ["0", "c"]]
        this = [["0", "a"], ["1", "b"], ["0", "x"]]
        outputs = {"base": (1.0, base), "this": (1.0, this)}
        monkeypatch.setattr(ab_cycle, "child", _fake_child(tmp_path, outputs))
        assert ab_cycle.compare(2, tmp_path, "verify_suite", 1) == 1
        out = capsys.readouterr().out
        assert "outputs: 2 ops differ in exit code or stdout" in out
        assert "  op 1: op-1\n  op 2: op-2\n" in out
        assert "op 0:" not in out

    @pytest.mark.parametrize("argv", [
        ["--workload", "verify_suite"],
        ["--base", "HEAD", "--workload", "nosuch"],
        ["--base", "HEAD", "--workload", "verify_suite", "--rounds", "0"],
    ])
    def test_bad_arguments_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as info:
            ab_cycle.main(argv)
        assert info.value.code == 2


SNIPPET = '''"""Module docstring,
over two lines."""

# A comment line.
import os  # a trailing comment


def f(x):
    """Function docstring."""

    return os.sep + x


class C:
    """Class docstring."""

    y = 1
'''


def test_code_lines_skips_docstrings_comments_and_blank_lines():
    # import, def, return, class and the assignment.
    assert code_lines.code_lines(SNIPPET) == 5


class FakeCli:
    """Stands in for gcalg.cli: each op's argv names its exit code and stdout."""

    def __init__(self, outputs, err):
        self.outputs = outputs
        self.err = err

    def main(self, argv):
        code, out = self.outputs[argv[0]]
        print(out, end="")
        print(self.err, file=sys.stderr)
        if code == 2:
            raise SystemExit(code)  # as argparse exits on a usage error
        return code


class TestOutputDigest:
    OUTPUTS = {"a": (0, "one\n"), "b": (1, ""), "c": (2, "usage\n")}

    def digest(self, err="", **changed):
        cli = FakeCli({**self.OUTPUTS, **changed}, err)
        return output_digest.digest(cli, (SimpleNamespace(argv=[name]) for name in "abc"))

    def test_counts_the_ops_and_is_repeatable(self):
        count, hexdigest = self.digest().split()
        assert count == "3" and len(hexdigest) == 64
        assert self.digest() == self.digest()
        assert self.digest(err="stderr is not hashed") == self.digest()

    @pytest.mark.parametrize("changed", [
        {"a": (0, "one\r")}, {"c": (2, "usage!")}, {"a": (1, "one\n")}, {"b": (0, "")},
    ])
    def test_one_stdout_byte_or_exit_code_changes_it(self, changed):
        assert self.digest(**changed) != self.digest()
