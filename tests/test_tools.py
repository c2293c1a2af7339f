"""Tests for the scripts under tools/."""

import importlib.util
import json
import os
import shutil
import subprocess
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


# Median 2.5 s, Q1-Q3 spread 1.75 s.
_BASE_SECONDS = [1.0, 1.5, 2.0, 2.5, 2.5, 2.5, 3.0, 3.5, 4.0, 4.5]


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

    @pytest.mark.parametrize("this_seconds,won,verdict", [
        ([b / 10 for b in _BASE_SECONDS], 10, "holds"),
        ([9.0, 9.0, *(b / 10 for b in _BASE_SECONDS[2:])], 8, "does not hold"),
        ([b - 0.25 for b in _BASE_SECONDS], 10, "does not hold"),
    ])
    def test_quartiles_and_the_claim_rule_are_reported(self, this_seconds, won, verdict,
                                                       monkeypatch, capsys, tmp_path):
        calls = iter(range(20))

        def child(src, workload, seed):
            r = next(calls) // 2  # the round: one call per tree
            seconds = _BASE_SECONDS[r] if src == tmp_path / "src" else this_seconds[r]
            return {"seconds": seconds, "ops": [["0", "a"]], "argv": ["op-0"]}

        monkeypatch.setattr(ab_cycle, "child", child)
        assert ab_cycle.compare(10, tmp_path, "verify_suite", 1) == 0
        out = capsys.readouterr().out
        base_q1, _, base_q3 = ab_cycle.quartiles(_BASE_SECONDS)
        this_q1, this_med, this_q3 = ab_cycle.quartiles(this_seconds)
        assert f"   q1  {base_q1:8.3f}  {this_q1:8.3f}\n" in out
        assert f"   q3  {base_q3:8.3f}  {this_q3:8.3f}\n" in out
        assert f"claim that this is faster: won {won}/10 (needs 9 in 10), median gap " \
               f"{2.5 - this_med:.3f} s (needs more than the base's Q1-Q3 spread, " \
               f"{base_q3 - base_q1:.3f} s): {verdict}\n" in out

    def test_quartiles_of_one_round_are_its_value(self):
        assert ab_cycle.quartiles([1.5]) == (1.5, 1.5, 1.5)
        assert ab_cycle.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)

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
        ["--base", "HEAD"],
        ["--base", "HEAD", "--bench", "x", "--rounds", "1"],
        ["--base", "HEAD", "--bench", "x", "--workload", "verify_suite"],
    ])
    def test_bad_arguments_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as info:
            ab_cycle.main(argv)
        assert info.value.code == 2


def _harness_copy(tmp_path):
    # A base tree whose benchmark is this tree's.
    base = tmp_path / "base"
    shutil.copytree(ab_cycle.ROOT / "perfbench", base / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".*"))
    shutil.copy(ab_cycle.ROOT / "BENCHMARK.json", base)
    return base


REVS = {"base": "b" * 40, "this": "t" * 40}


DIGESTS = ["984 a591", "156 fabac18e"]


class TestAbBench:
    output_digests = staticmethod(ab_cycle.output_digests)  # before fake_digests replaces it

    @pytest.fixture(autouse=True)
    def fake_digests(self, monkeypatch):
        # Both trees print the same digest lines unless a test says otherwise.
        digests = {}
        monkeypatch.setattr(ab_cycle, "output_digests",
                            lambda tree: digests.get("this" if tree == ab_cycle.ROOT else "base",
                                                     DIGESTS))
        return digests

    def fake_runner(self, base, calls, failed=0):
        # Each tree's metrics follow from the seed: this tree has twice the
        # throughput and half the latency of the base, except at seed 12.
        def bench_run(tree, workload, seed, seconds):
            side = "base" if tree == base else "this"
            calls.append((side, workload, seed, seconds))
            fast = side == "this" and seed != 12
            metrics = {"setup_s": 0.1, "peak_rss_mb": 20.0 + seed,
                       "throughput_ops_s": seed * (2 if fast else 1),
                       "latency_p50_ms": seed / (2 if fast else 1),
                       "latency_p90_ms": 3.0 * seed}
            return {"correct": True, "attempted": 100, "failed": failed if fast else 0,
                    "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}}
        return bench_run

    def test_writes_alternating_pairs_with_one_seed_list(self, monkeypatch, tmp_path, capsys):
        base = _harness_copy(tmp_path)
        calls = []
        monkeypatch.setattr(ab_cycle, "bench_run", self.fake_runner(base, calls))
        target = tmp_path / "BENCH_t.json"
        assert ab_cycle.bench("t", 4, base, 11, target, REVS, seconds=2.5) == 0
        spec = json.loads((ab_cycle.ROOT / "BENCHMARK.json").read_text())
        workloads = [w["name"] for w in spec["workloads"]]
        # Every workload of the benchmark, each over the same seeds and pair order.
        assert calls == [(side, workload, seed, 2.5) for workload in workloads
                         for seed, pair in zip([11, 12, 13, 14], [("base", "this"),
                                                                  ("this", "base")] * 2)
                         for side in pair]
        report = json.loads(target.read_text())
        assert report["label"] == "t" and report["revisions"] == REVS
        assert report["seeds"] == [11, 12, 13, 14] and report["seconds"] == 2.5
        assert report["python"] == ab_cycle.platform.python_version()
        assert report["cpus"] == ab_cycle.os.cpu_count()
        assert list(report["workloads"]) == workloads
        eval_ = report["workloads"]["algebra_eval"]
        assert eval_["first"] == ["base", "this", "base", "this"]
        assert [r["seed"] for r in eval_["runs"]["this"]] == [11, 12, 13, 14]
        assert eval_["runs"]["this"][0] == {
            "seed": 11, "correct": True, "attempted": 100, "failed": 0,
            "metrics": {"setup_s": 0.1, "peak_rss_mb": 31.0, "throughput_ops_s": 22,
                        "latency_p50_ms": 5.5, "latency_p90_ms": 33.0}}
        metrics = eval_["metrics"]
        assert list(metrics) == [m["name"] for m in spec["end_to_end"]]
        # Higher is better for throughput, lower for latency; equal pairs are no win.
        assert metrics["throughput_ops_s"]["won"] == {"base": 0, "this": 3}
        assert metrics["latency_p50_ms"]["won"] == {"base": 0, "this": 3}
        assert metrics["latency_p90_ms"]["won"] == {"base": 0, "this": 0}
        assert metrics["throughput_ops_s"]["base"] == {"median": 12.5, "q1": 11.25, "q3": 13.75}
        assert metrics["throughput_ops_s"]["this"]["median"] == 24.0
        assert metrics["latency_p50_ms"]["better"] == "lower"
        assert "wrote " in capsys.readouterr().out

    @pytest.mark.parametrize("base_digests,code", [
        (DIGESTS, 0), (None, 0), (["984 a591", "156 0000"], 1), (DIGESTS[:1], 1),
    ])
    def test_output_digests_are_recorded_and_compared(self, base_digests, code, fake_digests,
                                                      monkeypatch, tmp_path, capsys):
        base = _harness_copy(tmp_path)
        fake_digests["base"] = base_digests
        monkeypatch.setattr(ab_cycle, "bench_run", self.fake_runner(base, []))
        target = tmp_path / "BENCH_t.json"
        assert ab_cycle.bench("t", 2, base, 1, target, REVS, seconds=1.0) == code
        report = json.loads(target.read_text())
        assert report["digests"] == {"base": base_digests, "this": DIGESTS}
        out = capsys.readouterr().out
        assert ("the output digests of the trees differ" in out) == bool(code)

    def test_output_digests_are_the_lines_of_the_trees_script(self, tmp_path):
        assert self.output_digests(tmp_path) is None  # no tools/output_digest.py
        script = tmp_path / "tools" / "output_digest.py"
        script.parent.mkdir()
        script.write_text("print('3 abc')\nprint('1 def')\n")
        assert self.output_digests(tmp_path) == ["3 abc", "1 def"]
        script.write_text("raise SystemExit('broken')\n")
        with pytest.raises(SystemExit, match="output digest in .* failed:\nbroken"):
            self.output_digests(tmp_path)

    def test_bench_runs_write_bytecode_caches_in_both_trees(self, monkeypatch, tmp_path):
        # A tree that may not cache bytecode compiles at every start: setup_s
        # would then favour the tree that holds caches of earlier runs.
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
        seen = []

        def run(argv, **kwargs):
            seen.append(kwargs["env"])
            return SimpleNamespace(stdout='{"correct": true}\n', stderr="")

        monkeypatch.setattr(ab_cycle.subprocess, "run", run)
        assert ab_cycle.bench_run(tmp_path, "dense_export", 1, 2.0) == {"correct": True}
        env, = seen
        assert "PYTHONDONTWRITEBYTECODE" not in env and env["PATH"] == os.environ["PATH"]

    def test_runs_last_the_benchmarks_run_seconds(self, monkeypatch, tmp_path):
        base = _harness_copy(tmp_path)
        calls = []
        monkeypatch.setattr(ab_cycle, "bench_run", self.fake_runner(base, calls))
        target = tmp_path / "BENCH_t.json"
        assert ab_cycle.bench("t", 2, base, 1, target, REVS) == 0
        run_seconds = json.loads((ab_cycle.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        assert {seconds for *_, seconds in calls} == {run_seconds}
        assert json.loads(target.read_text())["seconds"] == run_seconds

    def test_failed_ops_are_recorded_and_exit_1(self, monkeypatch, tmp_path, capsys):
        base = _harness_copy(tmp_path)
        monkeypatch.setattr(ab_cycle, "bench_run", self.fake_runner(base, [], failed=3))
        target = tmp_path / "BENCH_t.json"
        assert ab_cycle.bench("t", 2, base, 1, target, REVS, seconds=1.0) == 1
        report = json.loads(target.read_text())
        for workload in report["workloads"].values():
            assert [r["failed"] for r in workload["runs"]["this"]] == [3, 3]
            assert [r["failed"] for r in workload["runs"]["base"]] == [0, 0]
        bad = 2 * len(report["workloads"])
        assert f"{bad} runs were not correct or had failed ops" in capsys.readouterr().out

    @pytest.mark.parametrize("change", ["perfbench/run.py", "BENCHMARK.json", "perfbench/new.py"])
    def test_refuses_a_different_benchmark(self, change, monkeypatch, tmp_path):
        base = _harness_copy(tmp_path)
        with open(base / change, "a", encoding="utf-8") as handle:
            handle.write("\n")
        calls = []
        monkeypatch.setattr(ab_cycle, "bench_run", self.fake_runner(base, calls))
        with pytest.raises(SystemExit, match=f"differs between the trees: {change}$"):
            ab_cycle.bench("t", 2, base, 1, tmp_path / "B.json", REVS, seconds=1.0)
        assert calls == [] and not (tmp_path / "B.json").exists()

    def test_generated_files_are_not_part_of_the_benchmark(self, tmp_path):
        base = _harness_copy(tmp_path)
        files = ab_cycle.harness_files(base)
        for extra in ["perfbench/out/trace.tsv.gz", "perfbench/__pycache__/run.pyc",
                      "perfbench/.pytest_cache/x"]:
            (base / extra).parent.mkdir(parents=True, exist_ok=True)
            (base / extra).write_text("x")
        assert ab_cycle.harness_files(base) == files
        assert "perfbench/run.py" in files and "BENCHMARK.json" in files

    def test_a_dirty_tree_is_named_by_a_digest_of_its_changes(self, monkeypatch, tmp_path):
        repo = tmp_path / "repo"
        repo.mkdir()

        def git(*args):
            subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                            *args], check=True, capture_output=True)

        git("init", "-q")
        (repo / ".gitignore").write_text("out/\n")
        (repo / "a.py").write_text("a\n")
        git("add", ".")
        git("commit", "-q", "-m", "one")
        monkeypatch.setattr(ab_cycle, "ROOT", repo)
        clean = ab_cycle.revisions("HEAD")
        assert clean["this"] == clean["base"] and len(clean["base"]) == 40
        # Ignored files leave the tree clean.
        (repo / "out").mkdir()
        (repo / "out" / "x").write_text("x")
        assert ab_cycle.revisions("HEAD") == clean
        # An untracked file alone makes the tree dirty, and its bytes name it.
        (repo / "new.py").write_text("n\n")
        untracked = ab_cycle.revisions("HEAD")["this"]
        assert untracked.startswith(clean["base"] + " with uncommitted changes, sha256 ")
        (repo / "new.py").write_text("m\n")
        assert ab_cycle.revisions("HEAD")["this"] not in (untracked, clean["base"])
        (repo / "new.py").write_text("n\n")
        assert ab_cycle.revisions("HEAD")["this"] == untracked
        # So does a change to a tracked file.
        (repo / "new.py").unlink()
        (repo / "a.py").write_text("b\n")
        edited = ab_cycle.revisions("HEAD")["this"]
        assert edited.startswith(clean["base"] + " with uncommitted changes, sha256 ")
        assert edited != untracked


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

    # What this tree's command line writes for the benchmark ops.  A change
    # that alters output on purpose updates these lines and says so.
    EXPECTED_LINES = [
        "984 a591cd94618484c0dab3f3cf5c1f3c96afeb3fe5ee96b9bb712eb2a79a0e8e90",
        "156 fabac18ec555ef0f6a3bc37e3bf0c45395f09e03df2e1c1d65045819b8e80703",
    ]

    def test_this_tree_prints_the_expected_lines(self):
        run = subprocess.run([sys.executable, str(TOOLS / "output_digest.py")],
                             capture_output=True, text=True, check=True)
        assert run.stdout.splitlines() == self.EXPECTED_LINES
