"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

A smoke run of each workload with its checks on, a fault injected into the
program that every workload must catch, repeatable traced counts, and the
refusal to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

# The cheapest verify contexts keep the smoke and fault runs short.
SMALL_VERIFY = {(2, 4, "+"), (2, 4, "-"), (4, 2, "+"), (5, 2, None)}


def _ops(workload: str, seed: int = 5):
    ops = workloads.build(workload, seed)
    if workload == "verify_suite":
        ops = [op for op in ops if (op.N, op.n, op.sign) in SMALL_VERIFY]
    return ops, [op.argv for op in ops]


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_cycle_passes_checks(cli, workload):
    ops, argvs = _ops(workload)
    latencies = []
    with run.Client(cli) as client:
        busy = client.cycle(ops, argvs, latencies)
    assert client.attempted == len(ops) == len(latencies)
    assert (client.failed, client.wrong) == (0, 0), client.first_error
    assert busy > 0


def test_workload_inputs_follow_the_seed():
    for workload in workloads.WORKLOADS:
        first = [op.argv for op in workloads.build(workload, 11)]
        assert first == [op.argv for op in workloads.build(workload, 11)]
        assert first != [op.argv for op in workloads.build(workload, 12)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_sign_flip_in_apply_odd_fails_ops(cli, monkeypatch, workload):
    from gcalg import rep

    original = rep.apply_odd
    monkeypatch.setattr(rep, "apply_odd", lambda k, state: -1 * original(k, state))
    ops, argvs = _ops(workload)
    with run.Client(cli) as client:
        client.cycle(ops, argvs, [])
    assert client.failed > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat(cli, workload):
    ops, argvs = _ops(workload)
    counts = []
    for _ in range(2):
        with run.Client(cli) as client:
            metrics = run.measure_traced(client, workload, 5, ops, argvs)
        assert client.failed == 0, client.first_error
        counts.append({name: value for name, (value, _) in metrics.items()
                       if name.endswith(".calls")})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_tracer_restores_the_program(cli):
    from gcalg import axioms, cyclo, expr, rep

    before = (rep.apply_odd, axioms.normal_order, expr.apply_element,
              cyclo.CycloScalar.__mul__, cyclo.CycloScalar.__rmul__)
    with Tracer() as tracer:
        assert rep.apply_odd is not before[0]
        assert axioms.normal_order is not before[1]
        assert expr.apply_element is not before[2]
        assert cyclo.CycloScalar.__rmul__ is cyclo.CycloScalar.__mul__
        cli.main(["eval", "--N", "3", "--n", "1", "--format", "json", "c[1] c[2]"])
    assert (rep.apply_odd, axioms.normal_order, expr.apply_element,
            cyclo.CycloScalar.__mul__, cyclo.CycloScalar.__rmul__) == before
    summary = tracer.summary()
    assert summary["cli"]["calls"] == 1
    assert summary["expr.parse"]["calls"] == 1
    for row in summary.values():
        assert 0 <= row["self_ns"] <= row["total_ns"]


def test_refuses_to_run_without_the_program(tmp_path):
    root = tmp_path / "checkout"
    shutil.copytree(HERE, root / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", root / "BENCHMARK.json")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
