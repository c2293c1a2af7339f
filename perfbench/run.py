"""Closed-loop benchmark of the gcalg command line: verify, eval and dense export.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client, one thread: each op calls ``gcalg.cli.main(argv)`` in this
process and the next op starts when it returns.  Every op's output is
checked outside the timed region by the independent reference in
``reference.py``, which runs in a process of its own.  A run repeats whole
cycles of the workload's op list until at least ``--seconds`` of op time
and ``MIN_OPS`` ops are done.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).

``--trace 1`` runs a fixed op count instead of a fixed duration: one
warm-up cycle, the same cycle untraced, then again with spans around each
layer's public functions (``spans.py``).  Counts per op therefore repeat exactly for a
given seed.  The spans are written to ``perfbench/out/``.

The program is imported from ``src/`` next to this directory; nothing is
installed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

import workloads  # noqa: E402  (sibling module; the script's directory is on sys.path)

# Fresh interpreter starts per run; setup_s is their median.
SETUP_STARTS = 11
# At least this many ops per run, so that ten or more lie beyond p90.
MIN_OPS = 100
# No new cycle starts after this much wall time, so a run on a slow host
# still ends well within three minutes.
WALL_LIMIT_S = 140.0


def import_cli():
    """Import gcalg.cli from this checkout's src/ (and nowhere else)."""
    sys.path.insert(0, str(SRC))
    import gcalg.cli

    origin = Path(gcalg.cli.__file__).resolve().parent.parent
    if origin != SRC:
        raise ImportError(f"gcalg was imported from {origin}, not from {SRC}")
    return gcalg.cli


def setup(workload: str, seed: int):
    """What a fresh interpreter does before its first op: import and build inputs."""
    cli = import_cli()
    ops = workloads.build(workload, seed)
    return cli, ops, [op.argv for op in ops]


def fresh_start(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its first op being ready."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-child",
            "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=60)
    if line != b"ready\n" or code != 0:
        raise RuntimeError(f"set-up child exited with code {code} before its first op was ready")
    return elapsed


class Checker:
    """The reference in a process of its own (``reference.py``), asked op by op."""

    def __init__(self):
        env = dict(os.environ)
        # Single-threaded BLAS: no idle worker threads next to the ops.
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        self.proc = subprocess.Popen([sys.executable, str(HERE / "reference.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)

    def check(self, op, text: str) -> bool:
        request = pickle.dumps((op, text))
        self.proc.stdin.write(b"%d\n" % len(request) + request)
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if reply not in (b"1\n", b"0\n"):
            raise RuntimeError("the reference checker stopped answering")
        return reply == b"1\n"

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Client:
    """Runs ops in process, times them, and has every output checked."""

    def __init__(self, cli):
        self.cli = cli
        self.checker = Checker()
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.first_error: str | None = None

    def __enter__(self) -> Client:
        return self

    def __exit__(self, *exc) -> None:
        self.checker.close()

    def _invoke(self, argv):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except SystemExit as exc:       # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:               # a fault in the program fails this op only
            code = None
            err.write(traceback.format_exc())
        return code, out.getvalue(), err.getvalue()

    def cycle(self, ops, argvs, latencies: list[float]) -> float:
        """Run one whole cycle; return the op time it took."""
        busy = 0.0
        for op, argv in zip(ops, argvs):
            t0 = time.perf_counter()
            code, text, err = self._invoke(argv)
            dt = time.perf_counter() - t0
            busy += dt
            latencies.append(dt)
            self.attempted += 1
            if code == 0 and self.checker.check(op, text):
                continue
            # An op fails when the program reports an error or its output
            # disagrees with the reference; a disagreement behind exit 0 is
            # a silent wrong answer and also clears `correct`.
            self.failed += 1
            if code == 0:
                self.wrong += 1
            if self.first_error is None:
                self.first_error = (f"{' '.join(argv)}: exit {code}, "
                                    f"{'output differs from the reference' if code == 0 else err.strip()}")
        return busy


def measure(client: Client, workload: str, seed: int, ops, argvs, seconds: float) -> dict:
    """Untraced run: whole cycles until `seconds` of op time and MIN_OPS ops."""
    latencies: list[float] = []
    cycle_rates: list[float] = []
    setup_times: list[float] = []
    busy = 0.0
    wall0 = time.perf_counter()
    while True:
        # Spread the fresh starts over the run instead of bunching them.
        while len(setup_times) < SETUP_STARTS and busy >= len(setup_times) * seconds / SETUP_STARTS:
            setup_times.append(fresh_start(workload, seed))
        cycle_busy = client.cycle(ops, argvs, latencies)
        busy += cycle_busy
        cycle_rates.append(len(ops) / cycle_busy)
        if busy >= seconds and len(latencies) >= MIN_OPS:
            break
        if time.perf_counter() - wall0 > WALL_LIMIT_S:
            break
    while len(setup_times) < SETUP_STARTS:
        setup_times.append(fresh_start(workload, seed))
    deciles = statistics.quantiles(latencies, n=10)
    print(f"{workload} seed={seed}: {len(latencies)} ops in {len(cycle_rates)} cycles, "
          f"{busy:.2f} s op time, cycle rates {min(cycle_rates):.3f}..{max(cycle_rates):.3f} ops/s, "
          f"set-up starts {', '.join(f'{t:.3f}' for t in setup_times)} s")
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "throughput_ops_s": (statistics.median(cycle_rates), "1/s"),
        "latency_p50_ms": (deciles[4] * 1e3, "ms"),
        "latency_p90_ms": (deciles[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


# Per-layer metrics: (metric, span name, field), each divided by the op count.
LAYER_METRICS = (
    *((f"axioms.{check}.ms", f"axioms.{check}", "total_ns") for check in (
        "zeta_root", "unitarity", "order", "commutation", "ground_identity",
        "projector_identity", "orthonormal_basis", "power_formula", "homomorphism",
    )),
    ("rep.apply_generator.calls", "rep.apply_generator", "calls"),
    ("rep.apply_generator.self_ms", "rep.apply_generator", "self_ns"),
    ("rep.state_eq.calls", "rep.state_eq", "calls"),
    *((f"cyclo.{op}.{field}", f"cyclo.{op}", raw) for op in ("mul", "add", "eq", "is_zero")
      for field, raw in (("calls", "calls"), ("self_ms", "self_ns"))),
    ("symbolic.normal_order.calls", "symbolic.normal_order", "calls"),
    ("symbolic.normal_order.self_ms", "symbolic.normal_order", "self_ns"),
    ("symbolic.monomial_mul.calls", "symbolic.monomial_mul", "calls"),
    ("symbolic.element_mul.calls", "symbolic.element_mul", "calls"),
    ("symbolic.element_mul.self_ms", "symbolic.element_mul", "self_ns"),
    ("symbolic.adjoint.calls", "symbolic.adjoint", "calls"),
    ("symbolic.adjoint.self_ms", "symbolic.adjoint", "self_ns"),
    ("expr.parse.ms", "expr.parse", "total_ns"),
    ("expr.eval.ms", "expr.eval", "total_ns"),
    ("expr.print.ms", "expr.print", "total_ns"),
    ("rep.apply_element.calls", "rep.apply_element", "calls"),
    ("rep.apply_element.self_ms", "rep.apply_element", "self_ns"),
    ("rep.scalar_product.calls", "rep.scalar_product", "calls"),
    ("rep.scalar_product.self_ms", "rep.scalar_product", "self_ns"),
    ("rep.dense_matrix.self_ms", "rep.dense_matrix", "self_ns"),
    ("cyclo.to_complex.calls", "cyclo.to_complex", "calls"),
    ("cli.self_ms", "cli", "self_ns"),
)


def measure_traced(client: Client, workload: str, seed: int, ops, argvs) -> dict:
    """Fixed op count: a warm-up cycle, the cycle untraced, then traced."""
    from spans import Tracer

    client.cycle(ops, argvs, [])    # fills the program's caches before either timing
    untraced = client.cycle(ops, argvs, [])
    with Tracer() as tracer:
        traced = client.cycle(ops, argvs, [])
    count = len(ops)
    summary = tracer.summary()
    OUT.mkdir(exist_ok=True)
    spans = tracer.write(OUT / f"trace_{workload}.tsv.gz")
    overhead = 100.0 * (traced / untraced - 1.0)
    print(f"{workload} seed={seed}: traced {count} ops, {spans} spans, "
          f"{count / untraced:.3f} ops/s untraced, {count / traced:.3f} ops/s traced")
    metrics = {}
    for metric, span, field in LAYER_METRICS:
        raw = summary.get(span, {}).get(field, 0)
        if field == "calls":
            metrics[metric] = (raw / count, "calls/op")
        else:
            metrics[metric] = (raw / 1e6 / count, "ms/op")
    metrics["trace.overhead_pct"] = (overhead, "%")
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_child:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    cli, ops, argvs = setup(args.workload, args.seed)
    with Client(cli) as client:
        if args.trace:
            metrics = measure_traced(client, args.workload, args.seed, ops, argvs)
        else:
            metrics = measure(client, args.workload, args.seed, ops, argvs, args.seconds)
    if client.first_error:
        print(f"first failed op: {client.first_error}", file=sys.stderr)
    result = {
        "correct": client.wrong == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if client.wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
