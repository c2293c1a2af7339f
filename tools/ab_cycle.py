"""Time one benchmark cycle in this tree against a git revision, round by round.

    python tools/ab_cycle.py --base REV --workload W --rounds K [--seed S]

REV is checked out with ``git worktree add`` into a temporary directory,
which is removed again at exit.  Each round starts one fresh interpreter per
tree, in alternating order, and each interpreter runs one cycle of the op
list that this tree's ``perfbench/workloads.py`` builds for W and seed S
(read only, never changed), calling ``gcalg.cli.main`` in process with the
``gcalg`` package of its own tree.  Only the cycle is timed, not the
interpreter start or the imports.

The script prints the seconds of each round, the median per tree and the
rounds each tree won.  It also compares every op's exit code and stdout
between the two trees, in every round, and lists each op that differs by
its index in the cycle and its command line; it then exits 1.  Stderr is
not compared.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_cycle(src: str, workload: str, seed: int) -> dict:
    """One timed cycle with the gcalg package under ``src``: seconds and per-op outputs."""
    sys.path[:0] = [src, str(ROOT / "perfbench")]
    import workloads
    from gcalg import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"gcalg was imported from {cli.__file__}, not from {src}")
    ops = workloads.build(workload, seed)
    outputs = []
    start = time.perf_counter()
    for op in ops:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(op.argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        outputs.append((code, out.getvalue()))
    seconds = time.perf_counter() - start
    return {
        "seconds": seconds,
        "ops": [[repr(code), hashlib.sha256(text.encode("utf-8")).hexdigest()]
                for code, text in outputs],
        "argv": [" ".join(op.argv) for op in ops],
    }


def child(src: Path, workload: str, seed: int) -> dict:
    """``run_cycle`` in a fresh interpreter that writes no bytecode into either tree."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, __file__, "--child", str(src), "--workload", workload,
         "--seed", str(seed)],
        capture_output=True, text=True, env=env, check=False,
    )
    if done.returncode:
        raise SystemExit(f"cycle in {src} failed:\n{done.stderr}")
    return json.loads(done.stdout)


@contextlib.contextmanager
def worktree(rev: str):
    """A detached checkout of ``rev`` in a temporary directory, removed at exit."""
    with tempfile.TemporaryDirectory(prefix="ab_cycle-") as tmp:
        path = Path(tmp) / "base"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(path), rev], check=True)
        try:
            yield path
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(path)],
                           check=False)


def compare(rounds: int, base: Path, workload: str, seed: int) -> int:
    trees = {"base": base / "src", "this": ROOT / "src"}
    seconds = {name: [] for name in trees}
    mismatches: dict[int, str] = {}
    print(f"{workload}, seed {seed}: seconds per cycle")
    print(f"{'round':>5}  {'base':>8}  {'this':>8}")
    for r in range(rounds):
        order = ("base", "this") if r % 2 == 0 else ("this", "base")
        results = {name: child(trees[name], workload, seed) for name in order}
        for name in trees:
            seconds[name].append(results[name]["seconds"])
        # Both trees ran the same op list, so ops pair up by index.
        this = results["this"]
        for i, (a, b) in enumerate(zip(results["base"]["ops"], this["ops"])):
            if a != b:
                mismatches[i] = this["argv"][i]
        print(f"{r + 1:>5}  {seconds['base'][-1]:8.3f}  {seconds['this'][-1]:8.3f}")
    med = {name: statistics.median(values) for name, values in seconds.items()}
    won = sum(t < b for b, t in zip(seconds["base"], seconds["this"]))
    print(f"{'median':>5}  {med['base']:8.3f}  {med['this']:8.3f}  "
          f"(base/this {med['base'] / med['this']:.3f})")
    print(f"won: base {rounds - won}/{rounds}, this {won}/{rounds}")
    if not mismatches:
        print(f"outputs: all {len(this['ops'])} ops give the same exit code and stdout")
        return 0
    print(f"outputs: {len(mismatches)} ops differ in exit code or stdout")
    for i, argv in sorted(mismatches.items()):
        print(f"  op {i}: {argv}")
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git revision to compare against")
    parser.add_argument("--workload", required=True,
                        choices=("verify_suite", "algebra_eval", "dense_export"))
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(run_cycle(args.child, args.workload, args.seed)))
        return 0
    if not args.base:
        parser.error("--base is required")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    with worktree(args.base) as base:
        return compare(args.rounds, base, args.workload, args.seed)


if __name__ == "__main__":
    raise SystemExit(main())
