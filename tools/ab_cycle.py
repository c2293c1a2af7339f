"""Compare this tree with a git revision: one-cycle timings, or a BENCH file.

    python tools/ab_cycle.py --base REV --workload W --rounds K [--seed S]
    python tools/ab_cycle.py --base REV --bench LABEL --rounds K [--seed S]

REV is exported with ``git archive``, and this tree copied, into sibling
directories of one temporary directory, which is removed again at exit; both
trees run from there, so that neither is favoured by where it lies.  The
copy holds this tree's working files that git tracks or would track
(untracked files that ``.gitignore`` does not exclude).  Both modes alternate
which tree runs first, round by round.

Without ``--bench``, each round starts one fresh interpreter per tree, and
each interpreter runs one cycle of the op list that this tree's
``perfbench/workloads.py`` builds for W and seed S (read only, never
changed), calling ``gcalg.cli.main`` in process with the ``gcalg`` package
of its own tree.  Only the cycle is timed, not the interpreter start or the
imports.  The script prints the seconds of each round, the median, Q1 and
Q3 per tree and the rounds each tree won, and whether a claim that this
tree is faster holds: it must win at least 9 in 10 rounds, and its median
must beat the base's by more than the base's Q1-Q3 spread.  It also
compares every op's exit code and stdout between the two trees, in every
round, and lists each op that differs by its index in the cycle and its
command line; it then exits 1.  Stderr is not compared.

With ``--bench LABEL``, round r runs ``perfbench/run.py --trace 0`` with seed
S + r for ``run_seconds`` of ``BENCHMARK.json`` in each tree, on every
workload that file lists, each tree's benchmark on its own source.  It
refuses to start when ``BENCHMARK.json`` or the files under ``perfbench/``
differ between the trees.  It writes ``BENCH_LABEL.json`` next to
``BENCHMARK.json``: both revisions, the Python version and CPU count, and
per workload each run's ``correct``, ``failed`` and end-to-end metrics, then
per metric each tree's median, Q1 and Q3 and the rounds each tree won by the
metric's ``better``.  Both trees' runs write bytecode caches, whatever
``PYTHONDONTWRITEBYTECODE`` says.  When this tree differs from its commit
(untracked files included), the revision names the commit and a sha256 of
the differences, so that the runs can be matched to the code that made them.
Under ``"digests"`` it records the lines each tree's
``tools/output_digest.py`` prints, or null for a tree without that script.
It exits 1 when some run was not correct or had failed ops, or when both
trees have digests and they differ.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
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


def _git(*args) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          check=True).stdout


def _working_files() -> list[str]:
    """This tree's files that git tracks or would track, by relative path.

    These are the files whose changes ``revisions`` digests; a tracked file
    deleted from the working tree is left out.
    """
    names = _git("ls-files", "--cached", "--others", "--exclude-standard", "-z").split(b"\0")
    return [name.decode() for name in names if name and (ROOT / name.decode()).is_file()]


@contextlib.contextmanager
def checkout(rev: str):
    """``rev`` and a copy of this tree in sibling directories, removed at exit.

    Yields the paths ``base`` and ``this`` of one temporary directory.
    """
    with tempfile.TemporaryDirectory(prefix="ab_cycle-") as tmp:
        base, this = Path(tmp, "base"), Path(tmp, "this")
        base.mkdir()
        subprocess.run(["tar", "-x", "-C", str(base)], input=_git("archive", rev), check=True)
        for name in _working_files():
            (this / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, this / name)
        yield base, this


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Q1, median and Q3 of ``values``; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def compare(rounds: int, base: Path, this: Path, workload: str, seed: int) -> int:
    trees = {"base": base / "src", "this": this / "src"}
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
    (base_q1, base_med, base_q3), (q1, med, q3) = map(quartiles, seconds.values())
    won = sum(t < b for b, t in zip(seconds["base"], seconds["this"]))
    print(f"{'median':>5}  {base_med:8.3f}  {med:8.3f}  (base/this {base_med / med:.3f})")
    print(f"{'q1':>5}  {base_q1:8.3f}  {q1:8.3f}")
    print(f"{'q3':>5}  {base_q3:8.3f}  {q3:8.3f}")
    print(f"won: base {rounds - won}/{rounds}, this {won}/{rounds}")
    gap, spread = base_med - med, base_q3 - base_q1
    holds = 10 * won >= 9 * rounds and gap > spread
    print(f"claim that this is faster: won {won}/{rounds} (needs 9 in 10), median gap "
          f"{gap:.3f} s (needs more than the base's Q1-Q3 spread, {spread:.3f} s): "
          f"{'holds' if holds else 'does not hold'}")
    if not mismatches:
        print(f"outputs: all {len(this['ops'])} ops give the same exit code and stdout")
        return 0
    print(f"outputs: {len(mismatches)} ops differ in exit code or stdout")
    for i, argv in sorted(mismatches.items()):
        print(f"  op {i}: {argv}")
    return 1


def harness_files(tree: Path) -> dict[str, bytes]:
    """``BENCHMARK.json`` and the files under ``perfbench/``, by relative path.

    Generated files are left out: anything under ``out/``, ``__pycache__/``
    or a directory whose name starts with a dot.
    """
    paths = [tree / "BENCHMARK.json", *(tree / "perfbench").rglob("*")]
    return {
        path.relative_to(tree).as_posix(): path.read_bytes()
        for path in sorted(paths)
        if path.is_file() and not any(part in ("out", "__pycache__") or part.startswith(".")
                                      for part in path.relative_to(tree).parts)
    }


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` in ``tree``: its result line, parsed.

    Bytecode caches are written as by any run, so that ``setup_s`` compiles
    the sources in neither tree after the first run.  ``PYTHONDONTWRITEBYTECODE``
    is dropped from the run's environment: with it, every start would compile
    the sources, which the benchmark's own runs do not.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    done = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True, check=False,
    )
    try:
        return json.loads(done.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"benchmark in {tree} gave no result line:\n{done.stderr}") from None


def output_digests(tree: Path) -> list[str] | None:
    """The lines ``tools/output_digest.py`` of ``tree`` prints, or None without that script."""
    script = tree / "tools" / "output_digest.py"
    if not script.is_file():
        return None
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          check=False)
    if done.returncode:
        raise SystemExit(f"output digest in {tree} failed:\n{done.stderr}")
    return done.stdout.splitlines()


def revisions(base_rev: str) -> dict[str, str]:
    """The commits of both trees; a dirty tree also gets a digest of its changes.

    The digest is a sha256 over ``git diff HEAD --binary`` and the path and
    bytes of every untracked file that ``.gitignore`` does not exclude.
    """
    def commit(rev):
        return _git("rev-parse", f"{rev}^{{commit}}").decode().strip()

    this = commit("HEAD")
    if _git("status", "--porcelain"):
        digest = hashlib.sha256(_git("diff", "HEAD", "--binary"))
        for name in _git("ls-files", "--others", "--exclude-standard", "-z").split(b"\0"):
            if name:
                digest.update(b"\0" + name + b"\0" + (ROOT / name.decode()).read_bytes())
        this += f" with uncommitted changes, sha256 {digest.hexdigest()}"
    return {"base": commit(base_rev), "this": this}


def summarize(runs: dict, metrics: list[dict]) -> dict:
    """Per end-to-end metric: each tree's median, Q1 and Q3, and the rounds each won."""
    out = {}
    for metric in metrics:
        name = metric["name"]
        values = {side: [run["metrics"][name] for run in runs[side]] for side in runs}
        sign = 1 if metric["better"] == "higher" else -1
        won = sum(sign * (t - b) > 0 for b, t in zip(values["base"], values["this"]))
        lost = sum(sign * (t - b) < 0 for b, t in zip(values["base"], values["this"]))
        out[name] = {"unit": metric["unit"], "better": metric["better"]}
        for side, series in values.items():
            q1, median, q3 = quartiles(series)
            out[name][side] = {"median": median, "q1": q1, "q3": q3}
        out[name]["won"] = {"base": lost, "this": won}
    return out


def bench(label: str, rounds: int, base: Path, this: Path, seed: int, target: Path,
          revs: dict[str, str], seconds: float | None = None) -> int:
    """Alternating ``run.py`` pairs in both trees, summarized into ``target``.

    Every workload of ``BENCHMARK.json`` runs for its ``run_seconds``;
    ``seconds`` only shortens the runs in tests.
    """
    ours = harness_files(this)
    theirs = harness_files(base)
    if differ := sorted(p for p in ours.keys() | theirs.keys() if ours.get(p) != theirs.get(p)):
        raise SystemExit(f"the benchmark differs between the trees: {', '.join(differ)}")
    spec = json.loads(ours["BENCHMARK.json"])
    seconds = spec["run_seconds"] if seconds is None else seconds
    report = {
        "label": label,
        "revisions": revs,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "seconds": seconds,
        "seeds": [seed + r for r in range(rounds)],
        "workloads": {},
    }
    trees = {"base": base, "this": this}
    report["digests"] = digests = {side: output_digests(tree) for side, tree in trees.items()}
    differ = None not in digests.values() and digests["base"] != digests["this"]
    print(f"output digests: base {digests['base']}, this {digests['this']}", flush=True)
    bad = 0
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {"base": [], "this": []}
        first = []
        for r, run_seed in enumerate(report["seeds"]):
            order = ("base", "this") if r % 2 == 0 else ("this", "base")
            first.append(order[0])
            for side in order:
                result = bench_run(trees[side], workload, run_seed, seconds)
                bad += not result["correct"] or result["failed"] > 0
                runs[side].append({
                    "seed": run_seed, "correct": result["correct"],
                    "attempted": result["attempted"], "failed": result["failed"],
                    "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                })
            print(f"{workload} round {r + 1}/{rounds} (seed {run_seed}, {order[0]} first)",
                  flush=True)
        summary = summarize(runs, spec["end_to_end"])
        report["workloads"][workload] = {"first": first, "runs": runs, "metrics": summary}
        for name, m in summary.items():
            print(f"  {name}: base {m['base']['median']:.4g}, this {m['this']['median']:.4g} "
                  f"{m['unit']}; won base {m['won']['base']}, this {m['won']['this']}")
    target.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {target}")
    if bad:
        print(f"{bad} runs were not correct or had failed ops")
    if differ:
        print("the output digests of the trees differ")
    return 1 if bad or differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git revision to compare against")
    parser.add_argument("--workload", choices=("verify_suite", "algebra_eval", "dense_export"),
                        help="the workload of a cycle comparison (not with --bench)")
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--bench", metavar="LABEL",
                        help="write BENCH_LABEL.json from perfbench/run.py pairs")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(run_cycle(args.child, args.workload, args.seed)))
        return 0
    if not args.base:
        parser.error("--base is required")
    if bool(args.bench) == bool(args.workload):
        parser.error("give either --workload or --bench")
    if args.rounds < (2 if args.bench else 1):
        parser.error(f"--rounds must be at least {2 if args.bench else 1}")
    with checkout(args.base) as (base, this):
        if args.bench:
            return bench(args.bench, args.rounds, base, this, args.seed,
                         ROOT / f"BENCH_{args.bench}.json", revisions(args.base))
        return compare(args.rounds, base, this, args.workload, args.seed)


if __name__ == "__main__":
    raise SystemExit(main())
