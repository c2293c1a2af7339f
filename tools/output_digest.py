"""Print digests of what the gcalg command line writes for the benchmark ops.

Runs seeds 1-3 of every op list in perfbench/workloads.py through
``gcalg.cli.main``, in process, and prints the number of ops and one sha256
over each op's exit code and stdout, in op order.  Two trees that print the
same line gave every op the same exit code and the same stdout bytes.
Stderr is not hashed.

No benchmark op writes text, so a second line does the same for the
``dense_export`` ops of seeds 1-3 re-run with ``--format text``: it covers
the text writer of ``matrix`` and ``gram``.

Run from anywhere:  python tools/output_digest.py
The gcalg package is imported from src/ next to this script's parent
directory, and perfbench/workloads.py is read from there too (not changed).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


def digest(cli, ops) -> str:
    """The op count and one sha256 over each op's exit code and stdout."""
    total = hashlib.sha256()
    count = 0
    for op in ops:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(op.argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        text = out.getvalue().encode("utf-8")
        total.update(b"%r %d\n" % (code, len(text)) + text)
        count += 1
    return f"{count} {total.hexdigest()}"


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from gcalg import cli

    print(digest(cli, (op for workload in workloads.WORKLOADS for seed in SEEDS
                       for op in workloads.build(workload, seed))))
    print(digest(cli, (dataclasses.replace(op, fmt="text") for seed in SEEDS
                       for op in workloads.build("dense_export", seed))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
