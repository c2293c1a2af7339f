"""Command-line front-end: verify axioms, evaluate expressions, export matrices.

Exit status contract: 0 on success (all checks passing), 1 on runtime or
check failure, 2 on usage errors.  Identical inputs and seeds produce
byte-identical output.

The argument parser is built once per process, on the first ``main`` call
(not at import), and shared by every later call.  Parsing keeps no state
between calls: every default is immutable, and help and usage errors are
written to whatever ``sys.stdout`` and ``sys.stderr`` are at call time.  A
fresh ``gcalg`` process builds it once either way; a caller that runs
``main`` many times in one process (the benchmark, the tests, the tools)
skips the rebuild, about 1 ms per call.

Dense exports (``matrix``, ``gram``) have D^2 cells for dimension D, but at
most D * terms of them are nonzero.  So both are held as ``rep.dense_matrix``
rows, maps from column position to nonzero entry; ``gram`` writes
``rep.gram``, the same Gram matrix that the orthonormal-basis check compares
with the identity.  ``matrix`` reads each term's action off the generator
tables and refuses, before any work, an element whose terms times D exceed
``rep.MAX_EXPORT_WORK`` (a ``DenseCapError``, one line and exit 1).  It
checks every stored entry, each object once, before the first byte is
written, and the writer encodes the zero cell once and each distinct stored
map once, writing each row as it is encoded.  A JSON cell is written from
the fixed layout that ``json.dumps`` gives it, with no encoder built per
cell; a CSV field is quoted by ``csv`` once, and a row is one comma join.
So ``gram --N 2 --n 12 --format csv`` writes its 100.7 MB in about 0.6-0.9 s
(whole process, Python 3.11, 2-vCPU host).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _json_string
from types import SimpleNamespace

from . import axioms, expr, rep
from .cyclo import AlgebraContext
from .rep import DENSE_CAP_DEFAULT, DenseCapError


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--N", type=int, required=True, metavar="N",
                        help=f"order of the generators (2 to {MAX_N})")
    common.add_argument("--n", type=int, default=1, metavar="QUDITS",
                        help=f"number of qudits (1 to {MAX_QUDITS}, default 1)")
    common.add_argument("--zeta-sign", choices=["+", "-"], default=None,
                        help="square root of q: '+' for +exp(i*pi/N) (even N only), "
                             "'-' for -exp(i*pi/N)")
    common.add_argument("--format", choices=["json", "csv", "text"], default="text",
                        help="output format (default text)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for randomized checks (default 0)")
    common.add_argument("--dense-cap", type=int, default=DENSE_CAP_DEFAULT,
                        help="largest dimension N^n that verify, matrix and gram accept "
                             f"(default {DENSE_CAP_DEFAULT})")
    common.add_argument("--output", default=None, metavar="PATH",
                        help="write output to PATH instead of stdout")
    return common


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="gcalg",
        description="Exact generalized Clifford algebra toolkit: verification, "
                    "evaluation, and matrix export.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", parents=[common],
                            help="run the identity-verification suite")
    verify.add_argument("--checks", nargs="+", choices=axioms.ALL_CHECKS, default=None,
                        metavar="NAME",
                        help=f"subset of checks to run (default all): {', '.join(axioms.ALL_CHECKS)}")
    evaluate = sub.add_parser("eval", parents=[common],
                              help="evaluate an element, state, or bra-ket expression")
    evaluate.add_argument("expression")
    matrix = sub.add_parser("matrix", parents=[common],
                            help="export the dense matrix of an element expression")
    matrix.add_argument("expression")
    sub.add_parser("gram", parents=[common],
                   help="export the Gram matrix of the ordered basis vectors")
    return parser


def _write(args, chunks) -> int:
    """Write the output chunks as they come; return 1 after a one-line error if writing fails."""
    try:
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.writelines(chunks)
        else:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
    except OSError as exc:
        print(f"error: {args.output or 'stdout'}: {exc.strerror or exc}", file=sys.stderr)
        if not args.output:
            _discard_stdout()
        return 1
    return 0


def _discard_stdout() -> None:
    # What a failed write left in the stdout buffer would fail again, with a
    # second message, when the interpreter flushes stdout at exit.
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):
        return  # no descriptor of its own: nothing is flushed at exit
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


# The largest --N accepted.  The first zero test in a context builds Phi_2N by
# exact polynomial division over the divisors of 2N, whose cost grows fast
# with N: at N = 255 one 4-term zero test takes about 0.06 s, at N = 1001 1 s.
MAX_N = 256

# The largest --n accepted.  Every element term stores a 2n-long exponent
# tuple, so eval's time and memory grow linearly in n; --dense-cap bounds
# only the commands that build length-N^n tables.
MAX_QUDITS = 1024

# Float approximations (JSON "approx", CSV cells) are refused for coefficients
# of magnitude 2^FLOAT_BITS or more, so every sum in to_complex stays finite.
FLOAT_BITS = 1000


def _check_printable(scalars, fmt: str) -> None:
    """Raise UnprintableError when some coefficient of ``scalars`` cannot be written.

    Text and JSON write exact coefficients, bounded by ``expr.check_digit_limit``;
    JSON and CSV also write float approximations.
    """
    values = [v for scalar in scalars for v in scalar.coeffs.values()]
    if fmt != "csv":
        expr.check_digit_limit(values)
    if fmt != "text" and any(abs(v.numerator) >> FLOAT_BITS >= v.denominator for v in values):
        raise expr.UnprintableError(
            f"result too large to print: a coefficient of magnitude 2^{FLOAT_BITS} "
            "or more has no float approximation"
        )


def _approx(value) -> str:
    z = value.to_complex()
    return f"{z.real:.12g},{z.imag:.12g}"


def _json_cell(value) -> str:
    """One cell as ``json.dumps(matrix, indent=2)`` writes it, two levels deep.

    The layout is the one that ``json.dumps`` gives ``CycloScalar.to_json``;
    the leaves are written by the json module's own rules: ints, strings by
    ``encode_basestring_ascii`` and floats by ``float.__repr__`` (``!r``),
    which ``_check_printable`` keeps finite.
    """
    z = value.to_complex()
    coeffs = ",".join(f"\n        [\n          {k},\n          {_json_string(str(v))}\n        ]"
                      for k, v in sorted(value.coeffs.items()))
    coeffs = f"[{coeffs}\n      ]" if coeffs else "[]"
    return (f'{{\n      "order": {value.order},\n      "coeffs": {coeffs},\n      "approx": {{'
            f'\n        "re": {z.real!r},\n        "im": {z.imag!r}\n      }}\n    }}')


def _matrix_chunks(rows, fmt: str, ctx):
    """Yield a dense export row by row, byte for byte as the per-cell writers give it.

    ``rows`` are shaped as ``rep.dense_matrix`` returns them.  JSON is
    ``json.dumps(cells, indent=2)``, each cell written by ``_json_cell``;
    CSV is ``csv.writer`` over ``_approx``, each cell's field quoted by a
    one-field ``writerow`` and each row joined by commas; text is
    tab-joined ``print_canonical``.  The zero cell is encoded
    once and each distinct stored map once: entries are keyed by their
    stored map in stored order (``to_complex`` sums in that order), and
    an int and an equal Fraction coefficient, equal keys, encode alike.
    An entry object met again (``dense_matrix`` shares them) is found by
    its id first, which spares hashing its map; Fractions hash slowly.
    """
    opening = between = closing = ""
    if fmt == "json":
        encode = _json_cell
        line = lambda cells: "[\n    " + ",\n    ".join(cells) + "\n  ]"
        opening, between, closing = "[\n  ", ",\n  ", "\n]\n"
    elif fmt == "csv":
        # csv.writer quotes each field on its own, so a row is its cells'
        # one-field lines, without their "\r\n", joined by commas.  (A row of
        # one empty field would differ, but _approx is never empty.)
        # writerow returns what write returns: here the encoded line itself.
        field = csv.writer(SimpleNamespace(write=str)).writerow
        encode = lambda cell: field([_approx(cell)])[:-2]
        line = lambda cells: ",".join(cells) + "\r\n"
    else:
        encode = lambda cell: expr.print_canonical(cell, ctx)
        line = lambda cells: "\t".join(cells) + "\n"
    zeros = [encode(ctx.zero())] * ctx.dim
    encoded = {}  # stored map, in stored order -> its encoding
    by_id = {}  # id of an entry (the rows keep it alive) -> its encoding
    separator = opening
    for row in rows:
        cells = zeros.copy()
        for j, entry in row.items():
            text = by_id.get(id(entry))
            if text is None:
                key = tuple(entry.coeffs.items())
                text = encoded.get(key)
                if text is None:
                    text = encoded[key] = encode(entry)
                by_id[id(entry)] = text
            cells[j] = text
        yield separator + line(cells)
        separator = between
    yield closing


def cmd_verify(args, parser) -> int:
    ctx = _context(args, parser)
    if args.format == "csv":
        parser.error("csv output is not available for verify")
    rep.check_dense_cap(ctx, args.dense_cap)
    reports = axioms.run_suite(ctx, args.checks, seed=args.seed)
    if args.format == "json":
        text = json.dumps(axioms.suite_report(ctx, reports), indent=2) + "\n"
    else:
        lines = []
        for report in reports:
            status = "PASS" if report.passed else "FAIL"
            line = f"{report.name}: {status}"
            if report.counterexample:
                line += f" ({report.counterexample})"
            lines.append(line)
        failed = sum(1 for r in reports if not r.passed)
        lines.append(f"{len(reports) - failed}/{len(reports)} checks passed")
        text = "\n".join(lines) + "\n"
    return _write(args, [text]) or (0 if all(r.passed for r in reports) else 1)


def cmd_eval(args, parser) -> int:
    ctx = _context(args, parser)
    if args.format == "csv":
        parser.error("csv output is not available for eval")
    ast = expr.parse(args.expression)
    if ast.kind == "sandwich":
        kind, value = "scalar", expr.eval_scalar(ast, ctx)
    elif ast.kind == "apply":
        kind, value = "state", expr.eval_state(ast, ctx)
    else:
        kind, value = "element", expr.eval_element(ast, ctx)
    _check_printable([value] if kind == "scalar" else value.terms.values(), args.format)
    canonical = expr.print_canonical(value, ctx)
    if args.format == "json":
        payload = {"kind": kind, "canonical": canonical}
        if kind == "scalar":
            payload["scalar"] = value.to_json()
        elif kind == "state":
            payload["state"] = rep.state_to_json(value)
        else:
            payload["terms"] = [
                {"exps": list(exps), "coeff": coeff.to_json()}
                for exps, coeff in sorted(value.terms.items())
            ]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = canonical + "\n"
    return _write(args, [text])


def cmd_matrix(args, parser) -> int:
    ctx = _context(args, parser)
    element = expr.eval_element(expr.parse(args.expression), ctx)
    rows = rep.dense_matrix(element, cap=args.dense_cap)
    distinct = {id(entry): entry for row in rows for entry in row.values()}
    _check_printable(distinct.values(), args.format)
    return _write(args, _matrix_chunks(rows, args.format, ctx))


def cmd_gram(args, parser) -> int:
    """Write ``rep.gram``, the Gram matrix of the ordered basis vectors."""
    ctx = _context(args, parser)
    rep.check_dense_cap(ctx, args.dense_cap)
    return _write(args, _matrix_chunks(rep.gram(ctx), args.format, ctx))


def _context(args, parser) -> AlgebraContext:
    if args.dense_cap < 1:
        parser.error(f"--dense-cap {args.dense_cap} must be at least 1")
    if args.N > MAX_N:
        parser.error(f"--N {args.N} exceeds the largest supported order {MAX_N}")
    if args.n > MAX_QUDITS:
        parser.error(f"--n {args.n} exceeds the largest supported number of qudits {MAX_QUDITS}")
    try:
        return AlgebraContext.from_sign(args.N, args.n, args.zeta_sign)
    except ValueError as exc:
        parser.error(str(exc))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "verify": cmd_verify,
        "eval": cmd_eval,
        "matrix": cmd_matrix,
        "gram": cmd_gram,
    }
    try:
        return handlers[args.command](args, parser)
    except (expr.ParseError, expr.EvalError, DenseCapError, expr.UnprintableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
