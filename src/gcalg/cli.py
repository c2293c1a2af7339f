"""Command-line front-end: verify axioms, evaluate expressions, export matrices.

Exit status contract: 0 on success (all checks passing), 1 on runtime or
check failure, 2 on usage errors.  Identical inputs and seeds produce
byte-identical output.

Dense exports (``matrix``, ``gram``) hold D^2 cells for dimension D, but at
most D * terms of them are nonzero; every other cell is the one shared
``AlgebraContext.zero()``.  So the writers encode, and ``matrix`` checks,
each distinct cell object once, and ``gram`` computes only the cells whose
supports meet.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

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
    verify.add_argument("--checks", nargs="+", default=None, metavar="NAME",
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


def _write(args, text: str) -> int:
    """Write the output; return 1 after a one-line error if --output fails."""
    if not args.output:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: {args.output}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    return 0


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
    # One cell as json.dumps(matrix, indent=2) writes it, two levels deep.
    return json.dumps(value.to_json(), indent=2).replace("\n", "\n    ")


def _distinct_cells(matrix) -> dict:
    """The cell objects of ``matrix``, keyed by ``id``.

    The matrix keeps every cell alive, so an id names one cell for as long
    as the matrix is held.
    """
    cells = {}
    for row in matrix:
        cells.update(zip(map(id, row), row))
    return cells


def _encoded_rows(matrix, encode):
    """Yield each row of ``matrix`` as a list of ``encode(cell)`` strings.

    ``encode`` runs once per distinct cell object, not once per cell.
    """
    text = {key: encode(cell) for key, cell in _distinct_cells(matrix).items()}
    for row in matrix:
        yield list(map(text.__getitem__, map(id, row)))


def _matrix_output(args, matrix, ctx) -> str:
    """The matrix in ``args.format``, byte for byte as the per-cell writers give it.

    JSON is ``json.dumps(cells, indent=2)``, CSV is ``csv.writer`` over
    ``_approx`` and text is tab-joined ``print_canonical``.
    """
    if args.format == "json":
        rows = ("[\n    " + ",\n    ".join(row) + "\n  ]"
                for row in _encoded_rows(matrix, _json_cell))
        return "[\n  " + ",\n  ".join(rows) + "\n]\n"
    if args.format == "csv":
        buffer = io.StringIO()
        csv.writer(buffer).writerows(_encoded_rows(matrix, _approx))
        return buffer.getvalue()
    rows = _encoded_rows(matrix, lambda cell: expr.print_canonical(cell, ctx))
    return "".join("\t".join(row) + "\n" for row in rows)


def cmd_verify(args, parser) -> int:
    ctx = _context(args, parser)
    if args.checks is not None:
        unknown = [name for name in args.checks if name not in axioms.ALL_CHECKS]
        if unknown:
            parser.error(f"unknown check name(s): {', '.join(unknown)}")
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
    return _write(args, text) or (0 if all(r.passed for r in reports) else 1)


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
    return _write(args, text)


def cmd_matrix(args, parser) -> int:
    ctx = _context(args, parser)
    element = expr.eval_element(expr.parse(args.expression), ctx)
    matrix = rep.dense_matrix(element, cap=args.dense_cap)
    _check_printable(_distinct_cells(matrix).values(), args.format)
    return _write(args, _matrix_output(args, matrix, ctx))


def cmd_gram(args, parser) -> int:
    """Gram matrix of the ordered basis vectors.

    ``scalar_product`` runs only on pairs whose supports share a basis
    label; every other cell is ``ctx.zero()``, the object it would return.
    """
    ctx = _context(args, parser)
    rep.check_dense_cap(ctx, args.dense_cap)
    vectors = [rep.ordered_basis_vector(ctx, digits) for digits in rep.basis_indices(ctx)]
    holders = {}  # basis label -> positions of the vectors whose support holds it
    for j, vector in enumerate(vectors):
        for label in vector.terms:
            holders.setdefault(label, []).append(j)
    zero = ctx.zero()
    matrix = []
    for vr in vectors:
        row = [zero] * len(vectors)
        for j in {j for label in vr.terms for j in holders[label]}:
            row[j] = rep.scalar_product(vr, vectors[j])
        matrix.append(row)
    return _write(args, _matrix_output(args, matrix, ctx))


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
