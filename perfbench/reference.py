"""Independent float reference for the benchmark's output checks.

Nothing here imports gcalg.  The generators are built straight from the
representation formulas on the basis |a_1..a_n>, first digit slowest:

* c_{2k}   raises a_k (mod N) with phase q^{-(a_1+...+a_{k-1})};
* c_{2k-1} does the same with the extra factor zeta q^{a_k};
* E_k      keeps the components with a_k = 0,

with w = exp(i*pi/N), q = w^2 and zeta = w^e for the admissible exponent e.
Expressions are the small trees of tuples that ``workloads`` renders as
program input; ``evaluate`` turns a tree into a numpy matrix, vector or number, and the
``check_*`` helpers compare a program output to it.  Scalars that the
program prints exactly (``{"order": m, "coeffs": [[k, "p/q"], ...]}``) are
read back from their exact coefficients, and ``exact_value_is`` decides
equality with an integer exactly, by reduction modulo the cyclotomic
polynomial.
"""

from __future__ import annotations

import cmath
import csv
import io
import itertools
import json
import os
import pickle
import sys
from fractions import Fraction
from functools import lru_cache

import numpy as np

# The nine checks of `gcalg verify`, in the order the suite reports them.
ALL_CHECKS = (
    "zeta_root",
    "unitarity",
    "order",
    "commutation",
    "ground_identity",
    "projector_identity",
    "orthonormal_basis",
    "power_formula",
    "homomorphism",
)

TOLERANCE = 1e-9


def zeta_exp(N: int, sign: str | None) -> int:
    """Exponent e with zeta = w^e for the '+'/'-' choice (None: the default)."""
    if sign == "-" or (sign is None and N % 2):
        return N + 1
    return 1


class Context:
    """Dense generator matrices of one (N, n, zeta) context."""

    def __init__(self, N: int, n: int, sign: str | None = None):
        self.N, self.n = N, n
        self.zeta_exp = zeta_exp(N, sign)
        self.w = cmath.exp(1j * cmath.pi / N)
        self.q = self.w ** 2
        self.zeta = self.w ** self.zeta_exp
        self.labels = list(itertools.product(range(N), repeat=n))
        self.dim = len(self.labels)
        self.row = {label: r for r, label in enumerate(self.labels)}
        self.gens = [self._generator(i) for i in range(1, 2 * n + 1)]

    def _generator(self, i: int) -> np.ndarray:
        k = (i + 1) // 2
        mat = np.zeros((self.dim, self.dim), dtype=complex)
        for col, a in enumerate(self.labels):
            head = sum(a[: k - 1])
            phase = self.q ** (-head)
            if i % 2:
                phase *= self.zeta * self.q ** a[k - 1]
            target = a[: k - 1] + ((a[k - 1] + 1) % self.N,) + a[k:]
            mat[self.row[target], col] = phase
        return mat

    def projector(self, k: int) -> np.ndarray:
        return np.diag([1.0 + 0j if a[k - 1] == 0 else 0j for a in self.labels])

    def ket(self, digits) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=complex)
        vec[self.row[tuple(digits)]] = 1
        return vec

    def monomial(self, exps) -> np.ndarray:
        """c_1^{e_1} ... c_{2n}^{e_{2n}} as a matrix."""
        out = np.eye(self.dim, dtype=complex)
        for gen, e in zip(self.gens, exps):
            if e:
                out = out @ np.linalg.matrix_power(gen, e)
        return out


@lru_cache(maxsize=None)
def context(N: int, n: int, sign: str | None = None) -> Context:
    return Context(N, n, sign)


# -- expression trees (built and rendered by workloads.py) ------------------


def _operator(node, ctx: Context) -> np.ndarray:
    kind = node[0]
    eye = np.eye(ctx.dim, dtype=complex)
    if kind == "gen":
        return ctx.gens[node[1] - 1]
    if kind == "proj":
        return ctx.projector(node[1])
    if kind == "q":
        return ctx.q * eye
    if kind == "zeta":
        return ctx.zeta * eye
    if kind == "rat":
        return float(node[1]) * eye
    if kind == "prod":
        out = eye
        for child in node[1]:
            out = out @ _operator(child, ctx)
        return out
    if kind == "sum":
        return sum((_operator(child, ctx) for child in node[1]), np.zeros_like(eye))
    if kind == "pow":
        base = np.linalg.matrix_power(_operator(node[1], ctx), abs(node[2]))
        return base.conj().T if node[2] < 0 else base
    if kind == "dag":
        return _operator(node[1], ctx).conj().T
    raise ValueError(f"unknown operator node kind {kind!r}")


def evaluate(top, ctx: Context):
    """Matrix of an element, vector of a state, or number of a sandwich."""
    kind = top[0]
    if kind == "element":
        return _operator(top[1], ctx)
    if kind == "state":
        return _operator(top[1], ctx) @ ctx.ket(top[2])
    if kind == "scalar":
        ket = _operator(top[2], ctx) @ ctx.ket(top[3])
        return complex(np.vdot(ctx.ket(top[1]), ket))
    raise ValueError(f"unknown top-level kind {kind!r}")


# -- reading program output -------------------------------------------------


def scalar_value(data: dict) -> complex:
    """Float value of an exact scalar, from its coefficients (not its approx)."""
    m = data["order"]
    return sum(
        (float(Fraction(v)) * cmath.exp(2j * cmath.pi * k / m) for k, v in data["coeffs"]),
        0j,
    )


@lru_cache(maxsize=None)
def cyclotomic(m: int) -> tuple[int, ...]:
    """Phi_m, constant term first: x^m - 1 divided by Phi_d for d | m, d < m."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            den = cyclotomic(d)
            dn = len(den) - 1
            quot = [0] * (len(poly) - dn)
            for i in range(len(poly) - 1, dn - 1, -1):
                c = poly[i]
                quot[i - dn] = c
                for j, dj in enumerate(den):
                    poly[i - dn + j] -= c * dj
            poly = quot
    return tuple(poly)


def exact_value_is(data: dict, target: int) -> bool:
    """True iff an exact scalar equals the integer ``target`` exactly."""
    m = data["order"]
    rem = [Fraction(0)] * max(m, 1)
    for k, v in data["coeffs"]:
        rem[k % m] += Fraction(v)
    rem[0] -= target
    phi = cyclotomic(m)
    dn = len(phi) - 1
    for i in range(len(rem) - 1, dn - 1, -1):
        c = rem[i]
        if c:
            for j, d in enumerate(phi):
                rem[i - dn + j] -= c * d
    return not any(rem[:dn])


def _close(got, want) -> bool:
    scale = max(1.0, float(np.max(np.abs(want))) if np.ndim(want) else abs(want))
    return bool(np.max(np.abs(np.asarray(got) - np.asarray(want))) <= TOLERANCE * scale)


def check_eval(payload: dict, top, ctx: Context) -> bool:
    """Compare `gcalg eval --format json` output with the reference value."""
    want = evaluate(top, ctx)
    kind = top[0]
    if payload.get("kind") != kind or not payload.get("canonical"):
        return False
    if kind == "scalar":
        return _close(scalar_value(payload["scalar"]), want)
    if kind == "state":
        state = payload["state"]
        if (state["N"], state["n"]) != (ctx.N, ctx.n):
            return False
        got = np.zeros(ctx.dim, dtype=complex)
        for term in state["terms"]:
            got[ctx.row[tuple(term["index"])]] += scalar_value(term["amp"])
        return _close(got, want)
    got = np.zeros((ctx.dim, ctx.dim), dtype=complex)
    for term in payload["terms"]:
        got += scalar_value(term["coeff"]) * ctx.monomial(term["exps"])
    return _close(got, want)


def dense_from_json(cells) -> np.ndarray:
    return np.array([[scalar_value(cell) for cell in row] for row in cells], dtype=complex)


def dense_from_csv(text: str) -> np.ndarray:
    rows = []
    for row in csv.reader(io.StringIO(text)):
        values = []
        for cell in row:
            re, im = cell.split(",")
            values.append(complex(float(re), float(im)))
        rows.append(values)
    return np.array(rows, dtype=complex)


def check_matrix(text: str, fmt: str, top, ctx: Context) -> bool:
    """Compare `gcalg matrix` JSON or CSV output with the reference matrix."""
    got = dense_from_json(json.loads(text)) if fmt == "json" else dense_from_csv(text)
    want = evaluate(top, ctx)
    return got.shape == want.shape and _close(got, want)


def check_gram(text: str, fmt: str, dim: int) -> bool:
    """The Gram matrix of the ordered basis must be the identity.

    JSON cells are exact, so each is decided exactly; CSV cells are float
    approximations and are compared to the tolerance.
    """
    if fmt == "csv":
        got = dense_from_csv(text)
        return got.shape == (dim, dim) and _close(got, np.eye(dim))
    cells = json.loads(text)
    if len(cells) != dim or any(len(row) != dim for row in cells):
        return False
    return all(
        exact_value_is(cell, 1 if r == c else 0)
        for r, row in enumerate(cells)
        for c, cell in enumerate(row)
    )


def check_verify(payload: dict, N: int, n: int, sign: str | None) -> bool:
    """All nine checks reported, in suite order, and all passed."""
    if (payload.get("N"), payload.get("n"), payload.get("zeta_exp")) != (N, n, zeta_exp(N, sign)):
        return False
    checks = payload.get("checks", [])
    return tuple(c.get("name") for c in checks) == ALL_CHECKS and all(
        c.get("passed") is True and c.get("counterexample") is None for c in checks
    )


def check_output(op, text: str) -> bool:
    """Check one op's standard output (an ``Op`` from ``workloads``)."""
    try:
        if op.command == "verify":
            return check_verify(json.loads(text), op.N, op.n, op.sign)
        ctx = context(op.N, op.n, op.sign)
        if op.command == "eval":
            return check_eval(json.loads(text), op.tree, ctx)
        if op.command == "matrix":
            return check_matrix(text, op.fmt, op.tree, ctx)
        return check_gram(text, op.fmt, ctx.dim)
    except (ValueError, LookupError, TypeError, AttributeError, ArithmeticError):
        return False


def serve(requests, replies) -> None:
    """Answer check requests until the request stream closes.

    Each request is a length line and a pickled ``(op, output)`` pair; each
    reply is ``1`` or ``0`` on a line of its own.  The check is a pure
    function of (op, output), so an output byte-identical to one that
    already passed for the same op is not evaluated again.
    """
    passed: dict[object, str] = {}
    while True:
        header = requests.readline()
        if not header:
            return
        op, text = pickle.loads(requests.read(int(header)))
        ok = passed.get(op) == text or check_output(op, text)
        if ok:
            passed[op] = text
        replies.write(b"1\n" if ok else b"0\n")
        replies.flush()


if __name__ == "__main__":
    # The checker process of run.py: the reference never shares a process
    # (or its memory high-water mark) with the program under test.
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads  # noqa: F401  (unpickling ops needs the module)

    serve(sys.stdin.buffer, sys.stdout.buffer)
