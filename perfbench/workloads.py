"""Seeded op lists of the three workloads.

Each op is one `gcalg` command line.  A workload's op list is one cycle; a
run repeats whole cycles, so the mix of ops is the same in every run and a
cut-off partial cycle never shifts it.  The seed picks the random parts
(per-op `--seed` values, generator indices, exponents, coefficients, kets
and the order of the cycle); the make-up of the cycle is fixed, so the work
in a cycle varies little from seed to seed.

Expression trees are tuples:

* ``("gen", i)``, ``("proj", k)``, ``("q",)``, ``("zeta",)``, ``("rat", Fraction)``
* ``("prod", (node, ...))``, ``("sum", (node, ...))``, ``("pow", node, k)``, ``("dag", node)``
* top level: ``("element", x)``, ``("state", x, ket)``, ``("scalar", bra, x, ket)``

``render`` writes a tree in the gcalg expression language; the reference
(``reference.evaluate``) evaluates the same tree independently.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("verify_suite", "algebra_eval", "dense_export")


@dataclass(frozen=True)
class Op:
    """One command line and what its output is checked against."""

    command: str            # verify | eval | matrix | gram
    N: int
    n: int
    sign: str | None        # --zeta-sign, None for the default root
    fmt: str                # --format
    tree: tuple | None = None
    seed: int = 0

    @property
    def argv(self) -> list[str]:
        argv = [self.command, "--N", str(self.N), "--n", str(self.n), "--format", self.fmt]
        if self.sign is not None:
            argv += ["--zeta-sign", self.sign]
        if self.command == "verify":
            argv += ["--seed", str(self.seed)]
        if self.tree is not None:
            argv.append(render(self.tree))
        return argv


# -- rendering ---------------------------------------------------------------


def _digits(digits) -> str:
    return ",".join(map(str, digits))


def render(node) -> str:
    """Source text of a tree in the gcalg expression language."""
    kind = node[0]
    if kind == "gen":
        return f"c[{node[1]}]"
    if kind == "proj":
        return f"E[{node[1]}]"
    if kind in ("q", "zeta"):
        return kind
    if kind == "rat":
        return f"({node[1]})"
    if kind == "prod":
        return " ".join(render(child) for child in node[1])
    if kind == "sum":
        return "(" + " + ".join(render(child) for child in node[1]) + ")"
    if kind == "pow":
        return f"({render(node[1])})^{node[2]}"
    if kind == "dag":
        return f"({render(node[1])})'"
    if kind == "element":
        return render(node[1])
    if kind == "state":
        return f"{render(node[1])} |{_digits(node[2])}>"
    if kind == "scalar":
        return f"<{_digits(node[1])}| {render(node[2])} |{_digits(node[3])}>"
    raise ValueError(f"unknown node kind {kind!r}")


# -- random pieces -------------------------------------------------------------


def _rational(rng: random.Random):
    return ("rat", Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3))))


def _coefficient(rng: random.Random, N: int, general: bool) -> list:
    """Factors of a term's coefficient: rational, q^a, zeta, or a general sum."""
    if general:
        return [("sum", (_rational(rng), ("pow", ("q",), rng.randrange(1, N)), ("zeta",)))]
    factors = [_rational(rng)]
    roll = rng.randrange(3)
    if roll == 1:
        factors.append(("pow", ("q",), rng.randrange(1, N)))
    elif roll == 2:
        factors.append(("zeta",))
    return factors


def _monomial(rng: random.Random, N: int, n: int, letters: int) -> list:
    """Generator factors in random order, as powers, daggers or plain letters."""
    factors = []
    for _ in range(letters):
        gen = ("gen", rng.randrange(1, 2 * n + 1))
        roll = rng.randrange(3)
        if roll == 1 and N > 2:
            gen = ("pow", gen, rng.randrange(2, N))
        elif roll == 2:
            gen = ("dag", gen)
        factors.append(gen)
    return factors


def _element(rng: random.Random, N: int, n: int, terms: int, general: bool = False):
    return ("sum", tuple(
        ("prod", tuple(_coefficient(rng, N, general) + _monomial(rng, N, n, rng.randrange(1, 3))))
        for _ in range(terms)
    ))


def _label(rng: random.Random, N: int, n: int) -> tuple[int, ...]:
    return tuple(rng.randrange(N) for _ in range(n))


# -- verify_suite --------------------------------------------------------------

# Every context with 16 <= N^n <= 64: odd N, and even N under both roots.
# Today each op takes 0.1-1 s.
VERIFY_CONTEXTS = (
    (2, 4, "+"), (2, 4, "-"), (2, 5, "+"), (2, 5, "-"), (2, 6, "+"), (2, 6, "-"),
    (3, 3, None), (4, 2, "+"), (4, 2, "-"), (4, 3, "+"), (4, 3, "-"),
    (5, 2, None), (6, 2, "+"), (6, 2, "-"), (7, 2, None), (8, 2, "+"), (8, 2, "-"),
)
# Seeds per context and cycle, so the seeded part of the work (the
# homomorphism check's random words) averages out.  The heaviest contexts,
# N=2 n=6, get a third seed: they are then the top sixth of the cycle and
# p90 falls inside that block instead of on the step below it.
def _verify_seeds(N: int, n: int) -> int:
    return 3 if N**n == 64 and N == 2 else 2


def _verify_suite(rng: random.Random) -> list[Op]:
    return [Op("verify", N, n, sign, "json", seed=rng.randrange(2**31))
            for N, n, sign in VERIFY_CONTEXTS for _ in range(_verify_seeds(N, n))]


# -- algebra_eval --------------------------------------------------------------

# N 2-6, n 1-3, both roots for even N.
EVAL_CONTEXTS = (
    (2, 1, "+"), (2, 2, "-"), (2, 3, "+"), (3, 1, None), (3, 2, None),
    (3, 3, None), (4, 1, "-"), (4, 2, "+"), (4, 3, "-"), (5, 1, None),
    (5, 2, None), (5, 3, None), (6, 1, "+"), (6, 2, "-"), (6, 3, "+"),
)
EVAL_REPEATS = 2


def _eval_tree(rng: random.Random, template: int, N: int, n: int):
    def elem(terms: int, general: bool = False):
        return _element(rng, N, n, terms, general)

    if template == 0:      # multi-term sum
        return ("element", elem(3))
    if template == 1:      # product of sums
        return ("element", ("prod", (elem(2), elem(2))))
    if template == 2:      # small power, sometimes negative (the adjoint of the power)
        return ("element", ("pow", elem(2), rng.choice((2, 3, -2))))
    if template == 3:      # dagger of a sum times a sum
        return ("element", ("prod", (("dag", elem(2)), elem(2))))
    if template == 4:      # projectors around a sum
        k1, k2 = rng.randrange(1, n + 1), rng.randrange(1, n + 1)
        return ("element", ("prod", (("proj", k1), elem(2), ("proj", k2))))
    if template == 5:      # general (multi-term) scalar coefficients
        return ("element", elem(3, general=True))
    if template == 6:      # a product applied to a ket
        return ("state", ("prod", (elem(2), elem(2))), _label(rng, N, n))
    return ("scalar", _label(rng, N, n), ("prod", (("dag", elem(2)), elem(2))), _label(rng, N, n))


EVAL_TEMPLATES = 8


def _algebra_eval(rng: random.Random) -> list[Op]:
    ops = []
    for _ in range(EVAL_REPEATS):
        for N, n, sign in EVAL_CONTEXTS:
            for template in range(EVAL_TEMPLATES):
                ops.append(Op("eval", N, n, sign, "json", _eval_tree(rng, template, N, n)))
    return ops


# -- dense_export --------------------------------------------------------------

# Every context with 27 <= N^n <= 128, both roots for even N alternating by
# context.  Dims up to 64 print JSON and larger dims CSV: one JSON op at dim
# 64 already writes about 0.5 MB.
DENSE_CONTEXTS = (
    (3, 3, None), (2, 5, "+"), (6, 2, "-"), (7, 2, None), (2, 6, "-"), (4, 3, "+"),
    (8, 2, "-"), (3, 4, None), (9, 2, None), (10, 2, "+"), (11, 2, None), (5, 3, None),
    (2, 7, "+"),
)
# Per context and cycle: one Gram matrix and this many seeded elements of 2-4
# terms.  Many distinct ops of graded cost keep the latency distribution
# smooth, so its percentiles do not sit on a step between two kinds of op.
DENSE_ELEMENTS = 3


def _dense_export(rng: random.Random) -> list[Op]:
    ops = []
    for N, n, sign in DENSE_CONTEXTS:
        fmt = "json" if N**n <= 64 else "csv"
        ops.append(Op("gram", N, n, sign, fmt))
        ops.extend(Op("matrix", N, n, sign, fmt, ("element", _element(rng, N, n, rng.randrange(2, 5))))
                   for _ in range(DENSE_ELEMENTS))
    return ops


OP_LISTS = {
    "verify_suite": _verify_suite,
    "algebra_eval": _algebra_eval,
    "dense_export": _dense_export,
}


def build(workload: str, seed: int) -> list[Op]:
    """The op list (one cycle) of a workload, shuffled by the seed."""
    rng = random.Random(f"{workload}:{seed}")
    ops = OP_LISTS[workload](rng)
    rng.shuffle(ops)
    return ops
