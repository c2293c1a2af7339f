"""Executable verification of the algebra's defining identities.

Each check exercises one identity exhaustively over the basis states of a
context and returns a :class:`CheckReport`; comparisons are exact, never
floating point.  Every generator sends a basis state to w^k times a basis
state, so operator identities are checked on its table
(:class:`gcalg.rep.PhasedPermutation`): a target position and a phase
exponent per basis state, read off ``rep.apply_generator`` on every basis
state.  Products, powers and adjoints of tables are integer arithmetic, and
two operators agree iff their tables are equal; a failing identity names the
first basis state where the two sides differ.  The table checks (unitarity,
order, commutation, power formula, homomorphism) take the 2n generator
tables as an optional last argument and read them off the representation
(``rep.generator_tables``) when it is omitted; ``run_suite`` builds them
once per call, only when a selected check needs them, and passes them to
each of those checks.  The
tables change no result: a generator that is not such a table fails every
table check with the offending basis state as counterexample.  The
homomorphism check keeps a sparse oracle: each random word is applied letter
by letter to sparse basis states, in lockstep (each letter, through
``rep.apply_generator``, acts on the images of all basis states before the
next letter does), and each image is compared, as a map from label to
amplitude, with the table of the word's normal form (``rep.monomial_table``,
the builder ``gcalg matrix`` reads too); the first basis state in basis
order whose image differs is named, and a table column is built only to
write that counterexample.  The power formula's closed form reads each
basis state's digit a_k and head sum once per k.  The ground-state and
projector identities act on sparse states; the projector identity applies
the generators only to the basis states that E_k keeps.  Orthonormality
compares ``rep.gram``, the Gram matrix that ``gcalg gram`` writes, with the
identity.

Checked, for every context:

* the square root of q: zeta^2 = q and zeta^(N^2) = 1, and for odd N the
  rejection of the opposite root;
* unitarity of every generator (the conjugate transpose both inverts the
  generator and equals its (N-1)-th power);
* generator order c^N = 1;
* all commutation pairs c_i c_j = q c_j c_i for i < j;
* the ground-state identity c_{2k-1}|0..0> = zeta c_{2k}|0..0> and its
  projector form c_{2k-1} E_k = zeta c_{2k} E_k;
* orthonormality of the vectors c_2^{a_1} ... c_{2n}^{a_n}|0..0>: their
  Gram matrix is the identity;
* the closed form for powers of odd generators;
* agreement of normal-form application with letter-by-letter application
  on random seeded words.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import random
from dataclasses import dataclass

from . import rep
from .cyclo import AlgebraContext
from .symbolic import Word, normal_order

__all__ = [
    "ALL_CHECKS",
    "CheckReport",
    "check_commutation",
    "check_ground_identity",
    "check_homomorphism",
    "check_order",
    "check_orthonormal_basis",
    "check_power_formula",
    "check_projector_identity",
    "check_unitarity",
    "check_zeta_root",
    "run_suite",
    "suite_report",
]

HOMOMORPHISM_TRIALS_DEFAULT = 25
HOMOMORPHISM_MAX_LEN_DEFAULT = 10


@dataclass
class CheckReport:
    """Outcome of one check; a failure always carries a counterexample."""

    ctx: AlgebraContext
    name: str
    passed: bool
    counterexample: str | None = None
    seed: int | None = None

    def to_dict(self) -> dict:
        out = {"name": self.name, "passed": self.passed, "counterexample": self.counterexample}
        if self.seed is not None:
            out["seed"] = self.seed
        return out


def _state_text(state: rep.QuditState) -> str:
    if not state.amps:
        return "0"
    return " + ".join(
        f"({amp})|{','.join(map(str, digits))}>" for digits, amp in sorted(state.amps.items())
    )


def _differs(what: str, label, lhs: rep.QuditState, rhs: rep.QuditState) -> str:
    return f"{what} on |{label}>: {_state_text(lhs)} differs from {_state_text(rhs)}"


def _mismatch(ctx: AlgebraContext, lhs, rhs, what: str) -> str | None:
    """None when two tables agree, else both columns at the first basis state where they differ."""
    if lhs == rhs:
        return None
    j = next(
        j for j in range(ctx.dim)
        if lhs.perm[j] != rhs.perm[j] or lhs.phase[j] != rhs.phase[j]
    )
    return _differs(what, rep.basis_label(ctx, j), lhs.column(j), rhs.column(j))


def _tables(ctx: AlgebraContext, tables):
    """``tables``, or when None the tables of c_1 .. c_2n read off the representation.

    Raises NotPhasedPermutationError naming the first column that is not +-w^k |b>.
    """
    if tables is None:
        tables = rep.generator_tables(ctx)
    return tables


def check_zeta_root(N: int, zeta_exp: int | None = None) -> CheckReport:
    """zeta^2 = q and zeta^(N^2) = 1; for odd N the plus root must fail."""
    ctx = AlgebraContext(N, 1, zeta_exp)
    name = "zeta_root"
    zeta = ctx.zeta()
    if not zeta * zeta == ctx.q():
        return CheckReport(ctx, name, False, f"zeta^2 = {zeta * zeta} differs from q = {ctx.q()}")
    power = zeta ** (N * N)
    if not power == 1:
        return CheckReport(ctx, name, False, f"zeta^(N^2) = {power} differs from 1")
    if N % 2:
        rejected = ctx.omega(1) ** (N * N)
        if not rejected == -1:
            return CheckReport(
                ctx, name, False,
                f"rejected root (+exp(i*pi/N)) has N^2-th power {rejected}, expected -1",
            )
    return CheckReport(ctx, name, True)


def check_unitarity(ctx: AlgebraContext, tables=None) -> CheckReport:
    """Every generator c satisfies c c^dagger = c^dagger c = 1.

    Each generator's table must permute the basis labels with root-of-unity
    amplitudes, so its conjugate transpose is again a table and inverts it;
    the check also asserts that the conjugate transpose coincides with the
    (N-1)-th power of c.
    """
    name = "unitarity"
    try:
        tables = _tables(ctx, tables)
    except rep.NotPhasedPermutationError as exc:
        return CheckReport(ctx, name, False, str(exc))
    for i, table in enumerate(tables, start=1):
        if not table.is_bijection():
            return CheckReport(ctx, name, False, f"c_{i} does not permute the basis labels")
        what = f"c_{i}^(N-1) vs c_{i}^dagger"
        if detail := _mismatch(ctx, table ** (ctx.N - 1), table.dagger(), what):
            return CheckReport(ctx, name, False, detail)
    return CheckReport(ctx, name, True)


def check_order(ctx: AlgebraContext, tables=None) -> CheckReport:
    """Every generator satisfies c^N = 1 on every basis state."""
    name = "order"
    try:
        tables = _tables(ctx, tables)
    except rep.NotPhasedPermutationError as exc:
        return CheckReport(ctx, name, False, str(exc))
    identity = rep.PhasedPermutation.identity(ctx)
    for i, table in enumerate(tables, start=1):
        if detail := _mismatch(ctx, table ** ctx.N, identity, f"c_{i}^N vs 1"):
            return CheckReport(ctx, name, False, detail)
    return CheckReport(ctx, name, True)


def check_commutation(ctx: AlgebraContext, tables=None) -> CheckReport:
    """c_i c_j = q c_j c_i for every pair i < j, on every basis state."""
    name = "commutation"
    try:
        tables = _tables(ctx, tables)
    except rep.NotPhasedPermutationError as exc:
        return CheckReport(ctx, name, False, str(exc))
    for i, j in itertools.combinations(range(1, ctx.num_generators + 1), 2):
        lhs = tables[i - 1] @ tables[j - 1]
        rhs = (tables[j - 1] @ tables[i - 1]).scaled(2)  # q = w^2
        if detail := _mismatch(ctx, lhs, rhs, f"c_{i}c_{j} vs q c_{j}c_{i}"):
            return CheckReport(ctx, name, False, detail)
    return CheckReport(ctx, name, True)


def _zeta_identity(ctx: AlgebraContext, name: str, cases) -> CheckReport:
    # c_{2k-1} v = zeta c_{2k} v for every case (k, label, v), on sparse states.
    zeta = ctx.zeta()
    for k, label, state in cases:
        lhs = rep.apply_odd(k, state)
        rhs = zeta * rep.apply_even(k, state)
        if not lhs == rhs:
            return CheckReport(
                ctx, name, False,
                f"k={k} on |{label}>: c_{2 * k - 1} gives {_state_text(lhs)}, "
                f"zeta c_{2 * k} gives {_state_text(rhs)}",
            )
    return CheckReport(ctx, name, True)


def check_ground_identity(ctx: AlgebraContext) -> CheckReport:
    """c_{2k-1}|0..0> = zeta c_{2k}|0..0> for every k."""
    ground = rep.ground_state(ctx)
    label = (0,) * ctx.n
    return _zeta_identity(ctx, "ground_identity", ((k, label, ground) for k in range(1, ctx.n + 1)))


def check_projector_identity(ctx: AlgebraContext) -> CheckReport:
    """c_{2k-1} E_k = zeta c_{2k} E_k as operators, on every basis state.

    Both sides are linear, so a basis state that E_k sends to 0 gives 0 = 0;
    the generators act only on the states E_k keeps.
    """
    states = rep.basis_states(ctx)
    cases = (
        (k, digits, rep.apply_projector(k, state))
        for k in range(1, ctx.n + 1)
        for digits, state in states
    )
    return _zeta_identity(ctx, "projector_identity", (c for c in cases if c[2].terms))


def check_orthonormal_basis(ctx: AlgebraContext) -> CheckReport:
    """The vectors c_2^{a_1} ... c_{2n}^{a_n}|0..0> form an orthonormal basis.

    Their Gram matrix ``rep.gram`` must equal the identity, cell by cell
    with the exact ``==``; a cell absent from its row is zero.
    """
    name = "orthonormal_basis"
    zero = ctx.zero()
    for a, row in enumerate(rep.gram(ctx)):
        for b in sorted({a, *row}):
            cell, expected = row.get(b, zero), int(a == b)
            if not cell == expected:
                return CheckReport(
                    ctx, name, False,
                    f"Gram[{rep.basis_label(ctx, a)}][{rep.basis_label(ctx, b)}] = {cell}, "
                    f"expected {expected}",
                )
    return CheckReport(ctx, name, True)


def _odd_power_tables(ctx: AlgebraContext, k: int):
    # The closed forms of c_{2k-1}^m stated in check_power_formula, for
    # m = 0 .. 2N; raising digit k by m moves the row-major position by a
    # multiple of its stride.  Each state's digit a_k and head sum
    # a_1+...+a_{k-1} are read once.
    N = ctx.N
    order = ctx.order
    stride = N ** (ctx.n - k)
    cells = [(j, d[k - 1], sum(d[: k - 1])) for j, d in enumerate(rep.basis_indices(ctx))]
    for m in range(2 * N + 1):
        fixed = ctx.zeta_exp * m + m * (m - 1)  # zeta^m q^{m(m-1)/2}
        yield rep.PhasedPermutation._raw(
            ctx,
            tuple([j + ((ak + m) % N - ak) * stride for j, ak, _ in cells]),
            tuple([(fixed + 2 * m * (ak - head)) % order for _, ak, head in cells]),
        )


def check_power_formula(ctx: AlgebraContext, tables=None) -> CheckReport:
    """m-fold application of c_{2k-1} matches its closed form for m in [0, 2N].

    The closed form on |a_1..a_n> is
    zeta^m q^{m a_k + m(m-1)/2} q^{-m (a_1+..+a_{k-1})} |.., a_k + m, ..>.
    """
    name = "power_formula"
    try:
        tables = _tables(ctx, tables)
    except rep.NotPhasedPermutationError as exc:
        return CheckReport(ctx, name, False, str(exc))
    for k in range(1, ctx.n + 1):
        power = rep.PhasedPermutation.identity(ctx)
        for m, closed in enumerate(_odd_power_tables(ctx, k)):
            what = f"c_{2 * k - 1}^{m} vs its closed form"
            if detail := _mismatch(ctx, power, closed, what):
                return CheckReport(ctx, name, False, detail)
            power = tables[2 * k - 2] @ power
    return CheckReport(ctx, name, True)


def check_homomorphism(
    ctx: AlgebraContext,
    trials: int = HOMOMORPHISM_TRIALS_DEFAULT,
    max_len: int = HOMOMORPHISM_MAX_LEN_DEFAULT,
    seed: int = 0,
    tables=None,
) -> CheckReport:
    """Seeded random words act identically letter-by-letter and in normal form.

    The letter-by-letter side applies each word in lockstep: each letter,
    rightmost first, acts on the images of all basis states before the next
    letter does, one ``rep.apply_generator`` call per basis state and letter.
    The normal-form side is the table of ``normal_order(word)``, composed
    from the generator tables.  Each image is compared with the table's
    target label and root, and the first basis state whose image differs is
    named; ``PhasedPermutation.column`` is called only for the
    counterexample.
    """
    name = "homomorphism"
    if trials < 1:
        raise ValueError("trials must be >= 1")
    try:
        tables = _tables(ctx, tables)
    except rep.NotPhasedPermutationError as exc:
        return CheckReport(ctx, name, False, str(exc), seed)
    rng = random.Random(seed)
    top = ctx.num_generators
    labels, basis = zip(*rep.basis_states(ctx))
    roots = [ctx.omega(k) for k in range(ctx.order)]
    power = functools.cache(lambda i, e: tables[i - 1] ** e)
    apply = rep.apply_generator
    for _ in range(trials):
        length = rng.randint(0, max_len)
        word = Word(ctx, tuple(rng.randint(1, top) for _ in range(length)))
        normal = normal_order(word)
        table = rep.monomial_table(ctx, power, normal.exps).scaled(normal.phase.root_exponent())
        states = basis
        for letter in reversed(word.letters):
            states = [apply(letter, state) for state in states]
        # Dict equality runs the exact CycloScalar.__eq__ on every
        # amplitude that is not the identical shared root.
        for j, (state, b, f) in enumerate(zip(states, table.perm, table.phase)):
            if state.terms != {labels[b]: roots[f]}:
                what = f"word {list(word.letters)} vs its normal form"
                detail = _differs(what, labels[j], state, table.column(j))
                return CheckReport(ctx, name, False, detail, seed)
    return CheckReport(ctx, name, True, None, seed)


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

# Checks that run on the generator tables, which run_suite builds once.
_TABLE_CHECKS = frozenset(
    ("unitarity", "order", "commutation", "power_formula", "homomorphism")
)


def run_suite(ctx: AlgebraContext, selection=None, seed: int = 0) -> list[CheckReport]:
    """Run the selected checks (default: all) in a fixed deterministic order."""
    if selection is None:
        selection = ALL_CHECKS
    else:
        selection = tuple(selection)
        unknown = [name for name in selection if name not in ALL_CHECKS]
        if unknown:
            raise ValueError(f"unknown check name(s): {', '.join(unknown)}")
    tables = None
    if _TABLE_CHECKS.intersection(selection):
        # On failure each table check reads the tables again and reports the column.
        with contextlib.suppress(rep.NotPhasedPermutationError):
            tables = _tables(ctx, None)
    # Each check is looked up when it runs, so a wrapper installed later is called.
    runners = {
        "zeta_root": lambda: check_zeta_root(ctx.N, ctx.zeta_exp),
        "unitarity": lambda: check_unitarity(ctx, tables),
        "order": lambda: check_order(ctx, tables),
        "commutation": lambda: check_commutation(ctx, tables),
        "ground_identity": lambda: check_ground_identity(ctx),
        "projector_identity": lambda: check_projector_identity(ctx),
        "orthonormal_basis": lambda: check_orthonormal_basis(ctx),
        "power_formula": lambda: check_power_formula(ctx, tables),
        "homomorphism": lambda: check_homomorphism(
            ctx, HOMOMORPHISM_TRIALS_DEFAULT, HOMOMORPHISM_MAX_LEN_DEFAULT, seed, tables
        ),
    }
    return [runners[name]() for name in ALL_CHECKS if name in selection]


def suite_report(ctx: AlgebraContext, reports: list[CheckReport]) -> dict:
    """JSON-ready report for a suite run."""
    return {
        "N": ctx.N,
        "n": ctx.n,
        "zeta_exp": ctx.zeta_exp,
        "checks": [r.to_dict() for r in reports],
    }
