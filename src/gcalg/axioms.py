"""Executable verification of the algebra's defining identities.

Each check exercises one identity exhaustively over the basis states of a
context and returns a :class:`CheckReport`; comparisons are exact, never
floating point.  Every generator sends a basis state to w^k times a basis
state, so operator identities are checked on its table
(:class:`gcalg.rep.PhasedPermutation`): a target position and a phase
exponent per basis state, read off ``rep.apply_generator`` on every basis
state.  Products, powers and adjoints of tables are integer arithmetic, and
two operators agree iff their tables are equal; a failing identity names the
first basis state where the two sides differ.  Counterexamples write exact
values as ``expr.print_canonical`` does, so ``gcalg eval`` reads each side.
Seven checks are table checks (unitarity, order, commutation, the
ground-state and projector identities, power formula, homomorphism): each
takes the 2n generator tables as an optional last argument and reads them
off the representation (``rep.generator_tables``) when it is omitted;
``run_suite`` builds them once per call, only when a selected check needs
them, and passes them to each of those checks.  The tables change no result:
a generator that is not such a table fails every table check with the
offending basis state as counterexample.  Each table check only states its
comparisons, as a lazy stream of table pairs and ready counterexample texts;
one driver, ``_table_check``, runs the stream, stops at the first failure
and writes the report, so nothing after it is formed.  The ground-state
identity compares the tables of c_{2k-1} and zeta c_{2k} at |0..0>; the
projector identity applies E_k to every basis state and compares them at
each label E_k keeps.  The homomorphism check keeps a sparse oracle: each
random word is applied letter by letter to sparse basis states, in lockstep
(each letter, through ``rep.apply_generator``, acts on the images of all
basis states before the next letter does), and each image is compared, as a
map from label to amplitude, with the table of the word's normal form
(``rep.monomial_table``, the builder ``gcalg matrix`` reads too); the first
basis state in basis order whose image differs is named, and a table column
is built only to write that counterexample.  ``normal_order`` counts swaps
with the rule that element products use, so this check also checks the
product rule that ``gcalg eval`` multiplies with.  The power formula's
closed form reads each basis state's digit a_k and head sum once per k.
Orthonormality compares ``rep.gram``, the Gram matrix that ``gcalg gram``
writes, with the identity.

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

The checks overlap, and all nine are kept: a fault shows in which checks
fail.  Two implications hold for any fault:

* a bijective table whose (N-1)-th power equals its dagger has c^N = 1, so
  a fault that fails ``order`` also fails ``unitarity``;
* while each E_k keeps |0..0>, the projector identity compares every
  position the ground-state identity compares, so a fault that fails
  ``ground_identity`` also fails ``projector_identity``.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import random
from dataclasses import dataclass

from . import rep
from .cyclo import AlgebraContext
from .expr import print_canonical
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


def _differs(what: str, label, lhs: rep.QuditState, rhs: rep.QuditState) -> str:
    return f"{what} on |{label}>: {print_canonical(lhs)} differs from {print_canonical(rhs)}"


def _mismatch(ctx: AlgebraContext, lhs, rhs, what: str, positions=None) -> str | None:
    """None when two tables agree, else both columns at the first basis state where they differ.

    With ``positions``, ascending basis positions, only those are compared.
    """
    if positions is None:
        if lhs == rhs:
            return None
        positions = range(ctx.dim)
    for j in positions:
        if lhs.perm[j] != rhs.perm[j] or lhs.phase[j] != rhs.phase[j]:
            return _differs(what, rep.basis_label(ctx, j), lhs.column(j), rhs.column(j))
    return None


def _table_check(ctx: AlgebraContext, name: str, tables, stream, seed=None) -> CheckReport:
    """The report of the first failing item of ``stream(tables)``, or a pass.

    The stream lazily yields comparisons ``(lhs, rhs, what[, positions])`` of
    two tables, which fail as ``_mismatch`` finds them, and counterexample
    texts, which fail as they stand; nothing after the first failure is
    formed.  ``tables`` are the 2n generator tables; when None they are read
    off the representation, and a generator that is not a table fails the
    check with the first column that is not +-w^k |b> as counterexample.
    """
    try:
        items = stream(rep.generator_tables(ctx) if tables is None else tables)
        details = (item if isinstance(item, str) else _mismatch(ctx, *item) for item in items)
        detail = next(filter(None, details), None)
    except rep.NotPhasedPermutationError as exc:
        detail = str(exc)
    return CheckReport(ctx, name, detail is None, detail, seed)


def check_zeta_root(N: int, zeta_exp: int | None = None) -> CheckReport:
    """zeta^2 = q and zeta^(N^2) = 1; for odd N the plus root must fail."""
    ctx = AlgebraContext(N, 1, zeta_exp)
    zeta = ctx.zeta()
    square, power = zeta * zeta, zeta ** (N * N)
    detail = None
    if not square == ctx.q():
        detail = f"zeta^2 = {print_canonical(square, ctx)} differs from q"
    elif not power == 1:
        detail = f"zeta^(N^2) = {print_canonical(power, ctx)} differs from 1"
    elif N % 2 and not (rejected := ctx.omega(1) ** (N * N)) == -1:
        text = print_canonical(rejected, ctx)
        detail = f"rejected root (+exp(i*pi/N)) has N^2-th power {text}, expected -1"
    return CheckReport(ctx, "zeta_root", detail is None, detail)


def check_unitarity(ctx: AlgebraContext, tables=None) -> CheckReport:
    """Every generator c satisfies c c^dagger = c^dagger c = 1.

    Each generator's table must permute the basis labels with root-of-unity
    amplitudes, so its conjugate transpose is again a table and inverts it;
    the check also asserts that the conjugate transpose coincides with the
    (N-1)-th power of c.
    """
    def stream(tables):
        for i, table in enumerate(tables, start=1):
            if not table.is_bijection():
                yield f"c_{i} does not permute the basis labels"  # dagger() would raise
            yield table ** (ctx.N - 1), table.dagger(), f"c_{i}^(N-1) vs c_{i}^dagger"

    return _table_check(ctx, "unitarity", tables, stream)


def check_order(ctx: AlgebraContext, tables=None) -> CheckReport:
    """Every generator satisfies c^N = 1 on every basis state."""
    def stream(tables):
        identity = rep.PhasedPermutation.identity(ctx)
        for i, table in enumerate(tables, start=1):
            yield table ** ctx.N, identity, f"c_{i}^N vs 1"

    return _table_check(ctx, "order", tables, stream)


def check_commutation(ctx: AlgebraContext, tables=None) -> CheckReport:
    """c_i c_j = q c_j c_i for every pair i < j, on every basis state."""
    def stream(tables):
        for i, j in itertools.combinations(range(1, ctx.num_generators + 1), 2):
            rhs = (tables[j - 1] @ tables[i - 1]).scaled(2)  # q = w^2
            yield tables[i - 1] @ tables[j - 1], rhs, f"c_{i}c_{j} vs q c_{j}c_{i}"

    return _table_check(ctx, "commutation", tables, stream)


def _zeta_stream(ctx: AlgebraContext, kept, tables):
    # c_{2k-1} against zeta c_{2k} at the basis positions in the k-th entry of kept.
    for k, positions in enumerate(kept, start=1):
        even = tables[2 * k - 1].scaled(ctx.zeta_exp)
        yield tables[2 * k - 2], even, f"c_{2 * k - 1} vs zeta c_{2 * k}", positions


def check_ground_identity(ctx: AlgebraContext, tables=None) -> CheckReport:
    """c_{2k-1}|0..0> = zeta c_{2k}|0..0> for every k: the tables agree at position 0."""
    stream = functools.partial(_zeta_stream, ctx, [(0,)] * ctx.n)
    return _table_check(ctx, "ground_identity", tables, stream)


def check_projector_identity(ctx: AlgebraContext, tables=None) -> CheckReport:
    """c_{2k-1} E_k = zeta c_{2k} E_k as operators, on every basis state.

    E_k is applied to every basis state, and the two tables are compared at
    every label that some E_k|a> holds.  Both sides are linear and each table
    sends a basis state to a single term, so this is the identity whenever
    each E_k|a> is 0 or a single term.
    """
    states = rep.basis_states(ctx)
    position = {label: j for j, (label, _) in enumerate(states)}
    kept = (
        sorted({position[b] for _, a in states for b in rep.apply_projector(k, a).terms})
        for k in range(1, ctx.n + 1)
    )
    stream = functools.partial(_zeta_stream, ctx, kept)
    return _table_check(ctx, "projector_identity", tables, stream)


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
                    f"Gram[{rep.basis_label(ctx, a)}][{rep.basis_label(ctx, b)}] = "
                    f"{print_canonical(cell, ctx)}, expected {expected}",
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
    def stream(tables):
        for k in range(1, ctx.n + 1):
            power = rep.PhasedPermutation.identity(ctx)
            for m, closed in enumerate(_odd_power_tables(ctx, k)):
                yield power, closed, f"c_{2 * k - 1}^{m} vs its closed form"
                power = tables[2 * k - 2] @ power

    return _table_check(ctx, "power_formula", tables, stream)


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
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if max_len < 0:
        raise ValueError("max_len must be >= 0")

    def stream(tables):
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
                    yield _differs(what, labels[j], state, table.column(j))

    return _table_check(ctx, "homomorphism", tables, stream, seed)


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

# The checks that need no generator tables; run_suite builds the tables once
# for all the others.
_TABLELESS_CHECKS = frozenset(("zeta_root", "orthonormal_basis"))


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
    if not _TABLELESS_CHECKS.issuperset(selection):
        # On failure each table check reads the tables again and reports the column.
        with contextlib.suppress(rep.NotPhasedPermutationError):
            tables = rep.generator_tables(ctx)
    # Each check is looked up when it runs, so a wrapper installed later is called.
    runners = {
        "zeta_root": lambda: check_zeta_root(ctx.N, ctx.zeta_exp),
        "unitarity": lambda: check_unitarity(ctx, tables),
        "order": lambda: check_order(ctx, tables),
        "commutation": lambda: check_commutation(ctx, tables),
        "ground_identity": lambda: check_ground_identity(ctx, tables),
        "projector_identity": lambda: check_projector_identity(ctx, tables),
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
