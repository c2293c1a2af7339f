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
Every check states its comparisons as a lazy stream of table pairs and
ready counterexample texts; one driver, ``_check``, runs the stream, stops
at the first failure and writes the report, so nothing after it is formed.
Seven checks are table checks (unitarity, order, commutation, the
ground-state and projector identities, power formula, homomorphism): each
takes the 2n generator tables as an optional argument (``tables``) and
reads them off the representation (``rep.generator_tables``) when it is
omitted; ``run_suite`` builds them once per call, only when a selected
check needs them, and passes them to each of those checks.  The tables
change no result: a generator that is not such a table fails every table
check with the offending basis state as counterexample.  The other two,
the square root of q and orthonormality, read no tables and yield texts
only.  The ground-state identity compares the tables of c_{2k-1} and
zeta c_{2k} at |0..0>; the projector identity applies E_k to every basis
state and compares them at each label E_k keeps.  The homomorphism check
keeps a sparse oracle: each random word is applied letter by letter to
sparse basis states, in lockstep (each letter, through
``rep.apply_generator``, acts on the images of all basis states before the
next letter does).  The images are read into a table by the reader that
``rep.generator_tables`` uses, and that table is compared with the table
of the word's normal form (``rep.monomial_table``, the builder
``gcalg matrix`` reads too); an image that is not a single root on a basis
label fails with the reader's text, naming the word and the first such
basis state.  ``normal_order`` counts swaps with the rule that element
products use, so this check also checks the product rule that
``gcalg eval`` multiplies with.  Orthonormality compares ``rep.gram``, the
Gram matrix that ``gcalg gram`` writes, with the identity.

Four table checks compare whole operators: unitarity, order, commutation
and the power formula.  For them a generator's Weyl–Heisenberg form
(``rep.WeylForm``) serves as well as its table.  Forms answer the
operations the streams use (``@``, powers, ``dagger``, ``scaled``,
``is_bijection`` and ``identity``), and two forms are equal iff their
tables are.  Forms are enough because they compose in closed form, in
O(n) integer steps, and commute up to a phase: two forms A and B satisfy
A B = w^(<l_A,s_B> - <l_B,s_A>) B A, the symplectic form of the qudit
Pauli group.
``run_suite`` reads each generator's form off its table once per call, at
the labels 0 and e_k, and compares the form's table with the generator
table on every basis state.  When every table is its form it passes the
forms in the ``tables`` slot of these four checks, and the tables
otherwise.  Each of them states its identity once, over either type.
``_mismatch`` turns a form into its table only when the two sides differ,
or when a table meets the power formula's closed form, so each
counterexample is the one the tables give.

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


def _mismatch(ctx: AlgebraContext, lhs, rhs, what: str, positions=None) -> str | None:
    """None when two operators agree, else both columns at the first basis state that differs.

    Each side is a table or a form; a form turns into its table only when
    the two sides are not equal as they stand, so a table compared with a
    closed form is compared as tables.  With ``positions``, ascending basis
    positions, only those are compared.
    """
    if positions is None and lhs == rhs:
        return None
    lhs, rhs = (op if isinstance(op, rep.PhasedPermutation) else op.table() for op in (lhs, rhs))
    if positions is None:
        if lhs == rhs:
            return None
        positions = range(ctx.dim)
    for j in positions:
        if lhs.perm[j] != rhs.perm[j] or lhs.phase[j] != rhs.phase[j]:
            left, right = (print_canonical(op.column(j)) for op in (lhs, rhs))
            return f"{what} on |{rep.basis_label(ctx, j)}>: {left} differs from {right}"
    return None


def _check(ctx: AlgebraContext, name: str, tables, stream, seed=None) -> CheckReport:
    """The report of the first failing item of ``stream(tables)``, or a pass.

    Every check's report comes from here.  The stream lazily yields
    comparisons ``(lhs, rhs, what[, positions])`` of two operators, which
    fail as ``_mismatch`` finds them, and counterexample texts, which fail
    as they stand; nothing after the first failure is formed.  ``tables``
    are the 2n generator tables, for the checks that compare whole
    operators their forms, and ``()`` for the checks that read none; when
    None the tables are read off the representation.  A generator, or a
    word's lockstep images, that is not a table fails the check with the
    first column that is not +-w^k |b> as counterexample.
    """
    try:
        items = stream(rep.generator_tables(ctx) if tables is None else tables)
        details = (item if isinstance(item, str) else _mismatch(ctx, *item) for item in items)
        detail = next(filter(None, details), None)
    except rep.NotPhasedPermutationError as exc:
        detail = str(exc)
    return CheckReport(ctx, name, detail is None, detail, seed)


def _generator_forms(tables):
    # The generators' Weyl-Heisenberg forms, each compared with its table on
    # every basis state, or None when some table is not its form.
    forms = [rep.WeylForm.of_table(table) for table in tables]
    return None if any(form is None for form in forms) else forms


def check_zeta_root(N: int, zeta_exp: int | None = None) -> CheckReport:
    """zeta^2 = q and zeta^(N^2) = 1; for odd N the plus root must fail."""
    ctx = AlgebraContext(N, 1, zeta_exp)

    def stream(_):
        zeta = ctx.zeta()
        square, power = zeta * zeta, zeta ** (N * N)
        if not square == ctx.q():
            yield f"zeta^2 = {print_canonical(square, ctx)} differs from q"
        if not power == 1:
            yield f"zeta^(N^2) = {print_canonical(power, ctx)} differs from 1"
        if N % 2 and not (rejected := ctx.omega(1) ** (N * N)) == -1:
            text = print_canonical(rejected, ctx)
            yield f"rejected root (+exp(i*pi/N)) has N^2-th power {text}, expected -1"

    return _check(ctx, "zeta_root", (), stream)


def check_unitarity(ctx: AlgebraContext, tables=None) -> CheckReport:
    """Every generator c satisfies c c^dagger = c^dagger c = 1.

    Each generator's table must permute the basis labels with root-of-unity
    amplitudes, so its conjugate transpose is again a table and inverts it;
    the check also asserts that the conjugate transpose coincides with the
    (N-1)-th power of c.  Given the generators' forms, it compares forms.
    """
    def stream(ops):
        for i, op in enumerate(ops, start=1):
            if not op.is_bijection():
                yield f"c_{i} does not permute the basis labels"  # dagger() would raise
            yield op ** (ctx.N - 1), op.dagger(), f"c_{i}^(N-1) vs c_{i}^dagger"

    return _check(ctx, "unitarity", tables, stream)


def check_order(ctx: AlgebraContext, tables=None) -> CheckReport:
    """Every generator satisfies c^N = 1 on every basis state."""
    def stream(ops):
        identity = type(ops[0]).identity(ctx)
        for i, op in enumerate(ops, start=1):
            yield op ** ctx.N, identity, f"c_{i}^N vs 1"

    return _check(ctx, "order", tables, stream)


def check_commutation(ctx: AlgebraContext, tables=None) -> CheckReport:
    """c_i c_j = q c_j c_i for every pair i < j, on every basis state."""
    def stream(ops):
        for i, j in itertools.combinations(range(1, ctx.num_generators + 1), 2):
            rhs = (ops[j - 1] @ ops[i - 1]).scaled(2)  # q = w^2
            yield ops[i - 1] @ ops[j - 1], rhs, f"c_{i}c_{j} vs q c_{j}c_{i}"

    return _check(ctx, "commutation", tables, stream)


def _zeta_stream(ctx: AlgebraContext, kept, tables):
    # c_{2k-1} against zeta c_{2k} at the basis positions in the k-th entry of kept.
    for k, positions in enumerate(kept, start=1):
        even = tables[2 * k - 1].scaled(ctx.zeta_exp)
        yield tables[2 * k - 2], even, f"c_{2 * k - 1} vs zeta c_{2 * k}", positions


def check_ground_identity(ctx: AlgebraContext, tables=None) -> CheckReport:
    """c_{2k-1}|0..0> = zeta c_{2k}|0..0> for every k: the tables agree at position 0."""
    stream = functools.partial(_zeta_stream, ctx, [(0,)] * ctx.n)
    return _check(ctx, "ground_identity", tables, stream)


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
    return _check(ctx, "projector_identity", tables, stream)


def check_orthonormal_basis(ctx: AlgebraContext) -> CheckReport:
    """The vectors c_2^{a_1} ... c_{2n}^{a_n}|0..0> form an orthonormal basis.

    Their Gram matrix ``rep.gram`` must equal the identity, cell by cell
    with the exact ``==``; a cell absent from its row is zero.
    """
    def stream(_):
        zero = ctx.zero()
        for a, row in enumerate(rep.gram(ctx)):
            for b in sorted({a, *row}):
                cell, expected = row.get(b, zero), int(a == b)
                if not cell == expected:
                    yield (f"Gram[{rep.basis_label(ctx, a)}][{rep.basis_label(ctx, b)}] = "
                           f"{print_canonical(cell, ctx)}, expected {expected}")

    return _check(ctx, "orthonormal_basis", (), stream)


def _closed_powers(ctx: AlgebraContext, k: int):
    # The closed forms of c_{2k-1}^m stated in check_power_formula, for
    # m = 0 .. 2N: shift m e_k, phase zeta^m q^{m(m-1)/2} and linear part
    # q^{m a_k - m (a_1+...+a_{k-1})}.
    n = ctx.n
    for m in range(2 * ctx.N + 1):
        yield rep.WeylForm(
            ctx,
            [m if j == k else 0 for j in range(1, n + 1)],
            ctx.zeta_exp * m + m * (m - 1),
            [-2 * m if j < k else 2 * m if j == k else 0 for j in range(1, n + 1)],
        )


def check_power_formula(ctx: AlgebraContext, tables=None) -> CheckReport:
    """m-fold application of c_{2k-1} matches its closed form for m in [0, 2N].

    The closed form on |a_1..a_n> is
    zeta^m q^{m a_k + m(m-1)/2} q^{-m (a_1+..+a_{k-1})} |.., a_k + m, ..>,
    stated as a form; each power of c_{2k-1}, a table or a form as the
    generators are given, is compared with it.
    """
    def stream(ops):
        for k in range(1, ctx.n + 1):
            step = ops[2 * k - 2]
            power = type(step).identity(ctx)
            for m, closed in enumerate(_closed_powers(ctx, k)):
                yield power, closed, f"c_{2 * k - 1}^{m} vs its closed form"
                power = step @ power

    return _check(ctx, "power_formula", tables, stream)


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
    from the generator tables.  ``rep._read_table`` reads the images into a
    table, and the stream yields it with the normal form's table, so the
    driver names the first basis state where they differ.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if max_len < 0:
        raise ValueError("max_len must be >= 0")

    def stream(tables):
        rng = random.Random(seed)
        top = ctx.num_generators
        labels, basis = zip(*rep.basis_states(ctx))
        position = {label: j for j, label in enumerate(labels)}
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
            name = f"word {list(word.letters)}"
            image = rep._read_table(ctx, name, labels, position, states)
            yield image, table, f"{name} vs its normal form"

    return _check(ctx, "homomorphism", tables, stream, seed)


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
# The checks that compare whole operators, so that the generators' forms
# serve for their tables; run_suite reads the forms once for all of them.
_FORM_CHECKS = frozenset(("unitarity", "order", "commutation", "power_formula"))


def run_suite(ctx: AlgebraContext, selection=None, seed: int = 0) -> list[CheckReport]:
    """Run the selected checks (default: all) in a fixed deterministic order."""
    if selection is None:
        selection = ALL_CHECKS
    else:
        selection = tuple(selection)
        unknown = [name for name in selection if name not in ALL_CHECKS]
        if unknown:
            raise ValueError(f"unknown check name(s): {', '.join(unknown)}")
    tables = forms = None
    if not _TABLELESS_CHECKS.issuperset(selection):
        # On failure each table check reads the tables again and reports the column.
        with contextlib.suppress(rep.NotPhasedPermutationError):
            tables = rep.generator_tables(ctx)
    if tables is not None and not _FORM_CHECKS.isdisjoint(selection):
        forms = _generator_forms(tables)
    ops = tables if forms is None else forms
    # Each check is looked up when it runs, so a wrapper installed later is called.
    runners = {
        "zeta_root": lambda: check_zeta_root(ctx.N, ctx.zeta_exp),
        "unitarity": lambda: check_unitarity(ctx, ops),
        "order": lambda: check_order(ctx, ops),
        "commutation": lambda: check_commutation(ctx, ops),
        "ground_identity": lambda: check_ground_identity(ctx, tables),
        "projector_identity": lambda: check_projector_identity(ctx, tables),
        "orthonormal_basis": lambda: check_orthonormal_basis(ctx),
        "power_formula": lambda: check_power_formula(ctx, ops),
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
