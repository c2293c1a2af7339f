"""Executable verification of the algebra's defining identities.

Each check exercises one identity exhaustively over the basis states of a
context and returns a :class:`CheckReport`; comparisons are exact, never
floating point.  Every generator sends a basis state to w^k times a basis
state, so operator identities are checked on its table
(:class:`gcalg.rep.PhasedPermutation`): a target position and a phase
exponent per basis state, read off ``rep.apply_generator`` on every basis
state.  Products, powers and adjoints of tables are integer arithmetic, and
two operators agree iff their tables are equal.  ``run_suite`` builds the
2n tables once per call, and only when a selected check needs them; a
generator that is not such a table fails those checks with the offending
basis state as counterexample.  The homomorphism check keeps a sparse
oracle: each random word is applied letter by letter to sparse basis states
and compared with the table of its normal form.  The ground-state and
projector identities and the orthonormal basis act on sparse states.

Checked, for every context:

* the square root of q: zeta^2 = q and zeta^(N^2) = 1, and for odd N the
  rejection of the opposite root;
* unitarity of every generator (the conjugate transpose both inverts the
  generator and equals its (N-1)-th power);
* generator order c^N = 1;
* all commutation pairs c_i c_j = q c_j c_i for i < j;
* the ground-state identity c_{2k-1}|0..0> = zeta c_{2k}|0..0> and its
  projector form c_{2k-1} E_k = zeta c_{2k} E_k;
* orthonormality of the vectors c_2^{a_1} ... c_{2n}^{a_n}|0..0>;
* the closed form for powers of odd generators;
* agreement of normal-form application with letter-by-letter application
  on random seeded words.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import rep
from .cyclo import AlgebraContext, CycloScalar
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


def _passed(ctx: AlgebraContext, name: str, seed: int | None = None) -> CheckReport:
    return CheckReport(ctx, name, True, None, seed)


def _failed(ctx: AlgebraContext, name: str, detail: str, seed: int | None = None) -> CheckReport:
    return CheckReport(ctx, name, False, detail, seed)


def check_zeta_root(N: int, zeta_exp: int | None = None) -> CheckReport:
    """zeta^2 = q and zeta^(N^2) = 1; for odd N the plus root must fail."""
    ctx = AlgebraContext(N, 1, zeta_exp)
    name = "zeta_root"
    zeta = ctx.zeta()
    if not zeta * zeta == ctx.q():
        return _failed(ctx, name, f"zeta^2 = {zeta * zeta} differs from q = {ctx.q()}")
    power = zeta ** (N * N)
    if not power == 1:
        return _failed(ctx, name, f"zeta^(N^2) = {power} differs from 1")
    if N % 2:
        rejected = ctx.omega(1) ** (N * N)
        if not rejected == -1:
            return _failed(
                ctx, name,
                f"rejected root (+exp(i*pi/N)) has N^2-th power {rejected}, expected -1",
            )
    return _passed(ctx, name)


def _generator_tables(ctx: AlgebraContext):
    """Tables of c_1 .. c_2n, or None and the first column that is not +-w^k |b>."""
    try:
        tables = [rep.generator_table(ctx, i) for i in range(1, ctx.num_generators + 1)]
    except rep.NotPhasedPermutationError as exc:
        return None, str(exc)
    return tables, None


def _first_difference(a: rep.PhasedPermutation, b: rep.PhasedPermutation) -> int:
    return next(
        j for j in range(len(a.perm))
        if a.perm[j] != b.perm[j] or a.phase[j] != b.phase[j]
    )


def check_unitarity(ctx: AlgebraContext) -> CheckReport:
    """Every generator c satisfies c c^dagger = c^dagger c = 1.

    Each generator's table must permute the basis labels with root-of-unity
    amplitudes, so its conjugate transpose is again a table and inverts it;
    the check also asserts that the conjugate transpose coincides with the
    (N-1)-th power of c.
    """
    return _check_unitarity(ctx, *_generator_tables(ctx))


def _check_unitarity(ctx, tables, problem) -> CheckReport:
    name = "unitarity"
    if tables is None:
        return _failed(ctx, name, problem)
    for i, table in enumerate(tables, start=1):
        if not table.is_bijection():
            return _failed(ctx, name, f"c_{i} does not permute the basis labels")
        power = table ** (ctx.N - 1)
        dagger = table.dagger()
        if power != dagger:
            j = _first_difference(power, dagger)
            return _failed(
                ctx, name,
                f"c_{i}^(N-1)|{rep.basis_label(ctx, j)}> = {_state_text(power.column(j))} "
                f"differs from the conjugate transpose column {_state_text(dagger.column(j))}",
            )
    return _passed(ctx, name)


def check_order(ctx: AlgebraContext) -> CheckReport:
    """Every generator satisfies c^N = 1 on every basis state."""
    return _check_order(ctx, *_generator_tables(ctx))


def _check_order(ctx, tables, problem) -> CheckReport:
    name = "order"
    if tables is None:
        return _failed(ctx, name, problem)
    identity = rep.PhasedPermutation.identity(ctx)
    for i, table in enumerate(tables, start=1):
        power = table ** ctx.N
        if power != identity:
            j = _first_difference(power, identity)
            label = rep.basis_label(ctx, j)
            return _failed(
                ctx, name,
                f"c_{i}^N|{label}> = {_state_text(power.column(j))} differs from |{label}>",
            )
    return _passed(ctx, name)


def check_commutation(ctx: AlgebraContext) -> CheckReport:
    """c_i c_j = q c_j c_i for every pair i < j, on every basis state."""
    return _check_commutation(ctx, *_generator_tables(ctx))


def _check_commutation(ctx, tables, problem) -> CheckReport:
    name = "commutation"
    if tables is None:
        return _failed(ctx, name, problem)
    for i in range(1, ctx.num_generators + 1):
        for j in range(i + 1, ctx.num_generators + 1):
            lhs = tables[i - 1] @ tables[j - 1]
            rhs = (tables[j - 1] @ tables[i - 1]).scaled(2)  # q = w^2
            if lhs != rhs:
                p = _first_difference(lhs, rhs)
                return _failed(
                    ctx, name,
                    f"pair ({i},{j}) on |{rep.basis_label(ctx, p)}>: c_{i}c_{j} gives "
                    f"{_state_text(lhs.column(p))} but q c_{j}c_{i} gives "
                    f"{_state_text(rhs.column(p))}",
                )
    return _passed(ctx, name)


def check_ground_identity(ctx: AlgebraContext) -> CheckReport:
    """c_{2k-1}|0..0> = zeta c_{2k}|0..0> for every k."""
    name = "ground_identity"
    zeta = ctx.zeta()
    ground = rep.ground_state(ctx)
    for k in range(1, ctx.n + 1):
        lhs = rep.apply_odd(k, ground)
        rhs = zeta * rep.apply_even(k, ground)
        if not lhs == rhs:
            return _failed(
                ctx, name,
                f"k={k}: c_{2 * k - 1}|0..0> = {_state_text(lhs)} differs from "
                f"zeta c_{2 * k}|0..0> = {_state_text(rhs)}",
            )
    return _passed(ctx, name)


def check_projector_identity(ctx: AlgebraContext) -> CheckReport:
    """c_{2k-1} E_k = zeta c_{2k} E_k as operators, on every basis state."""
    name = "projector_identity"
    zeta = ctx.zeta()
    for k in range(1, ctx.n + 1):
        for digits in rep.basis_indices(ctx):
            projected = rep.apply_projector(k, rep.basis_state(ctx, digits))
            lhs = rep.apply_odd(k, projected)
            rhs = zeta * rep.apply_even(k, projected)
            if not lhs == rhs:
                return _failed(
                    ctx, name,
                    f"k={k} on |{digits}>: {_state_text(lhs)} differs from {_state_text(rhs)}",
                )
    return _passed(ctx, name)


def check_orthonormal_basis(ctx: AlgebraContext) -> CheckReport:
    """The vectors c_2^{a_1} ... c_{2n}^{a_n}|0..0> form an orthonormal basis.

    Builds all of them and asserts each is a single unit-modulus term.  The
    Gram entry of two such vectors is conj(amp) * amp' when they sit on the
    same label and zero otherwise, so the Gram matrix is exactly the identity
    iff no two vectors share a label.
    """
    name = "orthonormal_basis"
    seen: dict[rep.BasisIndex, tuple[rep.BasisIndex, CycloScalar]] = {}
    for digits in rep.basis_indices(ctx):
        v = rep.ordered_basis_vector(ctx, digits)
        if len(v.amps) != 1:
            return _failed(ctx, name, f"basis vector {digits} has {len(v.amps)} terms")
        (target, amp), = v.amps.items()
        if not amp.conj() * amp == 1:
            return _failed(ctx, name, f"basis vector {digits} has non-unit amplitude {amp}")
        if target in seen:
            other, other_amp = seen[target]
            return _failed(
                ctx, name,
                f"Gram[{other}][{digits}] = {other_amp.conj() * amp}, expected 0",
            )
        seen[target] = (digits, amp)
    return _passed(ctx, name)


def _odd_power_table(ctx: AlgebraContext, k: int, m: int) -> rep.PhasedPermutation:
    # The closed form of c_{2k-1}^m stated in check_power_formula; raising
    # digit k by m moves the row-major position by a multiple of its stride.
    N = ctx.N
    stride = N ** (ctx.n - k)
    perm = []
    phase = []
    for j, digits in enumerate(rep.basis_indices(ctx)):
        head = sum(digits[: k - 1])
        ak = digits[k - 1]
        perm.append(j + ((ak + m) % N - ak) * stride)
        phase.append(ctx.zeta_exp * m + 2 * (m * ak + m * (m - 1) // 2 - m * head))
    return rep.PhasedPermutation(ctx, perm, phase)


def check_power_formula(ctx: AlgebraContext) -> CheckReport:
    """m-fold application of c_{2k-1} matches its closed form for m in [0, 2N].

    The closed form on |a_1..a_n> is
    zeta^m q^{m a_k + m(m-1)/2} q^{-m (a_1+..+a_{k-1})} |.., a_k + m, ..>.
    """
    return _check_power_formula(ctx, *_generator_tables(ctx))


def _check_power_formula(ctx, tables, problem) -> CheckReport:
    name = "power_formula"
    if tables is None:
        return _failed(ctx, name, problem)
    for k in range(1, ctx.n + 1):
        power = rep.PhasedPermutation.identity(ctx)
        for m in range(0, 2 * ctx.N + 1):
            expected = _odd_power_table(ctx, k, m)
            if power != expected:
                j = _first_difference(power, expected)
                return _failed(
                    ctx, name,
                    f"k={k}, m={m} on |{rep.basis_label(ctx, j)}>: "
                    f"{_state_text(power.column(j))} differs from "
                    f"{_state_text(expected.column(j))}",
                )
            power = tables[2 * k - 2] @ power
    return _passed(ctx, name)


def _monomial_table(ctx: AlgebraContext, tables, monomial) -> rep.PhasedPermutation:
    # phase * c_1^{e_1} ... c_{2n}^{e_{2n}}: the rightmost power acts first.
    table = rep.PhasedPermutation.identity(ctx)
    for generator, e in zip(tables, monomial.exps):
        if e:
            table = table @ generator ** e
    return table.scaled(monomial.phase.root_exponent())


def check_homomorphism(
    ctx: AlgebraContext,
    trials: int = HOMOMORPHISM_TRIALS_DEFAULT,
    max_len: int = HOMOMORPHISM_MAX_LEN_DEFAULT,
    seed: int = 0,
) -> CheckReport:
    """Seeded random words act identically letter-by-letter and in normal form.

    The letter-by-letter side applies each letter to sparse basis states; the
    normal-form side is the table of ``normal_order(word)``, composed from
    the generator tables.
    """
    return _check_homomorphism(ctx, *_generator_tables(ctx), trials, max_len, seed)


def _check_homomorphism(ctx, tables, problem, trials, max_len, seed) -> CheckReport:
    name = "homomorphism"
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if tables is None:
        return _failed(ctx, name, problem, seed)
    rng = random.Random(seed)
    top = ctx.num_generators
    for _ in range(trials):
        length = rng.randint(0, max_len)
        word = Word(ctx, tuple(rng.randint(1, top) for _ in range(length)))
        table = _monomial_table(ctx, tables, normal_order(word))
        for j, digits in enumerate(rep.basis_indices(ctx)):
            direct = rep.apply_word(word, rep.basis_state(ctx, digits))
            via_normal = table.column(j)
            if not direct == via_normal:
                return _failed(
                    ctx, name,
                    f"word {list(word.letters)} on |{digits}>: letterwise "
                    f"{_state_text(direct)} differs from normal form {_state_text(via_normal)}",
                    seed,
                )
    return _passed(ctx, name, seed)


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
    tables, problem = (
        _generator_tables(ctx) if _TABLE_CHECKS.intersection(selection) else (None, None)
    )
    runners = {
        "zeta_root": lambda: check_zeta_root(ctx.N, ctx.zeta_exp),
        "unitarity": lambda: _check_unitarity(ctx, tables, problem),
        "order": lambda: _check_order(ctx, tables, problem),
        "commutation": lambda: _check_commutation(ctx, tables, problem),
        "ground_identity": lambda: check_ground_identity(ctx),
        "projector_identity": lambda: check_projector_identity(ctx),
        "orthonormal_basis": lambda: check_orthonormal_basis(ctx),
        "power_formula": lambda: _check_power_formula(ctx, tables, problem),
        "homomorphism": lambda: _check_homomorphism(
            ctx, tables, problem, HOMOMORPHISM_TRIALS_DEFAULT, HOMOMORPHISM_MAX_LEN_DEFAULT, seed
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
