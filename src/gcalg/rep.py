"""States of n qudits with exact amplitudes, and the generator action.

Basis states carry labels (a_1, ..., a_n) with digits in [0, N);
``basis_states`` lists every label with its basis state, in row-major order.
Each object built over the whole basis has one builder here, which the
checks and the exports read: ``generator_tables``, ``monomial_table``,
``ordered_basis`` (the vectors c_2^{a_1} ... c_{2n}^{a_n}|0..0>), their
``gram`` matrix and ``dense_matrix``.

Every generator is a generalized permutation: on a basis label the even
generator c_{2k} increments a_k mod N and multiplies by
q^{-(a_1+...+a_{k-1})}, while the odd generator c_{2k-1} contributes an
extra zeta q^{a_k}.  The projector E_k keeps exactly the components with
a_k = 0.  A state is a :class:`gcalg.cyclo.ExactVector` map from basis
labels to amplitudes, the same sparse vector type as an algebra element.
Operators act term by term on that map, so applying a generator never
materializes a matrix; ``dense_matrix`` exists for exports and cross-checks
only, and stores only the nonzero entries of each row: at most D times the
element's terms for dimension D, since every power product is a phased
permutation.

Because every generator sends a basis state to a root of unity times a basis
state, its whole action also fits in a :class:`PhasedPermutation`: for each
row-major basis position, a target position and an exponent of
w = exp(i*pi/N).  ``generator_tables`` reads the 2n tables (or a chosen few)
off ``apply_generator`` one basis state at a time, and products, powers and
adjoints of the tables are then exact integer arithmetic.
``monomial_table`` composes them into the table of a power product
c_1^{e_1} ... c_{2n}^{e_{2n}} from the generator powers a lookup gives it:
the homomorphism check reads it for normal forms, and ``dense_matrix`` for
the terms of an element, summing the terms' images of each basis state into
its column.  Both cache the lookup, so each distinct power is computed once
however many products share it.  So an export costs the tables of the generators it uses, each
distinct power once, one table product per generator a term uses, and terms
times D column steps; ``MAX_EXPORT_WORK`` bounds terms times D before any
work is done.
"""

from __future__ import annotations

import functools
import itertools
import operator

from .cyclo import (
    AlgebraContext,
    ContextMismatchError,
    CycloScalar,
    ExactVector,
    power_by_squaring,
    sum_terms,
)
from .symbolic import AlgebraElement, Word

__all__ = [
    "BasisIndex",
    "DENSE_CAP_DEFAULT",
    "DenseCapError",
    "MAX_EXPORT_WORK",
    "NotPhasedPermutationError",
    "PhasedPermutation",
    "QuditState",
    "apply_element",
    "apply_even",
    "apply_generator",
    "apply_odd",
    "apply_projector",
    "apply_word",
    "basis_indices",
    "basis_label",
    "basis_state",
    "basis_states",
    "check_dense_cap",
    "dense_matrix",
    "generator_tables",
    "gram",
    "ground_state",
    "monomial_table",
    "ordered_basis",
    "scalar_product",
    "state_to_json",
]

BasisIndex = tuple[int, ...]

DENSE_CAP_DEFAULT = 4096

# The most steps (terms times dimension) that ``dense_matrix`` takes: 64
# terms at the default dense cap.
MAX_EXPORT_WORK = 2**18


class DenseCapError(ValueError):
    """A dense output would exceed the dimension cap or the export work budget."""


class NotPhasedPermutationError(ValueError):
    """An operator sends some basis state to something other than +-w^k |b>."""


def check_dense_cap(ctx: AlgebraContext, cap: int) -> None:
    """Raise DenseCapError when the context's dimension exceeds ``cap``."""
    if ctx.dim > cap:
        raise DenseCapError(f"dimension {ctx.dim} exceeds the dense cap {cap}")


def _check_digits(ctx: AlgebraContext, digits: BasisIndex):
    if len(digits) != ctx.n:
        raise ValueError(f"expected {ctx.n} digits, got {len(digits)}")
    if any(not isinstance(d, int) or not 0 <= d < ctx.N for d in digits):
        raise ValueError(f"digits must lie in [0, {ctx.N}): {digits}")


class QuditState(ExactVector):
    """Sparse map from basis labels to exact amplitudes (zero terms absent)."""

    __slots__ = ()

    def _key(self, digits) -> BasisIndex:
        digits = tuple(digits)
        _check_digits(self.ctx, digits)
        return digits

    @property
    def amps(self) -> dict[BasisIndex, CycloScalar]:
        """The ``terms`` map, basis label -> amplitude; read-only."""
        return self.terms

    def amplitude(self, digits) -> CycloScalar:
        """Amplitude at a basis label, zero when absent."""
        return self.terms.get(tuple(digits), self.ctx.zero())

    def __eq__(self, other):
        if not isinstance(other, QuditState):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms


def ground_state(ctx: AlgebraContext) -> QuditState:
    """The all-zero basis state with amplitude one."""
    return QuditState._raw(ctx, {(0,) * ctx.n: ctx.one()})


def basis_state(ctx: AlgebraContext, digits) -> QuditState:
    digits = tuple(digits)
    _check_digits(ctx, digits)
    return QuditState._raw(ctx, {digits: ctx.one()})


def basis_indices(ctx: AlgebraContext):
    """All basis labels in row-major order, first digit slowest."""
    return itertools.product(range(ctx.N), repeat=ctx.n)


def basis_states(ctx: AlgebraContext) -> list[tuple[BasisIndex, QuditState]]:
    """``(label, |label>)`` for every basis label, in ``basis_indices`` order."""
    one = ctx.one()
    return [(label, QuditState._raw(ctx, {label: one})) for label in basis_indices(ctx)]


def basis_label(ctx: AlgebraContext, position: int) -> BasisIndex:
    """The basis label at a row-major position, the inverse of ``basis_indices`` order."""
    if not 0 <= position < ctx.dim:
        raise ValueError(f"basis position {position} out of range 0..{ctx.dim - 1}")
    digits = []
    for _ in range(ctx.n):
        position, d = divmod(position, ctx.N)
        digits.append(d)
    return tuple(reversed(digits))


def _raise_digit(k: int, state: QuditState, zeta_power: int) -> QuditState:
    # c_{2k} (zeta_power 0) or c_{2k-1} (zeta_power 1): raise digit k with
    # phase zeta^z q^{z a_k - (a_1+...+a_{k-1})}.  Unit phases cannot cancel
    # a nonzero amplitude, so nothing is pruned.
    ctx = state.ctx
    if not 1 <= k <= ctx.n:
        raise ValueError(f"qudit index {k} out of range 1..{ctx.n}")
    N = ctx.N
    zeta = ctx.zeta_exp * zeta_power  # the w-exponent of zeta^z
    out = {}
    for digits, amp in state.terms.items():
        head = digits[: k - 1]
        ak = digits[k - 1]
        out[(*head, (ak + 1) % N, *digits[k:])] = amp.times_root(
            zeta + 2 * (zeta_power * ak - sum(head))
        )
    return QuditState._raw(ctx, out)


def apply_even(k: int, state: QuditState) -> QuditState:
    """Action of c_{2k}: raise digit k, phase q^{-(sum of digits left of k)}."""
    return _raise_digit(k, state, 0)


def apply_odd(k: int, state: QuditState) -> QuditState:
    """Action of c_{2k-1}: like c_{2k} with an extra factor zeta q^{a_k}."""
    return _raise_digit(k, state, 1)


def apply_projector(k: int, state: QuditState) -> QuditState:
    """Action of E_k: keep exactly the components with a_k = 0."""
    ctx = state.ctx
    if not 1 <= k <= ctx.n:
        raise ValueError(f"qudit index {k} out of range 1..{ctx.n}")
    out = {d: a for d, a in state.terms.items() if d[k - 1] == 0}
    return QuditState._raw(ctx, out)


def apply_generator(i: int, state: QuditState) -> QuditState:
    """Action of c_i, dispatching on the parity of the generator index."""
    top = 2 * state.ctx.n
    if not 1 <= i <= top:
        raise ValueError(f"generator index {i} out of range 1..{top}")
    if i % 2:
        return apply_odd((i + 1) // 2, state)
    return apply_even(i // 2, state)


def apply_word(word: Word, state: QuditState) -> QuditState:
    """Apply a word letter by letter, rightmost letter acting first."""
    if word.ctx is not state.ctx and word.ctx != state.ctx:
        raise ContextMismatchError("word and state from different contexts")
    for letter in reversed(word.letters):
        state = apply_generator(letter, state)
    return state


def apply_element(element: AlgebraElement, state: QuditState) -> QuditState:
    """Linear action of an element; each power product acts rightmost-first."""
    if element.ctx != state.ctx:
        raise ContextMismatchError("element and state from different contexts")
    ctx = state.ctx
    pairs = []
    for exps, coeff in element.terms.items():
        cur = state
        for i in range(ctx.num_generators, 0, -1):
            for _ in range(exps[i - 1]):
                cur = apply_generator(i, cur)
        pairs.extend((digits, coeff * amp) for digits, amp in cur.terms.items())
    return QuditState._raw(ctx, sum_terms(pairs))


class PhasedPermutation:
    """The operator |a> -> w^{phase[a]} |perm[a]> on row-major basis positions.

    ``perm`` and ``phase`` are tuples of ints of length ``ctx.dim``; phases
    are exponents of w = exp(i*pi/N) reduced mod 2N.  ``a @ b`` is the
    operator a applied after b.  Instances are immutable values and ``==``
    compares both tuples exactly.
    """

    __slots__ = ("ctx", "perm", "phase")

    __hash__ = None

    def __init__(self, ctx: AlgebraContext, perm, phase):
        perm = tuple(perm)
        phase = tuple(f % ctx.order for f in phase)
        if len(perm) != ctx.dim or len(phase) != ctx.dim:
            raise ValueError(f"expected tables of length {ctx.dim}")
        if any(not 0 <= b < ctx.dim for b in perm):
            raise ValueError(f"positions must lie in [0, {ctx.dim})")
        self.ctx = ctx
        self.perm = perm
        self.phase = phase

    @classmethod
    def _raw(cls, ctx: AlgebraContext, perm: tuple, phase: tuple) -> PhasedPermutation:
        t = cls.__new__(cls)
        t.ctx = ctx
        t.perm = perm
        t.phase = phase
        return t

    @classmethod
    def identity(cls, ctx: AlgebraContext) -> PhasedPermutation:
        return cls._raw(ctx, tuple(range(ctx.dim)), (0,) * ctx.dim)

    def __matmul__(self, other):
        if not isinstance(other, PhasedPermutation):
            return NotImplemented
        if other.ctx != self.ctx:
            raise ContextMismatchError("tables from different contexts")
        m = self.ctx.order
        perm, phase = self.perm, self.phase
        return PhasedPermutation._raw(
            self.ctx,
            tuple([perm[b] for b in other.perm]),
            tuple([(f + phase[b]) % m for b, f in zip(other.perm, other.phase)]),
        )

    def __pow__(self, k: int) -> PhasedPermutation:
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError("negative powers are not defined; dagger() inverts a bijective table")
        return power_by_squaring(self, k, PhasedPermutation.identity(self.ctx), operator.matmul)

    def is_bijection(self) -> bool:
        return len(set(self.perm)) == len(self.perm)

    def dagger(self) -> PhasedPermutation:
        """Conjugate transpose |perm[a]> -> w^{-phase[a]} |a>; needs a bijective perm."""
        if not self.is_bijection():
            raise ValueError("only a bijective table has a phased-permutation dagger")
        m = self.ctx.order
        perm = [0] * len(self.perm)
        phase = [0] * len(self.perm)
        for a, (b, f) in enumerate(zip(self.perm, self.phase)):
            perm[b] = a
            phase[b] = -f % m
        return PhasedPermutation._raw(self.ctx, tuple(perm), tuple(phase))

    def scaled(self, k: int) -> PhasedPermutation:
        """The operator w^k times this one."""
        m = self.ctx.order
        return PhasedPermutation._raw(self.ctx, self.perm, tuple((f + k) % m for f in self.phase))

    def column(self, position: int) -> QuditState:
        """The image of the basis state at ``position``, as a sparse state."""
        ctx = self.ctx
        target = basis_label(ctx, self.perm[position])
        return QuditState._raw(ctx, {target: ctx.omega(self.phase[position])})

    def __eq__(self, other):
        if not isinstance(other, PhasedPermutation):
            return NotImplemented
        return self.ctx == other.ctx and self.perm == other.perm and self.phase == other.phase

    def __repr__(self) -> str:
        return (
            f"PhasedPermutation(N={self.ctx.N}, n={self.ctx.n}, "
            f"perm={self.perm}, phase={self.phase})"
        )


def generator_tables(ctx: AlgebraContext, indices=None) -> list[PhasedPermutation | None]:
    """Tables of c_1 .. c_2n, read off by applying ``apply_generator`` to every basis state.

    With ``indices``, a set of generator indices, only those tables are
    read and every other entry is None.  The basis states and the label ->
    position map are built once for all tables.  Raises
    NotPhasedPermutationError, naming the first basis state of the first
    generator read whose image is not a single term +-w^k on a basis label.
    """
    states = basis_states(ctx)
    position = {label: j for j, (label, _) in enumerate(states)}
    tables = [None] * ctx.num_generators
    for i in range(1, ctx.num_generators + 1) if indices is None else sorted(indices):
        perm = []
        phase = []
        for label, state in states:
            out = apply_generator(i, state)
            if len(out.terms) != 1:
                raise NotPhasedPermutationError(
                    f"c_{i}|{label}> has {len(out.terms)} terms, expected 1"
                )
            (target, amp), = out.terms.items()
            j = position.get(target)
            if j is None:
                raise NotPhasedPermutationError(
                    f"c_{i}|{label}> lands on {target}, not a basis label"
                )
            k = amp.root_exponent()
            if k is None:
                raise NotPhasedPermutationError(
                    f"c_{i}|{label}> has amplitude {amp}, expected a root of unity"
                )
            perm.append(j)
            phase.append(k)
        tables[i - 1] = PhasedPermutation._raw(ctx, tuple(perm), tuple(phase))
    return tables


def monomial_table(ctx: AlgebraContext, power, exps) -> PhasedPermutation:
    """Table of c_1^{e_1} ... c_{2n}^{e_{2n}}, the rightmost power acting first.

    ``power(i, e)`` is the table of c_i^e, as ``tables[i - 1] ** e`` over
    the generator tables; it is asked only for the nonzero exponents.
    """
    table = PhasedPermutation.identity(ctx)
    for i, e in enumerate(exps, start=1):
        if e:
            table = table @ power(i, e)
    return table


def scalar_product(a: QuditState, b: QuditState) -> CycloScalar:
    """Hermitian product, conjugate-linear in the first argument."""
    a._check_ctx(b)
    total = a.ctx.zero()
    # Loop over the smaller map; its order fixes the order of the sum.
    for digits in b.terms if len(b.terms) < len(a.terms) else a.terms:
        if digits in a.terms and digits in b.terms:
            total = total + a.terms[digits].conj() * b.terms[digits]
    return total


def ordered_basis(ctx: AlgebraContext) -> list[QuditState]:
    """The vectors c_2^{a_1} c_4^{a_2} ... c_{2n}^{a_n}|0..0>, in ``basis_indices`` order.

    The rightmost factor acts first, so the n-th qudit's digit fills first,
    and the leftmost letter is c_{2p} for the first nonzero digit a_p.  So
    the vector of a is ``apply_even(p, v)``, where v is the vector of a - e_p,
    found one stride N^(n-p) earlier: every letter of the definition, with
    each shared tail applied once.
    """
    vectors = [ground_state(ctx)]  # a = 0 comes first in row-major order
    for j, digits in enumerate(itertools.islice(basis_indices(ctx), 1, None), start=1):
        p = next(k for k, d in enumerate(digits, start=1) if d)
        vectors.append(apply_even(p, vectors[j - ctx.N ** (ctx.n - p)]))
    return vectors


def gram(ctx: AlgebraContext) -> list[dict[int, CycloScalar]]:
    """Gram matrix of ``ordered_basis``, as ``dense_matrix`` rows.

    ``scalar_product`` runs only on pairs whose supports share a basis
    label; every other cell is zero and absent from its row.
    """
    vectors = ordered_basis(ctx)
    holders = {}  # basis label -> positions of the vectors whose support holds it
    for j, vector in enumerate(vectors):
        for label in vector.terms:
            holders.setdefault(label, []).append(j)
    return [
        {j: scalar_product(vr, vectors[j])
         for j in sorted({j for label in vr.terms for j in holders[label]})}
        for vr in vectors
    ]


def dense_matrix(element: AlgebraElement,
                 cap: int = DENSE_CAP_DEFAULT) -> list[dict[int, CycloScalar]]:
    """Rows of an element's matrix; column j is its action on the j-th basis state.

    Row i maps each column position j to the nonzero entry (i, j), in
    ascending j; an absent column is a zero entry, and no zero is stored.
    Rows and columns follow ``basis_indices`` order (first digit slowest).
    Each term's power product is one ``monomial_table``, composed from the
    tables of the generators the element uses, each distinct power computed
    once per call, and column j sums the terms' images of position j.
    Raises DenseCapError, before any work, when the dimension exceeds
    ``cap`` or the terms times the dimension exceed ``MAX_EXPORT_WORK``.
    """
    ctx = element.ctx
    check_dense_cap(ctx, cap)
    work = len(element.terms) * ctx.dim
    if work > MAX_EXPORT_WORK:
        raise DenseCapError(
            f"result too large: a matrix would take {work} steps (terms times dimension), "
            f"more than the budget of {MAX_EXPORT_WORK}"
        )
    tables = generator_tables(ctx, {i for x in element.terms for i, e in enumerate(x, 1) if e})
    power = functools.cache(lambda i, e: tables[i - 1] ** e)
    terms = [(monomial_table(ctx, power, exps), coeff) for exps, coeff in element.terms.items()]
    rows = [{} for _ in range(ctx.dim)]
    for j in range(ctx.dim):
        for i, amp in sum_terms((t.perm[j], c.times_root(t.phase[j])) for t, c in terms).items():
            rows[i][j] = amp
    return rows


def state_to_json(state: QuditState) -> dict:
    ctx = state.ctx
    return {
        "N": ctx.N,
        "n": ctx.n,
        "terms": [
            {"index": list(digits), "amp": amp.to_json()}
            for digits, amp in sorted(state.terms.items())
        ],
    }
