"""States of n qudits with exact amplitudes, and the generator action.

Basis states carry labels (a_1, ..., a_n) with digits in [0, N).  Every
generator is a generalized permutation: on a basis label the even generator
c_{2k} increments a_k mod N and multiplies by q^{-(a_1+...+a_{k-1})}, while
the odd generator c_{2k-1} contributes an extra zeta q^{a_k}.  The projector
E_k keeps exactly the components with a_k = 0.  A state is a
:class:`gcalg.cyclo.ExactVector` map from basis labels to amplitudes, the
same sparse vector type as an algebra element.  Operators act term by term
on that map, so applying a generator never materializes a matrix;
``dense_matrix`` exists for exports and cross-checks only, and stores only
the nonzero entries of each row: at most D times the element's terms for
dimension D, since every power product is a phased permutation.

Because every generator sends a basis state to a root of unity times a basis
state, its whole action also fits in a :class:`PhasedPermutation`: for each
row-major basis position, a target position and an exponent of
w = exp(i*pi/N).  ``generator_table`` reads such a table off ``apply_generator``
one basis state at a time, and products, powers and adjoints of the tables are
then exact integer arithmetic.
"""

from __future__ import annotations

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
    "check_dense_cap",
    "dense_matrix",
    "generator_table",
    "ground_state",
    "ordered_basis_vector",
    "scalar_product",
    "state_to_json",
]

BasisIndex = tuple[int, ...]

DENSE_CAP_DEFAULT = 4096


class DenseCapError(ValueError):
    """A dense output would exceed the configured dimension cap."""


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
        head = sum(digits[: k - 1])
        nd = digits[: k - 1] + ((digits[k - 1] + 1) % N,) + digits[k:]
        out[nd] = amp.times_root(zeta + 2 * (zeta_power * digits[k - 1] - head))
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
    if not 1 <= i <= state.ctx.num_generators:
        raise ValueError(f"generator index {i} out of range 1..{state.ctx.num_generators}")
    if i % 2:
        return apply_odd((i + 1) // 2, state)
    return apply_even(i // 2, state)


def apply_word(word: Word, state: QuditState) -> QuditState:
    """Apply a word letter by letter, rightmost letter acting first."""
    if word.ctx != state.ctx:
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
            tuple(perm[b] for b in other.perm),
            tuple((f + phase[b]) % m for b, f in zip(other.perm, other.phase)),
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


def generator_table(ctx: AlgebraContext, i: int) -> PhasedPermutation:
    """Table of c_i, read off by applying ``apply_generator`` to every basis state.

    Raises NotPhasedPermutationError, naming the first basis state whose
    image is not a single term +-w^k on a basis label.
    """
    position = {label: j for j, label in enumerate(basis_indices(ctx))}
    perm = []
    phase = []
    for label in position:
        out = apply_generator(i, basis_state(ctx, label))
        if len(out.terms) != 1:
            raise NotPhasedPermutationError(
                f"c_{i}|{label}> has {len(out.terms)} terms, expected 1"
            )
        (target, amp), = out.terms.items()
        j = position.get(target)
        if j is None:
            raise NotPhasedPermutationError(f"c_{i}|{label}> lands on {target}, not a basis label")
        k = amp.root_exponent()
        if k is None:
            raise NotPhasedPermutationError(
                f"c_{i}|{label}> has amplitude {amp}, expected a root of unity"
            )
        perm.append(j)
        phase.append(k)
    return PhasedPermutation._raw(ctx, tuple(perm), tuple(phase))


def scalar_product(a: QuditState, b: QuditState) -> CycloScalar:
    """Hermitian product, conjugate-linear in the first argument."""
    a._check_ctx(b)
    total = a.ctx.zero()
    # Loop over the smaller map; its order fixes the order of the sum.
    for digits in b.terms if len(b.terms) < len(a.terms) else a.terms:
        if digits in a.terms and digits in b.terms:
            total = total + a.terms[digits].conj() * b.terms[digits]
    return total


def ordered_basis_vector(ctx: AlgebraContext, digits) -> QuditState:
    """Apply c_2^{a_1} c_4^{a_2} ... c_{2n}^{a_n} to the ground state.

    The rightmost factor acts first, so the n-th qudit's digit fills first.
    """
    digits = tuple(digits)
    _check_digits(ctx, digits)
    state = ground_state(ctx)
    for pos in range(ctx.n, 0, -1):
        for _ in range(digits[pos - 1]):
            state = apply_even(pos, state)
    return state


def dense_matrix(element: AlgebraElement,
                 cap: int = DENSE_CAP_DEFAULT) -> list[dict[int, CycloScalar]]:
    """Rows of an element's matrix; column j is its action on the j-th basis state.

    Row i maps each column position j to the nonzero entry (i, j), in
    ascending j; an absent column is a zero entry, and no zero is stored.
    Rows and columns follow ``basis_indices`` order (first digit slowest).
    """
    ctx = element.ctx
    check_dense_cap(ctx, cap)
    labels = list(basis_indices(ctx))
    row_of = {label: r for r, label in enumerate(labels)}
    rows = [{} for _ in labels]
    for j, label in enumerate(labels):
        column = apply_element(element, basis_state(ctx, label))
        for digits, amp in column.terms.items():
            rows[row_of[digits]][j] = amp
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
