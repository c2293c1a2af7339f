"""Canonical normal forms and exact products for generator words.

The algebra on generators c_1 .. c_{2n} satisfies c_i c_j = q c_j c_i for
i < j and c_i^N = 1, so every word equals a phase times the ascending power
product c_1^{e_1} ... c_{2n}^{e_{2n}} with all exponents in [0, N).
One rule counts the swaps that putting letters in order takes:
``_cross_inversions``.  ``normal_order`` applies it letter by letter,
``NormalMonomial.__mul__`` and ``AlgebraElement.__mul__`` to each pair of
power products, and ``AlgebraElement.adjoint`` to a product and itself.
The test suite checks all four against a literal bubble sort.
Elements are :class:`gcalg.cyclo.ExactVector` maps from exponent vectors to
coefficients.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .cyclo import (
    AlgebraContext,
    ContextMismatchError,
    CycloScalar,
    ExactVector,
    power_by_squaring,
    sum_terms,
)

__all__ = [
    "AlgebraElement",
    "NormalMonomial",
    "Word",
    "normal_order",
    "projector_element",
]


@dataclass(frozen=True)
class Word:
    """A product of generators, stored as the sequence of their indices."""

    ctx: AlgebraContext
    letters: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        top = self.ctx.num_generators
        for ell in self.letters:
            if not isinstance(ell, int) or not 1 <= ell <= top:
                raise ValueError(f"generator index {ell} out of range 1..{top}")

    def __len__(self) -> int:
        return len(self.letters)


def normal_order(word: Word) -> NormalMonomial:
    """Reduce a word to its unique phase * ordered-power normal form.

    The word is built as the product of its letters: appending letter l to
    an ordered power product moves it left past every larger letter, one
    factor q^{-1} each.  Exponents then reduce mod N, since c_i^N = 1
    carries no phase.
    """
    ctx = word.ctx
    exps = [0] * ctx.num_generators
    swaps = 0
    for ell in word.letters:
        # Letter ell alone is the one-letter power product (1,) on the
        # generators from ell on; those below it never cross it.
        swaps += _cross_inversions(exps[ell - 1:], (1,))
        exps[ell - 1] += 1
    return NormalMonomial(ctx, ctx.q(-swaps), tuple(e % ctx.N for e in exps))


def _cross_inversions(left: Sequence[int], right: Sequence[int]) -> int:
    # The one reordering rule: adjacent swaps needed to merge two ordered
    # power products, one per pair of letters (i from left, j from right)
    # with i > j.  ``adjoint`` uses it as (f, f): sum_{i>j} f_i f_j, the
    # swaps that put the descending product c_{2n}^{f_{2n}} ... c_1^{f_1}
    # in order.
    total = 0
    tail = sum(left)
    for j in range(len(right)):
        tail -= left[j]
        if right[j]:
            total += right[j] * tail
    return total


@dataclass(frozen=True)
class NormalMonomial:
    """phase * c_1^{e_1} ... c_{2n}^{e_{2n}} with every exponent in [0, N)."""

    ctx: AlgebraContext
    phase: CycloScalar
    exps: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "exps", tuple(map(operator.index, self.exps)))
        if len(self.exps) != self.ctx.num_generators:
            raise ValueError(
                f"expected {self.ctx.num_generators} exponents, got {len(self.exps)}"
            )
        if any(not 0 <= e < self.ctx.N for e in self.exps):
            raise ValueError(f"exponents must lie in [0, {self.ctx.N}): {self.exps}")
        if self.phase.order != self.ctx.order:
            raise ContextMismatchError("phase ring does not match the context")
        if self.phase.is_zero():
            raise ValueError("monomial phase must be nonzero")

    @classmethod
    def identity(cls, ctx: AlgebraContext) -> NormalMonomial:
        return cls(ctx, ctx.one(), (0,) * ctx.num_generators)

    @classmethod
    def generator(cls, ctx: AlgebraContext, i: int) -> NormalMonomial:
        if not 1 <= i <= ctx.num_generators:
            raise ValueError(f"generator index {i} out of range 1..{ctx.num_generators}")
        exps = [0] * ctx.num_generators
        exps[i - 1] = 1
        return cls(ctx, ctx.one(), tuple(exps))

    def __mul__(self, other):
        if not isinstance(other, NormalMonomial):
            return NotImplemented
        if other.ctx != self.ctx:
            raise ContextMismatchError("monomials from different contexts")
        cross = _cross_inversions(self.exps, other.exps)
        phase = (self.phase * other.phase).times_root(-2 * cross)
        exps = tuple((a + b) % self.ctx.N for a, b in zip(self.exps, other.exps))
        return NormalMonomial(self.ctx, phase, exps)

    def to_element(self) -> AlgebraElement:
        return AlgebraElement(self.ctx, {self.exps: self.phase})

    def __repr__(self) -> str:
        return f"NormalMonomial(N={self.ctx.N}, n={self.ctx.n}, {self.phase} * c^{self.exps})"


class AlgebraElement(ExactVector):
    """A finite sum of ordered power products with exact coefficients.

    ``terms`` maps exponent vectors to nonzero scalars; the empty map is the
    zero element.  Every constructor and operation prunes coefficients that
    reduce to zero, so equality of elements is termwise scalar equality.
    """

    __slots__ = ()

    def _key(self, exps) -> tuple[int, ...]:
        ctx = self.ctx
        exps = tuple(map(operator.index, exps))
        if len(exps) != ctx.num_generators or any(not 0 <= e < ctx.N for e in exps):
            raise ValueError(f"bad exponent vector {exps} for N={ctx.N}, n={ctx.n}")
        return exps

    @classmethod
    def zero(cls, ctx: AlgebraContext) -> AlgebraElement:
        return cls._raw(ctx, {})

    @classmethod
    def one(cls, ctx: AlgebraContext) -> AlgebraElement:
        return cls._raw(ctx, {(0,) * ctx.num_generators: ctx.one()})

    @classmethod
    def from_scalar(cls, ctx: AlgebraContext, value) -> AlgebraElement:
        # The scalar itself is the one coefficient, so its stored map is kept as it is.
        s = ctx.scalar(value)
        return cls._raw(ctx, {} if s.is_zero() else {(0,) * ctx.num_generators: s})

    @classmethod
    def generator(cls, ctx: AlgebraContext, i: int) -> AlgebraElement:
        top = ctx.num_generators
        if not 1 <= i <= top:
            raise ValueError(f"generator index {i} out of range 1..{top}")
        return cls._raw(ctx, {(0,) * (i - 1) + (1,) + (0,) * (top - i): ctx.one()})

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            return super().__mul__(other)
        self._check_ctx(other)
        ctx = self.ctx
        N = ctx.N
        # q^-cross = w^(-2 cross), so rotating ca * cb gives the stored map
        # that multiplying it by ctx.q(-cross) would, with one multiply fewer.
        return AlgebraElement._raw(ctx, sum_terms(
            (
                tuple([(a + b) % N for a, b in zip(ea, eb)]),
                (ca * cb).times_root(-2 * _cross_inversions(ea, eb)),
            )
            for ea, ca in self.terms.items()
            for eb, cb in other.terms.items()
        ))

    __rmul__ = ExactVector.__rmul__

    def __pow__(self, k: int) -> AlgebraElement:
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return (self ** (-k)).adjoint()
        return power_by_squaring(self, k, AlgebraElement.one(self.ctx))

    def adjoint(self) -> AlgebraElement:
        """Conjugate-linear antihomomorphism: reverses products, c_i -> c_i^{N-1}.

        The adjoint of c * c_1^{e_1} ... c_{2n}^{e_{2n}} is
        conj(c) * c_{2n}^{f_{2n}} ... c_1^{f_1} with f_i = -e_i mod N.  Putting
        that descending product in order swaps every pair of letters from
        different blocks once, each swap a factor q^{-1}: that is
        ``_cross_inversions(f, f)`` swaps.  Distinct terms have distinct
        adjoint exponents, so nothing is summed or pruned.
        """
        ctx = self.ctx
        N = ctx.N
        out: dict[tuple[int, ...], CycloScalar] = {}
        for exps, coeff in self.terms.items():
            f = tuple(-e % N for e in exps)
            out[f] = coeff.conj().times_root(-2 * _cross_inversions(f, f))
        return AlgebraElement._raw(ctx, out)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, CycloScalar)):
            try:
                other = AlgebraElement.from_scalar(self.ctx, other)
            except ContextMismatchError:
                return False
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms


def projector_element(ctx: AlgebraContext, k: int) -> AlgebraElement:
    """The ground-state projector of qudit k as an exact algebra element.

    The unitary u = conj(zeta) q c_{2k-1} c_{2k}^{N-1} acts diagonally with
    eigenvalue q^{a_k} in the standard representation, so averaging its N
    powers kills every component with a_k != 0.  Those powers have a closed
    form.  Ordering u^j moves the t-th c_{2k-1} left past the t - 1 blocks
    c_{2k}^{N-1} before it, a factor q^{-(N-1)} = q per block, so
    u^j = conj(zeta)^j q^{j(j+1)/2} c_{2k-1}^j c_{2k}^{-j}: phase
    w^{j(j+1) - j zeta_exp}, exponents j and -j mod N.  The N powers have
    distinct exponent vectors, so no terms merge.
    """
    if not 1 <= k <= ctx.n:
        raise ValueError(f"qudit index {k} out of range 1..{ctx.n}")
    N = ctx.N
    head, tail = (0,) * (2 * k - 2), (0,) * (ctx.num_generators - 2 * k)
    terms = {
        head + (j, -j % N) + tail: ctx.omega(j * (j + 1 - ctx.zeta_exp))
        for j in range(N)
    }
    return AlgebraElement._raw(ctx, terms)._scaled(Fraction(1, N))
