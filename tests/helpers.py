"""Shared test utilities: seeded generators and independent oracles."""

from __future__ import annotations

from fractions import Fraction

from gcalg import (
    AlgebraContext,
    AlgebraElement,
    CycloScalar,
    NormalMonomial,
    QuditState,
    Word,
    apply_element,
    apply_word,
    basis_indices,
    basis_state,
    normal_order,
)


def random_scalar(rng, ctx: AlgebraContext, terms=(1, 2)) -> CycloScalar:
    """A nonzero-ish scalar: a short sum of rationals times roots of unity."""
    s = ctx.zero()
    for _ in range(rng.randint(*terms)):
        r = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        s = s + ctx.scalar(r) * ctx.omega(rng.randrange(ctx.order))
    return s


def random_phase(rng, ctx: AlgebraContext) -> CycloScalar:
    """A unit phase q^a zeta^b."""
    return ctx.q(rng.randrange(ctx.N)) * ctx.zeta(rng.randrange(2))


def random_monomial(rng, ctx: AlgebraContext) -> NormalMonomial:
    exps = tuple(rng.randrange(ctx.N) for _ in range(ctx.num_generators))
    return NormalMonomial(ctx, random_phase(rng, ctx), exps)


def random_element(rng, ctx: AlgebraContext, max_terms: int = 4) -> AlgebraElement:
    x = AlgebraElement.zero(ctx)
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randrange(ctx.N) for _ in range(ctx.num_generators))
        x = x + AlgebraElement(ctx, {exps: ctx.one()}) * random_scalar(rng, ctx)
    return x


def random_state(rng, ctx: AlgebraContext, max_terms: int = 4) -> QuditState:
    amps = {}
    for _ in range(rng.randint(0, max_terms)):
        digits = tuple(rng.randrange(ctx.N) for _ in range(ctx.n))
        amps[digits] = random_scalar(rng, ctx)
    return QuditState(ctx, amps)


def random_word(rng, ctx: AlgebraContext, max_len: int) -> Word:
    length = rng.randint(0, max_len)
    return Word(ctx, tuple(rng.randint(1, ctx.num_generators) for _ in range(length)))


def monomial_to_word(mono: NormalMonomial) -> Word:
    """Expand an ordered power product into its letter sequence."""
    letters: list[int] = []
    for i, e in enumerate(mono.exps, start=1):
        letters.extend([i] * e)
    return Word(mono.ctx, tuple(letters))


def bubble_product_oracle(a: NormalMonomial, b: NormalMonomial) -> NormalMonomial:
    """Independent product: bubble-reduce the concatenation of both words."""
    ctx = a.ctx
    letters = monomial_to_word(a).letters + monomial_to_word(b).letters
    reduced = normal_order(Word(ctx, letters))
    return NormalMonomial(ctx, a.phase * b.phase * reduced.phase, reduced.exps)


def adjoint_oracle(x: AlgebraElement) -> AlgebraElement:
    """Independent adjoint: spell each term's adjoint letter by letter, bubble-reduce it.

    The adjoint of c * c_1^{e_1} ... c_{2n}^{e_{2n}} is conj(c) times the
    descending word c_{2n}^{N-e_{2n}} ... c_1^{N-e_1}.
    """
    ctx = x.ctx
    N = ctx.N
    out = AlgebraElement.zero(ctx)
    for exps, coeff in x.terms.items():
        letters: list[int] = []
        for i in range(ctx.num_generators, 0, -1):
            letters.extend([i] * ((N - exps[i - 1]) % N))
        nm = normal_order(Word(ctx, tuple(letters)))
        out = out + AlgebraElement(ctx, {nm.exps: coeff.conj() * nm.phase})
    return out


def random_unit_element(rng, ctx: AlgebraContext, max_terms: int = 5) -> AlgebraElement:
    """A sum of terms w^k * c^e; repeated exponent vectors merge into sums of roots."""
    x = AlgebraElement.zero(ctx)
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randrange(ctx.N) for _ in range(ctx.num_generators))
        x = x + AlgebraElement(ctx, {exps: ctx.omega(rng.randrange(ctx.order))})
    return x


def product_oracle(x: AlgebraElement, y: AlgebraElement) -> dict:
    """Terms of x * y from monomial products, each key's sum pruned only when complete."""
    sums = {}
    for ea, ca in x.terms.items():
        for eb, cb in y.terms.items():
            m = NormalMonomial(x.ctx, ca, ea) * NormalMonomial(y.ctx, cb, eb)
            sums[m.exps] = sums[m.exps] + m.phase if m.exps in sums else m.phase
    return {exps: c for exps, c in sums.items() if not c.is_zero()}


def word_equals_element_everywhere(word: Word, element: AlgebraElement) -> bool:
    """Letter-by-letter action agrees with the element on every basis state."""
    ctx = word.ctx
    return all(
        apply_word(word, basis_state(ctx, digits))
        == apply_element(element, basis_state(ctx, digits))
        for digits in basis_indices(ctx)
    )


def densify(rows, ctx: AlgebraContext) -> list[list[CycloScalar]]:
    """Every cell of ``dense_matrix``-shaped rows, an absent column as ``ctx.zero()``."""
    zero = ctx.zero()
    return [[row.get(j, zero) for j in range(ctx.dim)] for row in rows]


def exact_matmul(a, b):
    """Product of two square CycloScalar matrices, exactly."""
    size = len(a)
    out = []
    for i in range(size):
        row = []
        for j in range(size):
            total = a[i][0] * b[0][j]
            for k in range(1, size):
                total = total + a[i][k] * b[k][j]
            row.append(total)
        out.append(row)
    return out
