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
    apply_even,
    apply_word,
    basis_indices,
    basis_state,
    ground_state,
)
from gcalg import expr, symbolic
from gcalg.cyclo import _rational, cyclotomic_polynomial, sum_terms


def random_scalar(rng, ctx: AlgebraContext, terms=(1, 2)) -> CycloScalar:
    """A nonzero-ish scalar: a short sum of rationals times roots of unity."""
    s = ctx.zero()
    for _ in range(rng.randint(*terms)):
        r = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        s = s + ctx.scalar(r) * ctx.omega(rng.randrange(ctx.order))
    return s


def literal_is_zero(s: CycloScalar) -> bool:
    """The oracle of ``CycloScalar.is_zero``: reduce the whole coefficient
    polynomial modulo Phi_order, with no folding and no single-term shortcut."""
    if not s.coeffs:
        return True
    phi = cyclotomic_polynomial(s.order)
    dn = len(phi) - 1
    rem = [0] * s.order
    for k, v in s.coeffs.items():
        rem[k] = v
    for i in range(len(rem) - 1, dn - 1, -1):
        c = rem[i]
        if c:
            for j, d in enumerate(phi):
                rem[i - dn + j] -= c * d
    return not any(rem[:dn])


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


def bubble_normal_order(word: Word) -> NormalMonomial:
    """The oracle of ``normal_order``: reduce a word literally.

    Bubble passes swap adjacent letters until the word ascends; every swap
    that moves the smaller index left contributes a factor q^{-1}.  Exponents
    then reduce mod N, since c_i^N = 1 carries no phase.
    """
    ctx = word.ctx
    letters = list(word.letters)
    swaps = 0
    for p_end in range(len(letters) - 1, 0, -1):
        changed = False
        for p in range(p_end):
            if letters[p] > letters[p + 1]:
                letters[p], letters[p + 1] = letters[p + 1], letters[p]
                swaps += 1
                changed = True
        if not changed:
            break
    exps = [0] * ctx.num_generators
    for ell in letters:
        exps[ell - 1] += 1
    return NormalMonomial(ctx, ctx.q(-swaps), tuple(e % ctx.N for e in exps))


def bubble_product_oracle(a: NormalMonomial, b: NormalMonomial) -> NormalMonomial:
    """Independent product: bubble-reduce the concatenation of both words."""
    ctx = a.ctx
    letters = monomial_to_word(a).letters + monomial_to_word(b).letters
    reduced = bubble_normal_order(Word(ctx, letters))
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
        nm = bubble_normal_order(Word(ctx, tuple(letters)))
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


def projector_oracle(ctx: AlgebraContext, k: int) -> AlgebraElement:
    """The oracle of ``projector_element``: the N powers of u formed by monomial products."""
    exps = [0] * ctx.num_generators
    exps[2 * k - 2] = 1
    exps[2 * k - 1] = ctx.N - 1
    u = NormalMonomial(ctx, ctx.zeta(-1) * ctx.q(1), tuple(exps))
    # The N powers of u have distinct exponent vectors, so no terms merge.
    power = NormalMonomial.identity(ctx)
    terms = {}
    for _ in range(ctx.N):
        terms[power.exps] = power.phase
        power = power * u
    return AlgebraElement._raw(ctx, terms)._scaled(Fraction(1, ctx.N))


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


def scalar_from_json(data: dict) -> CycloScalar:
    """The exact scalar of a JSON cell, read from its ``"order"`` and ``"coeffs"``."""
    return CycloScalar(data["order"], {k: Fraction(v) for k, v in data["coeffs"]})


def ordered_basis_vector(ctx: AlgebraContext, digits) -> QuditState:
    """The oracle of ``rep.ordered_basis``: c_2^{a_1} ... c_{2n}^{a_n}|0..0>, letter by letter.

    The rightmost factor acts first, so the n-th qudit's digit fills first.
    """
    state = ground_state(ctx)
    for pos in range(ctx.n, 0, -1):
        for _ in range(digits[pos - 1]):
            state = apply_even(pos, state)
    return state


def two_multiply_product(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """x * y with each term pair's coefficient formed as ca * cb * q^-cross: two multiplies."""
    ctx = x.ctx
    return AlgebraElement._raw(ctx, sum_terms(
        (tuple((a + b) % ctx.N for a, b in zip(ea, eb)),
         ca * cb * ctx.q(-symbolic._cross_inversions(ea, eb)))
        for ea, ca in x.terms.items()
        for eb, cb in y.terms.items()
    ))


def merge_loop_sum(ctx: AlgebraContext, parts) -> AlgebraElement:
    """The sum of ``parts`` by the merge loop that ``eval``'s sum node once ran
    itself, before it merged each child through ``sum_terms``; kept as the
    oracle of that node's stored forms and key order."""
    # One map takes every child in turn, as the fold out = out + child
    # would: a key a child adds to is summed and then zero-tested, so
    # stored forms and key order match the fold without re-merging the
    # running sum per child.
    terms = {}
    for child in parts:
        summed = []
        for key, value in child.terms.items():
            if key in terms:
                terms[key] = terms[key] + value
                summed.append(key)
            else:
                terms[key] = value
        for key in summed:
            if terms[key].is_zero():
                del terms[key]
    return AlgebraElement._raw(ctx, terms)


def loop_scalar(order: int, coeffs) -> CycloScalar:
    """A scalar built by the merge loop that ``CycloScalar.__init__`` once ran
    itself, before it merged through ``cyclo._accumulate``; kept as the oracle
    of the constructor's stored forms and key order."""
    clean = {}
    if coeffs:
        items = coeffs.items() if hasattr(coeffs, "items") else coeffs
        for k, v in items:
            v = _rational(v)
            if not v:
                continue
            k = int(k) % order
            w = clean.get(k, 0) + v
            if w:
                clean[k] = w
            else:
                del clean[k]
    return CycloScalar._raw(order, clean)


def loop_sum(x: CycloScalar, y: CycloScalar) -> CycloScalar:
    """x + y by the merge loop that ``CycloScalar.__add__`` once ran itself."""
    out = dict(x.coeffs)
    for k, v in y.coeffs.items():
        w = out.get(k, 0) + v
        if w:
            out[k] = w
        else:
            del out[k]
    return CycloScalar._raw(x.order, out)


def loop_product(x: CycloScalar, y: CycloScalar) -> CycloScalar:
    """x * y by the double loop that ``CycloScalar.__mul__`` once ran for
    multi-term operands; its single-term branch must give the same map."""
    m = x.order
    out = {}
    for k1, v1 in x.coeffs.items():
        for k2, v2 in y.coeffs.items():
            k = (k1 + k2) % m
            w = out.get(k, 0) + v1 * v2
            if w:
                out[k] = w
            else:
                del out[k]
    return CycloScalar._raw(m, out)


def identity_fold_eval(node, ctx: AlgebraContext) -> AlgebraElement:
    """An operator expression evaluated with every chain and power starting from
    ``AlgebraElement.one``, each product by ``two_multiply_product``.

    Its stored form is the one ``eval_element`` must keep: key order,
    coefficient maps and coefficient types.  Leaves are read by ``eval_element``.
    """
    kind = node.kind
    if kind == "dagger":
        return identity_fold_eval(node.children[0], ctx).adjoint()
    if kind == "pow":
        base = identity_fold_eval(node.children[0], ctx)
        out, k = AlgebraElement.one(ctx), abs(node.value)
        while k:
            if k & 1:
                out = two_multiply_product(out, base)
            k >>= 1
            if k:
                base = two_multiply_product(base, base)
        return out.adjoint() if node.value < 0 else out
    if kind == "product":
        out = AlgebraElement.one(ctx)
        for child in node.children:
            out = two_multiply_product(out, identity_fold_eval(child, ctx))
        return out
    if kind == "sum":
        out = AlgebraElement.zero(ctx)
        for child in node.children:
            out = out + identity_fold_eval(child, ctx)
        return out
    return expr.eval_element(node, ctx)
