"""Tests for normal ordering, monomial products, and element arithmetic."""

import random

import pytest

from gcalg import (
    AlgebraContext,
    AlgebraElement,
    ContextMismatchError,
    NormalMonomial,
    Word,
    admissible_zeta_exps,
    dense_matrix,
    normal_order,
    print_canonical,
    projector_element,
)
import faults
from helpers import (
    adjoint_oracle,
    bubble_normal_order,
    bubble_product_oracle,
    densify,
    product_oracle,
    projector_oracle,
    random_element,
    random_monomial,
    random_unit_element,
    random_word,
    word_equals_element_everywhere,
)


def reduce_in_random_order(word, rng):
    # Independent reducer: swap a randomly chosen descending adjacent pair
    # (factor q^{-1} each time) until the word is ascending.
    ctx = word.ctx
    letters = list(word.letters)
    phase = ctx.one()
    while True:
        spots = [p for p in range(len(letters) - 1) if letters[p] > letters[p + 1]]
        if not spots:
            break
        p = rng.choice(spots)
        letters[p], letters[p + 1] = letters[p + 1], letters[p]
        phase = phase * ctx.q(-1)
    exps = [0] * ctx.num_generators
    for ell in letters:
        exps[ell - 1] += 1
    return NormalMonomial(ctx, phase, tuple(e % ctx.N for e in exps))


class TestNormalOrder:
    def test_empty_word_is_identity(self):
        ctx = AlgebraContext(3, 2)
        mono = normal_order(Word(ctx, ()))
        assert mono.phase == 1
        assert mono.exps == (0, 0, 0, 0)

    def test_single_swap(self):
        ctx = AlgebraContext(3, 2)
        mono = normal_order(Word(ctx, (2, 1)))
        assert mono.phase == ctx.q(-1)
        assert mono.exps == (1, 1, 0, 0)

    def test_generator_order_collapses_without_phase(self):
        ctx = AlgebraContext(3, 2)
        mono = normal_order(Word(ctx, (1, 1, 1)))
        assert mono.phase == 1
        assert mono.exps == (0, 0, 0, 0)

    def test_three_letter_example_against_representation(self):
        ctx = AlgebraContext(3, 2)
        word = Word(ctx, (3, 2, 3))
        mono = normal_order(word)
        assert mono.phase == ctx.q(-1)
        assert mono.exps == (0, 1, 2, 0)
        assert word_equals_element_everywhere(word, mono.to_element())

    def test_letter_out_of_range(self):
        ctx = AlgebraContext(3, 2)
        with pytest.raises(ValueError):
            Word(ctx, (0,))
        with pytest.raises(ValueError):
            Word(ctx, (5,))

    @pytest.mark.parametrize("N,n", [(3, 2), (2, 3)])
    def test_reduction_order_does_not_matter(self, N, n):
        rng = random.Random(411)
        ctx = AlgebraContext(N, n)
        for _ in range(150):
            word = random_word(rng, ctx, 12)
            assert reduce_in_random_order(word, rng) == normal_order(word)

    @pytest.mark.parametrize("N,n", [(3, 2), (2, 2)])
    def test_normal_form_acts_like_the_word(self, N, n):
        rng = random.Random(412)
        ctx = AlgebraContext(N, n)
        for _ in range(40):
            word = random_word(rng, ctx, 20)
            element = normal_order(word).to_element()
            assert word_equals_element_everywhere(word, element)


RULE_CONTEXTS = [
    AlgebraContext(3, 2),
    AlgebraContext(2, 3),
    AlgebraContext(5, 1),
    AlgebraContext(2, 6),
    AlgebraContext(4, 2, 1),
    AlgebraContext(4, 2, 5),
]


class TestOneReorderingRule:
    # normal_order, both products and adjoint count swaps with
    # symbolic._cross_inversions; the oracles bubble-sort letters instead.
    @pytest.mark.parametrize("ctx", RULE_CONTEXTS, ids=lambda c: f"N{c.N}n{c.n}e{c.zeta_exp}")
    def test_normal_order_matches_bubble_sort(self, ctx):
        rng = random.Random(420 + 10 * ctx.N + ctx.n + ctx.zeta_exp)
        for _ in range(150):
            word = random_word(rng, ctx, 12)
            got, want = normal_order(word), bubble_normal_order(word)
            assert got.phase == want.phase, word
            assert got.exps == want.exps, word

    def test_each_user_of_the_rule_sees_a_wrong_swap_count(self, monkeypatch):
        rng = random.Random(421)
        ctx = AlgebraContext(3, 2)
        words = [random_word(rng, ctx, 12) for _ in range(20)]
        pairs = [(random_monomial(rng, ctx), random_monomial(rng, ctx)) for _ in range(20)]
        elements = [random_element(rng, ctx) for _ in range(20)]
        faults.inject(monkeypatch, "cross_inversions_plus_one")
        assert any(normal_order(w) != bubble_normal_order(w) for w in words)
        assert any(a * b != bubble_product_oracle(a, b) for a, b in pairs)
        assert any(
            a.to_element() * b.to_element() != bubble_product_oracle(a, b).to_element()
            for a, b in pairs
        )
        assert any(x.adjoint() != adjoint_oracle(x) for x in elements)


class TestMonomialProduct:
    def test_identity_laws(self):
        rng = random.Random(413)
        ctx = AlgebraContext(3, 2)
        one = NormalMonomial.identity(ctx)
        for _ in range(25):
            m = random_monomial(rng, ctx)
            assert one * m == m
            assert m * one == m

    def test_known_products(self):
        ctx = AlgebraContext(3, 2)
        c1 = NormalMonomial.generator(ctx, 1)
        c2 = NormalMonomial.generator(ctx, 2)
        c1c2 = normal_order(Word(ctx, (1, 2)))
        product = c1c2 * c1
        assert product.phase == ctx.q(-1)
        assert product.exps == (2, 1, 0, 0)
        swapped = c2 * c1
        assert swapped.phase == ctx.q(-1)
        assert swapped.exps == (1, 1, 0, 0)

    @pytest.mark.parametrize("N,n", [(3, 2), (2, 2), (4, 2)])
    def test_closed_form_matches_bubble_reduction(self, N, n):
        rng = random.Random(414)
        ctx = AlgebraContext(N, n)
        for _ in range(200):
            a = random_monomial(rng, ctx)
            b = random_monomial(rng, ctx)
            assert a * b == bubble_product_oracle(a, b)

    def test_associativity(self):
        rng = random.Random(415)
        for ctx in (AlgebraContext(3, 2), AlgebraContext(2, 2)):
            for _ in range(100):
                a = random_monomial(rng, ctx)
                b = random_monomial(rng, ctx)
                c = random_monomial(rng, ctx)
                assert (a * b) * c == a * (b * c)

    def test_context_mismatch(self):
        a = NormalMonomial.identity(AlgebraContext(3, 2))
        b = NormalMonomial.identity(AlgebraContext(3, 1))
        with pytest.raises(ContextMismatchError):
            a * b

    def test_rejects_zero_phase_and_bad_exponents(self):
        ctx = AlgebraContext(3, 1)
        with pytest.raises(ValueError):
            NormalMonomial(ctx, ctx.zero(), (0, 0))
        with pytest.raises(ValueError):
            NormalMonomial(ctx, ctx.one(), (3, 0))
        with pytest.raises(ValueError):
            NormalMonomial(ctx, ctx.one(), (0,))


class TestAdjoint:
    def test_scalar_conjugation(self):
        ctx = AlgebraContext(3, 2)
        x = AlgebraElement.from_scalar(ctx, ctx.zeta())
        assert x.adjoint() == AlgebraElement.from_scalar(ctx, ctx.zeta(-1))

    def test_generator_inverse(self):
        ctx = AlgebraContext(3, 2)
        c2 = AlgebraElement.generator(ctx, 2)
        assert c2.adjoint() == AlgebraElement(ctx, {(0, 2, 0, 0): ctx.one()})
        assert c2 * c2.adjoint() == AlgebraElement.one(ctx)

    def test_two_generator_example(self):
        ctx = AlgebraContext(3, 2)
        x = AlgebraElement.generator(ctx, 1) * AlgebraElement.generator(ctx, 2)
        # oracle: (c_1 c_2)^dagger = c_2^2 c_1^2, normal ordered by swaps
        oracle = bubble_normal_order(Word(ctx, (2, 2, 1, 1)))
        assert oracle.phase == ctx.q(-4)
        assert x.adjoint() == oracle.to_element()
        assert x.adjoint() == AlgebraElement(ctx, {(2, 2, 0, 0): ctx.q(2)})

    def test_antihomomorphism_and_involution(self):
        rng = random.Random(416)
        for ctx in (AlgebraContext(3, 2), AlgebraContext(2, 2), AlgebraContext(4, 1)):
            for _ in range(40):
                x = random_element(rng, ctx)
                y = random_element(rng, ctx)
                assert (x * y).adjoint() == y.adjoint() * x.adjoint()
                assert x.adjoint().adjoint() == x

    @pytest.mark.parametrize(
        "ctx",
        [
            AlgebraContext(2, 2, 1),
            AlgebraContext(2, 2, 3),
            AlgebraContext(4, 2, 1),
            AlgebraContext(4, 2, 5),
            AlgebraContext(3, 2),
            AlgebraContext(5, 1),
        ],
        ids=lambda c: f"N{c.N}n{c.n}e{c.zeta_exp}",
    )
    def test_closed_form_matches_bubble_oracle(self, ctx):
        # The closed-form swap count must give the oracle's value and stored form.
        rng = random.Random(419 + 10 * ctx.N + ctx.zeta_exp)
        for _ in range(40):
            x = random_element(rng, ctx, max_terms=6)
            got, want = x.adjoint(), adjoint_oracle(x)
            assert got == want
            assert repr(got) == repr(want)

    def test_adjoint_is_the_dense_conjugate_transpose(self):
        rng = random.Random(418)
        for ctx in (AlgebraContext(2, 2), AlgebraContext(3, 2), AlgebraContext(4, 1, 5)):
            for _ in range(10):
                x = random_element(rng, ctx)
                mat = densify(dense_matrix(x), ctx)
                adj = densify(dense_matrix(x.adjoint()), ctx)
                for i in range(ctx.dim):
                    for j in range(ctx.dim):
                        assert adj[i][j] == mat[j][i].conj()


class TestElements:
    def test_additive_inverse_gives_empty_term_map(self):
        rng = random.Random(417)
        ctx = AlgebraContext(3, 2)
        x = random_element(rng, ctx)
        total = x + (-1) * x
        assert total == AlgebraElement.zero(ctx)
        assert total.terms == {}

    @pytest.mark.parametrize(
        "ctx",
        [AlgebraContext(3, 1), AlgebraContext(3, 2), AlgebraContext(6, 1, 1), AlgebraContext(6, 1, 7)],
        ids=lambda c: f"N{c.N}n{c.n}e{c.zeta_exp}",
    )
    def test_products_keep_stored_forms(self, ctx):
        # Stored coefficient maps are unreduced: a key's sum must be pruned
        # only once complete, or a vanishing partial sum changes the print.
        rng = random.Random(420 + 10 * ctx.N + ctx.zeta_exp)
        for _ in range(150):
            x = random_unit_element(rng, ctx)
            y = random_unit_element(rng, ctx)
            got = (x * y).terms
            want = product_oracle(x, y)
            assert list(got) == list(want)
            for exps, coeff in got.items():
                assert list(coeff.coeffs.items()) == list(want[exps].coeffs.items())
            assert print_canonical(x * y) == print_canonical(AlgebraElement(ctx, want))

    def test_multiplicative_identity(self):
        ctx = AlgebraContext(3, 2)
        x = AlgebraElement.generator(ctx, 1) + AlgebraElement.generator(ctx, 2)
        assert x * AlgebraElement.one(ctx) == x

    def test_clifford_square(self):
        # N=2, n=1: (c_1 c_2)^2 = q^{-1}
        ctx = AlgebraContext(2, 1)
        x = AlgebraElement.generator(ctx, 1) * AlgebraElement.generator(ctx, 2)
        assert x * x == AlgebraElement.from_scalar(ctx, ctx.q(-1))
        # matrix oracle: the dense action is q^{-1} times the identity
        squared = densify(dense_matrix(x * x), ctx)
        for i in range(2):
            for j in range(2):
                assert squared[i][j] == (ctx.q(-1) if i == j else 0)

    def test_commutation_relation_symbolically(self):
        ctx = AlgebraContext(3, 2)
        q = ctx.q()
        for i in range(1, 5):
            for j in range(i + 1, 5):
                ci = AlgebraElement.generator(ctx, i)
                cj = AlgebraElement.generator(ctx, j)
                assert ci * cj - q * (cj * ci) == AlgebraElement.zero(ctx)

    def test_negative_power_is_adjoint_power(self):
        ctx = AlgebraContext(3, 2)
        c1 = AlgebraElement.generator(ctx, 1)
        assert c1 ** -1 == c1.adjoint()
        assert c1 * c1 ** -1 == AlgebraElement.one(ctx)
        assert c1 ** -2 == (c1 * c1).adjoint()

    def test_context_mismatch(self):
        x = AlgebraElement.one(AlgebraContext(3, 2))
        y = AlgebraElement.one(AlgebraContext(3, 1))
        with pytest.raises(ContextMismatchError):
            x + y
        with pytest.raises(ContextMismatchError):
            x * y


class TestProjectorElement:
    def test_index_range(self):
        ctx = AlgebraContext(3, 2)
        with pytest.raises(ValueError):
            projector_element(ctx, 0)
        with pytest.raises(ValueError):
            projector_element(ctx, 3)

    def test_idempotent_and_self_adjoint(self):
        for ctx in (AlgebraContext(2, 1), AlgebraContext(3, 2), AlgebraContext(4, 2, 5)):
            for k in range(1, ctx.n + 1):
                e = projector_element(ctx, k)
                assert e * e == e
                assert e.adjoint() == e

    def test_closed_form_keeps_the_stored_form_of_monomial_powers(self):
        # Same keys in the same order, same coefficient maps, same value types.
        def stored(x):
            return [
                (exps, [(e, v, type(v)) for e, v in coeff.coeffs.items()])
                for exps, coeff in x.terms.items()
            ]

        cases = 0
        for N in range(2, 41):
            for zeta_exp in admissible_zeta_exps(N):
                for n in range(1, 4):
                    ctx = AlgebraContext(N, n, zeta_exp)
                    for k in range(1, n + 1):
                        got = stored(projector_element(ctx, k))
                        assert got == stored(projector_oracle(ctx, k)), (N, n, zeta_exp, k)
                        cases += 1
        assert cases == 354
