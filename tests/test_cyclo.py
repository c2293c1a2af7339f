"""Tests for the exact cyclotomic scalar layer."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcalg import (AlgebraElement, NormalMonomial, PhasedPermutation, QuditState, basis_state,
                   generator_tables, run_suite)
from gcalg.cli import MAX_N
from gcalg.cyclo import (
    AlgebraContext,
    ContextMismatchError,
    CycloScalar,
    _ROOTS,
    _reduction_row,
    admissible_zeta_exps,
    cyclotomic_polynomial,
    power_by_squaring,
    sum_terms,
)
from helpers import (
    literal_is_zero,
    loop_product,
    loop_scalar,
    loop_sum,
    random_element,
    random_scalar,
    scalar_from_json,
)


def euler_phi(m):
    return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestCyclotomicPolynomial:
    def test_base_cases(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)

    def test_degree_is_totient(self):
        for m in range(1, 31):
            assert len(cyclotomic_polynomial(m)) - 1 == euler_phi(m)

    def test_product_over_divisors_rebuilds_x_to_m_minus_one(self):
        for m in range(1, 21):
            product = [1]
            for d in range(1, m + 1):
                if m % d == 0:
                    product = poly_mul(product, list(cyclotomic_polynomial(d)))
            expected = [-1] + [0] * (m - 1) + [1]
            assert product == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cyclotomic_polynomial(0)

    def test_reduction_row_lists_the_nonzero_coefficients_once_per_order(self):
        assert _reduction_row(6) == (2, ((-2, 1), (-1, -1), (0, 1)))
        for m in (1, 2, 12, 510):
            phi = cyclotomic_polynomial(m)
            dn, steps = _reduction_row(m)
            assert dn == len(phi) - 1
            assert steps == tuple((j - dn, d) for j, d in enumerate(phi) if d)
            assert _reduction_row(m) is _reduction_row(m)


class TestContext:
    def test_validation(self):
        with pytest.raises(ValueError):
            AlgebraContext(1, 1)
        with pytest.raises(ValueError):
            AlgebraContext(3, 0)
        with pytest.raises(ValueError):
            AlgebraContext(3, 2, 1)  # plus root inadmissible for odd N
        AlgebraContext(4, 1, 1)
        AlgebraContext(4, 1, 5)
        with pytest.raises(ValueError):
            AlgebraContext(4, 1, 2)

    def test_defaults(self):
        assert AlgebraContext(3, 2).zeta_exp == 4
        assert AlgebraContext(5, 1).zeta_exp == 6
        assert AlgebraContext(2, 1).zeta_exp == 1
        assert AlgebraContext(4, 1).zeta_exp == 1
        assert admissible_zeta_exps(7) == (8,)
        assert admissible_zeta_exps(6) == (1, 7)

    def test_from_sign(self):
        assert AlgebraContext.from_sign(4, 1, "+").zeta_exp == 1
        assert AlgebraContext.from_sign(4, 1, "-").zeta_exp == 5
        # '-' with odd N is the canonical choice
        assert AlgebraContext.from_sign(3, 1, "-").zeta_exp == 4
        with pytest.raises(ValueError):
            AlgebraContext.from_sign(3, 1, "+")
        with pytest.raises(ValueError):
            AlgebraContext.from_sign(3, 1, "x")


class TestRootRelations:
    @pytest.mark.parametrize("N", range(2, 10))
    def test_omega_to_the_N_is_minus_one(self, N):
        ctx = AlgebraContext(N, 1)
        assert (ctx.one() + ctx.omega(N)).is_zero()

    @pytest.mark.parametrize("N", range(2, 10))
    def test_omega_defaults_to_w(self, N):
        # omega() is w = exp(i*pi/N) itself, not q = w^2.
        ctx = AlgebraContext(N, 1)
        assert ctx.omega() is ctx.omega(1)
        assert not ctx.omega() == ctx.q()

    @pytest.mark.parametrize("N", range(2, 10))
    def test_q_has_order_N(self, N):
        ctx = AlgebraContext(N, 1)
        assert ctx.q() ** N == 1
        assert ctx.q() == ctx.omega(2)

    @pytest.mark.parametrize("N", range(2, 10))
    def test_zeta_is_unit(self, N):
        ctx = AlgebraContext(N, 1)
        assert ctx.zeta().conj() * ctx.zeta() == 1

    @pytest.mark.parametrize("N", range(2, 10))
    def test_roots_have_unit_modulus_in_float_display(self, N):
        ctx = AlgebraContext(N, 1)
        for k in range(ctx.order):
            assert abs(abs(ctx.omega(k).to_complex()) - 1.0) < 1e-12

    def test_zeta_examples(self):
        # N=3: the canonical root is -exp(i*pi/3) = w^4
        assert AlgebraContext(3, 1).zeta() == CycloScalar.root(6, 4)
        # N=2: the default root is w = i
        ctx = AlgebraContext(2, 1)
        assert ctx.zeta() == ctx.omega(1)
        z = ctx.zeta().to_complex()
        assert abs(z - 1j) < 1e-12

    @pytest.mark.parametrize("N", range(2, 10))
    def test_zeta_squares_to_q_for_every_admissible_root(self, N):
        for exp in admissible_zeta_exps(N):
            ctx = AlgebraContext(N, 1, exp)
            assert (ctx.zeta() * ctx.zeta() - ctx.q()).is_zero()

    @pytest.mark.parametrize("N", [3, 5, 7, 9])
    def test_odd_square_roots_split(self, N):
        # (+exp(i*pi/N))^(N^2) = -1 while (-exp(i*pi/N))^(N^2) = +1
        ctx = AlgebraContext(N, 1)
        assert ctx.omega(1) ** (N * N) == -1
        assert ctx.omega(N + 1) ** (N * N) == 1

    @pytest.mark.parametrize("N", [2, 4, 6, 8])
    def test_even_square_roots_both_work(self, N):
        ctx = AlgebraContext(N, 1)
        assert ctx.omega(1) ** (N * N) == 1
        assert ctx.omega(N + 1) ** (N * N) == 1

    @pytest.mark.parametrize("N", [3, 5, 7, 9])
    def test_odd_canonical_zeta_is_a_power_of_q(self, N):
        ctx = AlgebraContext(N, 1)
        assert ctx.zeta() == ctx.q((N + 1) // 2)

    @pytest.mark.parametrize("N", [2, 3, 4, 6])
    def test_root_exponent(self, N):
        ctx = AlgebraContext(N, 1)
        m = ctx.order
        for k in range(m):
            assert ctx.omega(k).root_exponent() == k
            assert (-ctx.omega(k)).root_exponent() == (k + N) % m
            # w^k + 1 + w^N is stored with several terms but equals w^k.
            spread = ctx.omega(k) + ctx.one() + ctx.omega(N)
            assert len(spread.coeffs) > 1
            assert spread.root_exponent() == k
            assert (2 * ctx.omega(k)).root_exponent() is None
        # 1 + w^N is zero; 1 + w is no root of unity (|1 + w| > 1).
        assert (ctx.one() + ctx.omega(N)).root_exponent() is None
        assert (ctx.one() + ctx.omega(1)).root_exponent() is None


class TestScalarArithmetic:
    def test_is_zero_cube_root_sum(self):
        # 1 + w^2 + w^4 with m=6: w^2 is a primitive cube root of unity
        ctx = AlgebraContext(3, 1)
        s = ctx.one() + ctx.omega(2) + ctx.omega(4)
        assert s.is_zero()
        assert abs(s.to_complex()) < 1e-12

    def test_to_complex_examples(self):
        assert CycloScalar.one(6).to_complex() == 1 + 0j
        assert abs(AlgebraContext(2, 1).omega(1).to_complex() - 1j) < 1e-12
        z = AlgebraContext(3, 1).zeta().to_complex()
        assert abs(z.real + 0.5) < 1e-12
        assert abs(z.imag + math.sin(math.pi / 3)) < 1e-12

    def test_q_inverse_power(self):
        ctx = AlgebraContext(3, 1)
        assert ctx.q() * ctx.q(2) == 1

    def test_mismatched_orders_raise(self):
        a = CycloScalar.one(6)
        b = CycloScalar.one(8)
        with pytest.raises(ContextMismatchError):
            a + b
        with pytest.raises(ContextMismatchError):
            a * b
        assert (a == b) is False

    def test_equality_modulo_cyclotomic(self):
        # different stored maps, same value
        a = CycloScalar(6, {0: 1})
        b = CycloScalar(6, {2: -1, 4: -1})  # since 1 + w^2 + w^4 = 0
        assert a == b
        assert a == 1
        assert CycloScalar.zero(6) == 0

    def test_is_zero_agrees_with_float_oracle(self):
        rng = random.Random(20240817)
        zeros = 0
        for _ in range(1000):
            N = rng.randint(2, 9)
            m = 2 * N
            support = rng.sample(range(m), rng.randint(1, min(5, m)))
            s = CycloScalar(m, {k: rng.randint(-3, 3) for k in support})
            exactly = s.is_zero()
            numerically = abs(s.to_complex()) < 1e-9
            assert exactly == numerically
            zeros += exactly
        assert zeros > 0  # the sample must exercise both branches

    def test_is_zero_agrees_with_the_literal_reduction(self):
        # Every order 2..512: a random sparse scalar, an exact multiple of
        # Phi_m (zero), and that multiple plus one root (nonzero).  The
        # multiples have int coefficients, which keeps the oracle quick.
        rng = random.Random(1409)
        for m in range(2, 513):
            phi = cyclotomic_polynomial(m)
            terms = rng.randint(1, 4)
            sparse = CycloScalar(m, {rng.randrange(m): rng.choice([1, -1, 2, -3, Fraction(1, 2)])
                                     for _ in range(terms)})
            factor = {rng.randrange(m - len(phi) + 1): rng.choice([1, -1, 2, -3])
                      for _ in range(terms)}
            product = {}
            for a, x in factor.items():
                for b, d in enumerate(phi):
                    product[a + b] = product.get(a + b, 0) + x * d
            multiple = CycloScalar(m, product)
            shifted = multiple + CycloScalar.root(m, rng.randrange(m))
            for s, zero in ((sparse, None), (multiple, True), (shifted, False)):
                assert s.is_zero() == literal_is_zero(s), (m, s)
                assert zero is None or s.is_zero() == zero, (m, s)

    def test_json_round_trip(self):
        ctx = AlgebraContext(3, 1)
        s = ctx.scalar(Fraction(3, 2)) * ctx.omega(5) + ctx.q(-1)
        data = s.to_json()
        assert set(data) == {"order", "coeffs", "approx"}
        assert set(data["approx"]) == {"re", "im"}
        assert scalar_from_json(data) == s

    def test_pow_rejects_negative(self):
        with pytest.raises(ValueError):
            CycloScalar.root(6, 1) ** -1


class TestPowerBySquaring:
    def test_no_product_has_the_identity_as_a_factor(self):
        one = object()  # no operand may reach mul
        assert power_by_squaring(3, 0, one) is one
        for k in range(1, 300):
            calls = []

            def mul(a, b):
                assert a is not one and b is not one
                calls.append((a, b))
                return a * b

            assert power_by_squaring(3, k, one, mul) == 3**k
            assert len(calls) == k.bit_length() + k.bit_count() - 2

    def test_powers_equal_the_repeated_product(self):
        rng = random.Random(18)
        ctx = AlgebraContext(3, 2)
        table = generator_tables(ctx)[0] @ generator_tables(ctx)[3]
        scalar = random_scalar(rng, ctx, (2, 3))
        element = random_element(rng, ctx, 3)
        assert len(scalar.coeffs) > 1 and len(element.terms) > 1
        cases = [(table, PhasedPermutation.identity(ctx), lambda a, b: a @ b),
                 (scalar, ctx.one(), lambda a, b: a * b),
                 (element, AlgebraElement.one(ctx), lambda a, b: a * b)]
        for base, one, mul in cases:
            literal = one
            for k in range(10):
                assert base**k == literal
                literal = mul(literal, base)


class TestSumTerms:
    # Order 6: q = w^2 is a primitive cube root of unity, so 1 + q + q^2 is
    # zero, though its stored map has three entries and only a zero test sees it.
    UNREDUCED_ZERO = CycloScalar(6, {0: 1, 2: 1, 4: 1})

    def test_keys_keep_their_first_seen_order(self):
        one, w = CycloScalar.one(6), CycloScalar.root(6, 1)
        out = sum_terms([("b", one), ("a", w), ("c", w), ("b", w)])
        assert list(out) == ["b", "a", "c"]
        assert _stored(out["b"]) == [(0, int, 1), (1, int, 1)]

    def test_every_contribution_is_summed_before_the_zero_test(self):
        # 1 + q + q^2 vanishes, but a later contribution to the key keeps its
        # stored entries, and the key keeps its place.
        one, q = CycloScalar.one(6), CycloScalar.root(6, 2)
        out = sum_terms([("a", one), ("a", q), ("b", q), ("a", q * q), ("a", one)])
        assert list(out) == ["a", "b"]
        assert _stored(out["a"]) == [(0, int, 2), (2, int, 1), (4, int, 1)]

    def test_merging_into_a_map(self):
        one, w = CycloScalar.one(6), CycloScalar.root(6, 1)
        into = {"a": one, "b": w}
        assert sum_terms([("c", w), ("a", -one)], into) is into
        assert list(into) == ["b", "c"]
        # A key pruned by an earlier call and summed into again goes to the end.
        sum_terms([("a", w), ("b", w)], into)
        assert list(into) == ["b", "c", "a"]
        assert _stored(into["b"]) == [(1, int, 2)] and _stored(into["a"]) == [(1, int, 1)]

    def test_only_keys_summed_in_the_call_are_zero_tested(self):
        one = CycloScalar.one(6)
        # A single contribution is not tested, and neither is a key of the map
        # merged into that the call does not add to.
        into = sum_terms([("z", self.UNREDUCED_ZERO), ("a", one)])
        assert list(into) == ["z", "a"]
        sum_terms([("a", one), ("b", one)], into)
        assert list(into) == ["z", "a", "b"]
        # Once the call adds to it, the key is summed and tested.
        sum_terms([("z", one), ("z", -one)], into)
        assert list(into) == ["a", "b"]


def _stored(x):
    return [(k, type(v), v) for k, v in x.coeffs.items()]


_RATIONALS = (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2))


class TestUnitRootFastPath:
    def test_integral_coefficients_are_ints(self):
        assert type(CycloScalar.one(6).coeffs[0]) is int
        assert _stored(CycloScalar.rational(6, Fraction(3, 1))) == [(0, int, 3)]
        assert _stored(CycloScalar.root(6, 7)) == [(1, int, 1)]
        assert _stored(CycloScalar(6, {1: Fraction(4, 2), 2: Fraction(1, 2), 3: "5/5"})) == [
            (1, int, 2), (2, Fraction, Fraction(1, 2)), (3, int, 1),
        ]
        assert _stored(AlgebraContext(3, 1).zeta() * AlgebraContext(3, 1).q()) == [(0, int, 1)]

    def test_single_term_equality_matches_the_zero_test(self):
        for m in range(1, 13):
            for a in range(m):
                for b in range(m):
                    for r in _RATIONALS:
                        for s in _RATIONALS:
                            x = CycloScalar(m, {a: r})
                            y = CycloScalar(m, {b: s})
                            assert (x == y) == (x - y).is_zero(), (m, a, r, b, s)

    def test_single_term_product_matches_the_general_loop(self):
        for m in (1, 2, 6, 8):
            for a in range(m):
                for b in range(m):
                    for r in _RATIONALS:
                        for s in (1, -2, Fraction(1, 2)):
                            x = CycloScalar(m, {a: r})
                            y = CycloScalar(m, {b: s})
                            assert _stored(x * y) == _stored(loop_product(x, y))

    def test_times_root_equals_multiplying_by_the_root(self):
        rng = random.Random(6)
        for _ in range(500):
            m = rng.randint(1, 12)
            x = CycloScalar(m, {
                rng.randrange(m): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                for _ in range(rng.randint(0, 5))
            })
            k = rng.randint(-2 * m, 2 * m)
            product = x * CycloScalar.root(m, k)
            shifted = x.times_root(k)
            assert repr(shifted) == repr(product)
            assert _stored(shifted) == _stored(product)
        # The shared-root shortcut and the dict shift must agree on roots,
        # negated roots and rational multiples of one root, including a
        # stored Fraction(1) that is not the int 1 of a cached root.
        for _ in range(500):
            ctx = AlgebraContext(rng.randint(2, 6), 1)
            m = ctx.order
            j = rng.randrange(m)
            d = rng.randint(1, 4)
            x = rng.choice([
                ctx.omega(j),
                -ctx.omega(j),
                Fraction(rng.randint(-4, 4), d) * ctx.omega(j),
                (ctx.omega(j) * Fraction(1, d)) * d,
            ])
            k = rng.randint(-2 * m, 2 * m)
            product = x * CycloScalar.root(m, k)
            shifted = x.times_root(k)
            assert repr(shifted) == repr(product)
            assert _stored(shifted) == _stored(product)
            if x is ctx.omega(j):
                assert shifted is ctx.omega(j + k)

    def test_cached_roots_survive_a_suite_run(self):
        # times_root hands out the shared roots themselves; none may be altered,
        # and each must know its own exponent.
        assert all(r.passed for r in run_suite(AlgebraContext(4, 2)))
        for k in range(8):
            assert _stored(_ROOTS[8][k]) == [(k, int, 1)]
            assert _ROOTS[8][k].exp == k

    def test_shared_roots_read_their_exponent(self):
        # Every ring order the CLI allows.  The orders built here, about 18 MB
        # of roots, are dropped again when the test ends.
        built = [2 * N for N in range(2, MAX_N + 1) if 2 * N not in _ROOTS]
        try:
            for N in range(2, MAX_N + 1):
                m = 2 * N
                for k, root in enumerate(_ROOTS[m]):
                    assert root.root_exponent() == k
                    assert CycloScalar._raw(m, {k: 1}).root_exponent() == k
        finally:
            for m in built:
                del _ROOTS[m]


_coefficients = st.one_of(
    st.integers(-3, 3),
    st.fractions(-3, 3, max_denominator=4),
    st.sampled_from(["5/5", "-1/2", "0"]),
)


class TestMergeRule:
    # The constructor, + and * merge through one helper; the loops each of
    # them once ran give the oracle of keys in order, values and value types.
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_stored_forms_match_the_merge_loops(self, data):
        m = data.draw(st.integers(1, 12), label="order")
        maps = data.draw(st.lists(
            st.dictionaries(st.integers(-2 * m - 3, 2 * m + 3), _coefficients, max_size=6),
            min_size=2, max_size=2,
        ), label="maps")
        x, y = (CycloScalar(m, c) for c in maps)
        for c, s in zip(maps, (x, y)):
            assert _stored(s) == _stored(loop_scalar(m, c))
        for a, b in ((x, y), (x, -x), (x + y, -y), (y, x * 2)):
            assert _stored(a + b) == _stored(loop_sum(a, b))
            assert _stored(a * b) == _stored(loop_product(a, b))


class TestZeroTestInIntegers:
    # is_zero clears the denominators and reduces in ints; the literal
    # reduction over Fractions is its oracle.  Half the draws are a Fraction
    # multiple of Phi_m (zero), optionally plus one Fraction times a root.
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_fraction_entries_agree_with_the_literal_reduction(self, data):
        m = data.draw(st.integers(2, 510), label="order")
        fractions = st.fractions(-5, 5, max_denominator=12).filter(bool)
        phi = cyclotomic_polynomial(m)
        if data.draw(st.booleans(), label="multiple of Phi"):
            factor = data.draw(st.dictionaries(
                st.integers(0, m - len(phi)), fractions, min_size=1, max_size=4,
            ), label="factor")
            coeffs = {}
            for a, x in factor.items():
                for b, d in enumerate(phi):
                    coeffs[a + b] = coeffs.get(a + b, 0) + x * d
            if data.draw(st.booleans(), label="plus a root"):
                k = data.draw(st.integers(0, m - 1), label="root")
                coeffs[k] = coeffs.get(k, 0) + data.draw(fractions, label="weight")
        else:
            coeffs = data.draw(st.dictionaries(
                st.integers(0, m - 1), fractions, min_size=2, max_size=24,
            ), label="entries")
        s = CycloScalar(m, coeffs)
        assert s.is_zero() == literal_is_zero(s)


class TestExactInputs:
    # A float's binary value is never the rational that was meant.
    @pytest.mark.parametrize("value", [0.1, 0.5, 1.0, 0.0, -2.0])
    def test_floats_are_refused(self, value):
        ctx = AlgebraContext(3, 1)
        with pytest.raises(TypeError):
            ctx.scalar(value)
        with pytest.raises(TypeError):
            CycloScalar.rational(6, value)
        with pytest.raises(TypeError):
            AlgebraElement.from_scalar(ctx, value)
        with pytest.raises(TypeError):
            CycloScalar(6, {1: value})

    @pytest.mark.parametrize("exponent", [2.7, 3.0, "3", None])
    def test_exponents_must_be_integers(self, exponent):
        with pytest.raises(TypeError):
            CycloScalar(6, {exponent: 1})

    def test_exact_rationals_are_read(self):
        ctx = AlgebraContext(3, 1)
        assert _stored(ctx.scalar("1/10")) == [(0, Fraction, Fraction(1, 10))]
        assert _stored(CycloScalar.rational(6, Fraction(6, 3))) == [(0, int, 2)]
        assert AlgebraElement.from_scalar(ctx, "-5/5") == AlgebraElement.from_scalar(ctx, -1)
        assert _stored(CycloScalar(6, {7: "2/4"})) == [(1, Fraction, Fraction(1, 2))]

    @pytest.mark.parametrize("build", [
        lambda ctx: AlgebraElement(ctx, {(1.7, 0): ctx.one()}),
        lambda ctx: AlgebraElement(ctx, {("2", 0): ctx.one()}),
        lambda ctx: AlgebraElement(ctx, {(1.5, 0): ctx.one(), (1, 0): ctx.one()}),
        lambda ctx: NormalMonomial(ctx, ctx.one(), (1.0, 0)),
        lambda ctx: PhasedPermutation(ctx, [0.0, 1.0], [0, 0]),
        lambda ctx: PhasedPermutation(ctx, [0, 1], [0.5, 0]),
    ], ids=["float-exponent", "string-exponent", "merged-exponents", "monomial-exponent",
            "position", "phase"])
    def test_exponents_positions_and_phases_must_be_integers(self, build):
        # int() would read 1.7 and 1.5 as 1, and "2" as 2.
        with pytest.raises(TypeError):
            build(AlgebraContext(2, 1))

    def test_vectors_read_rational_coefficients(self):
        ctx, other = AlgebraContext(2, 1), AlgebraContext(3, 1)
        assert QuditState(ctx, {(0,): 1}) == basis_state(ctx, (0,))
        assert AlgebraElement(ctx, {(0, 0): 2}) == AlgebraElement.from_scalar(ctx, 2)
        half = QuditState(ctx, {(0,): "1/2", (1,): 0}).terms
        assert list(half) == [(0,)] and _stored(half[(0,)]) == [(0, Fraction, Fraction(1, 2))]
        for vector, key in ((QuditState, (0,)), (AlgebraElement, (0, 0))):
            with pytest.raises(TypeError):
                vector(ctx, {key: 0.5})
            with pytest.raises(ContextMismatchError):
                vector(ctx, {key: other.one()})


_orders = st.sampled_from([4, 6, 8, 10, 12])


@st.composite
def _scalars(draw, order):
    coeffs = {}
    for _ in range(draw(st.integers(0, 4))):
        k = draw(st.integers(0, order - 1))
        coeffs[k] = coeffs.get(k, 0) + Fraction(
            draw(st.integers(-4, 4)), draw(st.integers(1, 4))
        )
    return CycloScalar(order, coeffs)


class TestRingLaws:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_ring_laws(self, data):
        m = data.draw(_orders)
        a = data.draw(_scalars(m))
        b = data.draw(_scalars(m))
        c = data.draw(_scalars(m))
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a + (-a) == 0

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_conj_is_an_involutive_automorphism(self, data):
        m = data.draw(_orders)
        a = data.draw(_scalars(m))
        b = data.draw(_scalars(m))
        assert a.conj().conj() == a
        assert (a + b).conj() == a.conj() + b.conj()
        assert (a * b).conj() == a.conj() * b.conj()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(-20, 20), st.integers(1, 9))
    def test_conj_fixes_rationals(self, num, den):
        s = CycloScalar.rational(10, Fraction(num, den))
        assert s.conj() == s
